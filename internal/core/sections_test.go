package core

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/trace"
	"flowzip/internal/wire"
)

// scanTrace is a SYN sweep: one packet per flow, every destination distinct.
func scanTrace(n int) *trace.Trace {
	tr := trace.New("scan")
	for i := 0; i < n; i++ {
		tr.Append(pkt.Packet{
			Timestamp: time.Duration(i) * 17 * time.Microsecond,
			SrcIP:     pkt.Addr(203, 0, 113, 9),
			DstIP:     pkt.IPv4(0x0b000000 + uint32(i)*2654435761>>8),
			SrcPort:   uint16(1024 + i%60000),
			DstPort:   80,
			Proto:     pkt.ProtoTCP,
			Flags:     pkt.FlagSYN,
			TTL:       64,
			Window:    65535,
		})
	}
	return tr
}

// bulkTrace is a handful of long transfers, each far over ShortMax and to its
// own server, so everything lands in the long-flows-template dataset.
func bulkTrace(flows, packets int) *trace.Trace {
	tr := trace.New("bulk")
	for f := 0; f < flows; f++ {
		client, server := pkt.Addr(10, 1, byte(f), 7), pkt.Addr(172, 16, byte(f), 1)
		ts := time.Duration(f) * 3 * time.Millisecond
		for k := 0; k < packets; k++ {
			p := pkt.Packet{Timestamp: ts, SrcIP: server, DstIP: client, SrcPort: 80, DstPort: uint16(2000 + f),
				Proto: pkt.ProtoTCP, Flags: pkt.FlagACK, TTL: 64, Window: 65535, PayloadLen: 1460}
			switch {
			case k == 0:
				p.SrcIP, p.DstIP, p.SrcPort, p.DstPort, p.Flags, p.PayloadLen = client, server, p.DstPort, 80, pkt.FlagSYN, 0
			case k%(3+f%3) == 0:
				p.SrcIP, p.DstIP, p.SrcPort, p.DstPort, p.PayloadLen = client, server, p.DstPort, 80, 0
			}
			tr.Append(p)
			ts += time.Duration(100+37*((k+f)%5)) * time.Microsecond
		}
	}
	tr.Sort()
	return tr
}

// codecWorkloads is the read-path sweep plus the two shapes that stress one
// section each: scan (address and time-seq only) and bulk (long templates).
func codecWorkloads() map[string]*trace.Trace {
	w := readPathWorkloads()
	w["scan"] = scanTrace(3000)
	w["bulk"] = bulkTrace(6, 700)
	return w
}

// TestSectionCodecRoundTrip: for every section, decode(append(x)) == x and
// consumes exactly the appended bytes, on each workload's archive.
func TestSectionCodecRoundTrip(t *testing.T) {
	for name, tr := range codecWorkloads() {
		t.Run(name, func(t *testing.T) {
			a, err := Compress(tr, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if name == "bulk" && len(a.LongTemplates) != 6 {
				t.Fatalf("bulk trace produced %d long templates, want 6", len(a.LongTemplates))
			}
			if name == "scan" && len(a.Addresses) != a.Flows() {
				t.Fatalf("scan trace produced %d addresses for %d flows", len(a.Addresses), a.Flows())
			}
			// Timestamps travel in whole µs; compare against the rounded records.
			recs := make([]TimeSeqRecord, len(a.TimeSeq))
			for i, r := range a.TimeSeq {
				r.FirstTS, r.RTT = r.FirstTS.Truncate(time.Microsecond), r.RTT.Truncate(time.Microsecond)
				recs[i] = r
			}
			long := make([]LongTemplate, len(a.LongTemplates))
			for i, lt := range a.LongTemplates {
				long[i] = LongTemplate{F: lt.F, Gaps: make([]time.Duration, len(lt.Gaps))}
				for g, gap := range lt.Gaps {
					long[i].Gaps[g] = gap.Truncate(time.Microsecond)
				}
			}

			check := func(section string, b []byte, want any, decode func(c *wire.Cursor) (any, error)) {
				t.Helper()
				c := wire.NewCursor(b, ErrBadArchive)
				got, err := decode(&c)
				if err == nil {
					err = c.Done(section)
				}
				if err != nil {
					t.Fatalf("%s: %v", section, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s does not round-trip", section)
				}
			}
			var hdr Archive
			check("header", appendHeader(nil, a, 2), byte(2), func(c *wire.Cursor) (any, error) { return decodeHeader(c, &hdr) })
			if hdr.Opts != a.Opts || hdr.SourcePackets != a.SourcePackets || hdr.SourceTSHBytes != a.SourceTSHBytes {
				t.Fatalf("header decoded to %+v", hdr)
			}
			check("short templates", appendShortTemplates(nil, a.ShortTemplates, nil), a.ShortTemplates,
				func(c *wire.Cursor) (any, error) { return decodeShortTemplates(c) })
			check("long templates", appendLongTemplates(nil, a.LongTemplates, nil), long,
				func(c *wire.Cursor) (any, error) { return decodeLongTemplates(c) })
			check("addresses", appendAddresses(nil, a.Addresses), a.Addresses,
				func(c *wire.Cursor) (any, error) { return decodeAddresses(c) })
			check("time-seq", appendTimeSeq(nil, a.TimeSeq, nil), recs,
				func(c *wire.Cursor) (any, error) { return decodeTimeSeq(c) })
		})
	}
}

// TestItemCodecQuick: the per-item codecs round-trip arbitrary values, not
// just those a compressor produces.
func TestItemCodecQuick(t *testing.T) {
	const maxUS = int64(1) << 40 // 50 such steps stay inside a Duration
	us := func(v int64) time.Duration { return time.Duration(v&(maxUS-1)) * time.Microsecond }
	if err := quick.Check(func(f []byte, gapUS []int64) bool {
		f = append(f, 1) // a long template has at least one packet
		lt := LongTemplate{F: flow.Vector(f), Gaps: make([]time.Duration, len(f)-1)}
		for i := range lt.Gaps {
			if i < len(gapUS) {
				lt.Gaps[i] = us(gapUS[i])
			}
		}
		c := wire.NewCursor(appendLongTemplate(nil, &lt), ErrBadArchive)
		got, err := decodeLongTemplate(&c)
		return err == nil && c.Len() == 0 && reflect.DeepEqual(got, lt)
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(startUS int64, stepUS []int64, tpl, addr []uint32, long []bool) bool {
		// A run of records sharing one clock, as in a section.
		recs := make([]TimeSeqRecord, min(len(stepUS), len(tpl), len(addr), len(long)))
		ts := us(startUS)
		var b []byte
		clockUS := int64(0)
		for i := range recs {
			ts += us(stepUS[i] >> 12)
			recs[i] = TimeSeqRecord{FirstTS: ts, Long: long[i], Template: tpl[i], Addr: addr[i]}
			if !long[i] {
				recs[i].RTT = us(stepUS[i])
			}
			b = appendTimeSeqRecord(b, &recs[i], &clockUS)
		}
		c := wire.NewCursor(b, ErrBadArchive)
		clock := time.Duration(0)
		for i := range recs {
			got, err := decodeTimeSeqRecord(&c, &clock)
			if err != nil || got != recs[i] {
				return false
			}
		}
		return c.Len() == 0 && clock == time.Duration(clockUS)*time.Microsecond
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestEncodeRecordedOffsetsMatchBody pins the footer index to the body now
// that the offsets are recorded while writing rather than recomputed: every
// template offset must be where that template decodes from, and every group
// offset where the group's first record decodes from, with the group's clock
// base and span agreeing with the records.
func TestEncodeRecordedOffsetsMatchBody(t *testing.T) {
	for name, tr := range codecWorkloads() {
		t.Run(name, func(t *testing.T) {
			a, err := Compress(tr, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			v2 := indexedArchive(t, a, IndexConfig{Enabled: true, GroupSize: 16})
			r, err := OpenReader(bytes.NewReader(v2), int64(len(v2)))
			if err != nil {
				t.Fatal(err)
			}
			x := r.idx
			if len(x.shortOffs) != len(a.ShortTemplates) || len(x.longOffs) != len(a.LongTemplates) || x.flows != a.Flows() {
				t.Fatalf("index has %d short, %d long, %d flows", len(x.shortOffs), len(x.longOffs), x.flows)
			}
			at := func(base, off int64) *wire.Cursor {
				c := wire.NewCursor(v2[base+off:], ErrBadIndex)
				return &c
			}
			for i, off := range x.shortOffs {
				if v, err := decodeVector(at(r.shortOff, off)); err != nil || !bytes.Equal(v, a.ShortTemplates[i]) {
					t.Fatalf("short template %d does not decode from offset %d: %v", i, off, err)
				}
			}
			for i, off := range x.longOffs {
				if lt, err := decodeLongTemplate(at(r.longOff, off)); err != nil || !bytes.Equal(lt.F, a.LongTemplates[i].F) {
					t.Fatalf("long template %d does not decode from offset %d: %v", i, off, err)
				}
			}
			for g, gi := range x.groups {
				if gi.startRec != g*16 || gi.count != min(16, a.Flows()-gi.startRec) {
					t.Fatalf("group %d covers records [%d,+%d)", g, gi.startRec, gi.count)
				}
				clock := time.Duration(x.baseUS(g)) * time.Microsecond
				c := at(r.timeseqOff, gi.off)
				for j := 0; j < gi.count; j++ {
					rec, err := decodeTimeSeqRecord(c, &clock)
					want := a.TimeSeq[gi.startRec+j]
					if err != nil || rec.FirstTS != want.FirstTS.Truncate(time.Microsecond) ||
						rec.Long != want.Long || rec.Template != want.Template || rec.Addr != want.Addr {
						t.Fatalf("group %d record %d decodes from offset %d as %+v (%v), want %+v", g, j, gi.off, rec, err, want)
					}
					if j == 0 && clock != time.Duration(gi.firstUS)*time.Microsecond {
						t.Fatalf("group %d starts at %v, index says %d µs", g, clock, gi.firstUS)
					}
				}
				if clock != time.Duration(gi.lastUS)*time.Microsecond {
					t.Fatalf("group %d ends at %v, index says %d µs", g, clock, gi.lastUS)
				}
			}
		})
	}
}
