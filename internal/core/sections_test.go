package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
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
// own server, so everything lands in the long-flows-template dataset. The
// client acks every 12, 16 or 20 segments, so after a segment another is all
// but certain: the skew an rANS table codes in a fraction of a bit.
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
			case k%(12+f%3*4) == 0:
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

// builtSections returns the sections Encode writes for a, in file order.
func builtSections(t testing.TB, a *Archive) [][]byte {
	t.Helper()
	var sections [][]byte
	if _, err := a.encodeSections(a.Index.Enabled, func(_ int, b []byte) error {
		sections = append(sections, bytes.Clone(b))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return sections
}

// TestSectionCodecRoundTrip: for every section, decode(append(x)) == x and
// consumes exactly the appended bytes, on each workload's archive, in every
// layout the decoders read.
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
			want := wireForm(a)
			for _, l := range layouts {
				layout, sections := l.name, l.sections(t, a)
				var sc *sectionCodec
				check := func(i int, section string, want any, decode func(c *wire.Cursor) (any, error)) {
					t.Helper()
					c := wire.NewCursor(sections[i], ErrBadArchive)
					got, err := decode(&c)
					if err == nil {
						err = c.Done(section)
					}
					if err != nil {
						t.Fatalf("%s %s: %v", layout, section, err)
					}
					if want != nil && !reflect.DeepEqual(got, want) && reflect.ValueOf(got).Len()+reflect.ValueOf(want).Len() > 0 {
						t.Fatalf("%s %s does not round-trip", layout, section)
					}
				}
				var hdr Archive
				check(0, "header", nil, func(c *wire.Cursor) (any, error) {
					sc, err = decodeHeader(c, &hdr)
					return nil, err
				})
				if hdr.Opts != a.Opts || hdr.SourcePackets != a.SourcePackets || hdr.SourceTSHBytes != a.SourceTSHBytes {
					t.Fatalf("%s header decoded to %+v", layout, hdr)
				}
				check(1, "short templates", want.ShortTemplates, func(c *wire.Cursor) (any, error) { return sc.shortTemplates(c) })
				check(2, "long templates", want.LongTemplates, func(c *wire.Cursor) (any, error) { return sc.longTemplates(c) })
				check(3, "addresses", want.Addresses, func(c *wire.Cursor) (any, error) { return decodeAddresses(c) })
				check(4, "time-seq", want.TimeSeq, func(c *wire.Cursor) (any, error) {
					recs, _, err := sc.timeSeq(c)
					return recs, err
				})
			}
		})
	}
}

// TestItemCodecQuick: the per-item codecs round-trip arbitrary values, not
// just those a compressor produces, in both layouts.
func TestItemCodecQuick(t *testing.T) {
	const maxUS = int64(1) << 40 // 50 such steps stay inside a Duration
	us := func(v int64) time.Duration { return time.Duration(v&(maxUS-1)) * time.Microsecond }
	// codecOf returns the codec of the header Encode would give a.
	codecOf := func(a *Archive, cs *coders) *sectionCodec {
		a.Opts = DefaultOptions()
		c := wire.NewCursor(appendHeader(nil, a, 0, cs), ErrBadArchive)
		sc, err := decodeHeader(&c, &Archive{})
		if err != nil || c.Len() != 0 {
			t.Fatalf("header: %v, %d bytes left", err, c.Len())
		}
		return sc
	}
	if err := quick.Check(func(f []byte, gapUS []int64) bool {
		f = append(f, 1) // a long template has at least one packet
		lt := LongTemplate{F: flow.Vector(f), Gaps: make([]time.Duration, len(f)-1)}
		for i := range lt.Gaps {
			if i < len(gapUS) {
				lt.Gaps[i] = us(gapUS[i])
			}
		}
		c := wire.NewCursor(v1LongTemplate(nil, &lt), ErrBadArchive)
		got, err := (&sectionCodec{version: 1}).longTemplate(&c)
		if err != nil || c.Len() != 0 || !reflect.DeepEqual(got, lt) {
			return false
		}
		a := &Archive{LongTemplates: []LongTemplate{lt}}
		cs := a.columnEncoders(nil, new(encodeBuffers))
		c = wire.NewCursor(appendLongTemplates(nil, a.LongTemplates, cs, nil), ErrBadArchive)
		all, err := codecOf(a, cs).longTemplates(&c)
		return err == nil && c.Len() == 0 && reflect.DeepEqual(all, a.LongTemplates)
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(startUS int64, stepUS []int64, tpl, addr []uint32, long []bool, groupSize uint8) bool {
		// A run of records sharing one clock, as in a section.
		recs := make([]TimeSeqRecord, min(len(stepUS), len(tpl), len(addr), len(long)))
		ts := us(startUS)
		var b []byte
		var s timeSeqState
		for i := range recs {
			ts += us(stepUS[i] >> 12)
			recs[i] = TimeSeqRecord{FirstTS: ts, Long: long[i], Template: tpl[i], Addr: addr[i]}
			if !long[i] {
				recs[i].RTT = us(stepUS[i])
			}
			b = v1TimeSeqRecord(b, &recs[i], &s)
		}
		c := wire.NewCursor(b, ErrBadArchive)
		clock := time.Duration(0)
		for i := range recs {
			got, err := decodeTimeSeqRecord(&c, &clock)
			if err != nil || got != recs[i] {
				return false
			}
		}
		if c.Len() != 0 || clock != time.Duration(s.clockUS)*time.Microsecond {
			return false
		}
		a := &Archive{TimeSeq: recs, Index: IndexConfig{GroupSize: int(groupSize) + 1}}
		cs := a.columnEncoders(recs, new(encodeBuffers))
		var scratch []byte
		c = wire.NewCursor(appendTimeSeq(nil, recs, int(groupSize)+1, &cs.enc, cs.newTemplates, nil, &scratch), ErrBadArchive)
		got, gs, err := codecOf(a, cs).timeSeq(&c)
		return err == nil && c.Len() == 0 && gs == int(groupSize)+1 && slices.Equal(got, recs)
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestEncodeRecordedOffsetsMatchBody pins the footer index to the body now
// that the offsets are recorded while writing rather than recomputed: every
// template offset must be where that template decodes from, and every group
// offset where the group decodes from, with the group's clock base and span
// and its new addresses agreeing with the records — in every layout the
// decoders read.
func TestEncodeRecordedOffsetsMatchBody(t *testing.T) {
	for name, tr := range codecWorkloads() {
		t.Run(name, func(t *testing.T) {
			a, err := Compress(tr, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			a.Index = IndexConfig{Enabled: true, GroupSize: 16}
			want := wireForm(a)
			for _, l := range layouts {
				layout, fz := l.name, l.encode(t, a)
				r := openReader(t, fz)
				x := r.idx
				if len(x.shortOffs) != len(a.ShortTemplates) || len(x.longOffs) != len(a.LongTemplates) || x.flows != a.Flows() {
					t.Fatalf("%s: index has %d short, %d long, %d flows", layout, len(x.shortOffs), len(x.longOffs), x.flows)
				}
				at := func(base, off int64) *wire.Cursor {
					c := wire.NewCursor(fz[base+off:], ErrBadIndex)
					return &c
				}
				for i, off := range x.shortOffs {
					if v, err := r.codec.shortTemplate(at(r.shortOff, off)); err != nil || !bytes.Equal(v, a.ShortTemplates[i]) {
						t.Fatalf("%s: short template %d does not decode from offset %d: %v", layout, i, off, err)
					}
				}
				for i, off := range x.longOffs {
					lt, err := r.codec.longTemplate(at(r.longOff, off))
					if err != nil || !bytes.Equal(lt.F, a.LongTemplates[i].F) || !slices.Equal(lt.Gaps, want.LongTemplates[i].Gaps) {
						t.Fatalf("%s: long template %d does not decode from offset %d: %v", layout, i, off, err)
					}
				}
				for g, gi := range x.groups {
					if gi.startRec != g*16 || gi.count != min(16, a.Flows()-gi.startRec) {
						t.Fatalf("%s: group %d covers records [%d,+%d)", layout, g, gi.startRec, gi.count)
					}
					clock := time.Duration(x.baseUS(g)) * time.Microsecond
					var next [numNew]uint32
					for k, n := range gi.next {
						next[k] = uint32(n)
					}
					recs := make([]TimeSeqRecord, gi.count)
					if err := r.codec.group(at(r.timeseqOff, gi.off), recs, &clock, &next); err != nil {
						t.Fatalf("%s: group %d does not decode from offset %d: %v", layout, g, gi.off, err)
					}
					for k, n := range next {
						if int(n)-gi.next[k] != gi.fresh[k] {
							t.Fatalf("%s: group %d introduces %d new %s, index says %d", layout, g, int(n)-gi.next[k], newNames[k], gi.fresh[k])
						}
					}
					if !slices.Equal(recs, want.TimeSeq[gi.startRec:gi.startRec+gi.count]) {
						t.Fatalf("%s: group %d decodes from offset %d to other records", layout, g, gi.off)
					}
					if first := recs[0].FirstTS; first != time.Duration(gi.firstUS)*time.Microsecond {
						t.Fatalf("%s: group %d starts at %v, index says %d µs", layout, g, first, gi.firstUS)
					}
					if clock != time.Duration(gi.lastUS)*time.Microsecond {
						t.Fatalf("%s: group %d ends at %v, index says %d µs", layout, g, clock, gi.lastUS)
					}
				}
			}
		})
	}
}

// TestScanPaysForANewAddressOnce: on a SYN sweep of 20 000 flows every flow
// is to a server not seen before, numbered in the order it appears, so the
// time-seq address column is one symbol and costs no bits. The footer stays
// within a byte per eight addresses and 16 bytes a group, its group entries
// within the 16 bytes a group, and its postings — one group per address, the
// group that introduces it — cost nothing beyond their counts, prediction and
// tables: every postings column is one symbol.
func TestScanPaysForANewAddressOnce(t *testing.T) {
	a, err := Compress(scanTrace(20000), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a.Index = IndexConfig{Enabled: true}
	c := encodeBytes(t, a)
	_, info, err := Inspect(c)
	if err != nil {
		t.Fatal(err)
	}
	if col := info.Columns[colAddr]; col.Values != int64(a.Flows()) || len(a.Addresses) != a.Flows() || col.Bits != 0 {
		t.Errorf("the address column takes %.0f bits for %d values, want 0", col.Bits, col.Values)
	}
	groups := (a.Flows() + DefaultIndexGroupSize - 1) / DefaultIndexGroupSize
	if limit := int64(len(a.Addresses)/8 + 16*groups); info.Sections.Index > limit {
		t.Errorf("the footer of %d addresses in %d groups takes %d bytes, want at most %d", len(a.Addresses), groups, info.Sections.Index, limit)
	}
	x, _ := footerIndex(c)
	var entries, postings float64 // bits
	tables := 0
	for _, col := range info.Columns[numColumns:] {
		tables += col.TableBytes
		if strings.HasPrefix(col.Name, "group ") {
			entries += col.Bits
		}
		if strings.HasPrefix(col.Name, "postings ") {
			postings += col.Bits
		}
	}
	if entries > float64(8*16*groups) {
		t.Errorf("the footer's group entries take %.0f bits for %d groups, want at most %d bytes a group", entries, groups, 16)
	}
	head := int64(len(x.appendHead(nil, len(a.Addresses), a.Flows(), x.pred)))
	if x.pred != predFresh || postings != 0 || info.Sections.Index > head+int64(tables)+int64(entries/8)+1+trailerLen {
		t.Errorf("the postings of %d addresses take %.0f bits under prediction %d, the footer %d bytes with %d of tables", len(a.Addresses), postings, x.pred, info.Sections.Index, tables)
	}
}

// TestTagsPayForANewTemplateOnce: where nearly every flow founds a template —
// the distinct shape, 5 000 flows — the tag column takes the new-template
// symbols and codes in at most 1.2 bits a record, against the 12 or so of an
// index among 5 000. Where the symbol would be one more value in a column of
// few — a SYN sweep's one template, and four templates taking 4 000 references
// — the encoder leaves the flag off, and the column costs what it costs
// without the symbols: the plain tags' table and codes.
func TestTagsPayForANewTemplateOnce(t *testing.T) {
	flows := 5000
	if raceEnabled {
		flows = 1500 // matching is quadratic in templates and the detector slows it tenfold
	}
	distinct, err := Compress(distinctTrace(7, flows), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(distinct.ShortTemplates); n < flows*99/100 {
		t.Fatalf("distinct: %d templates for %d flows, want nearly one each", n, flows)
	}
	scan, err := Compress(scanTrace(20000), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	few := &Archive{Opts: DefaultOptions(), ShortTemplates: []flow.Vector{{1}, {2, 3}, {4, 5, 6}, {7, 8, 9, 10}}, Addresses: []pkt.IPv4{0x0a000001}}
	for i := range 4000 {
		few.TimeSeq = append(few.TimeSeq, TimeSeqRecord{FirstTS: time.Duration(i) * time.Millisecond, Template: uint32(i % 4)})
	}
	for name, a := range map[string]*Archive{"distinct": distinct, "scan": scan, "few": few} {
		a.Index = IndexConfig{Enabled: true}
		c := encodeBytes(t, a)
		_, info, err := Inspect(c)
		if err != nil {
			t.Fatal(err)
		}
		col, flagged := info.Columns[colTag], c[len(magic)+1]&flagNewTemplates != 0
		var plain wire.Histogram
		for _, r := range a.TimeSeq {
			tag := uint64(r.Template) << 1
			if r.Long {
				tag |= 1
			}
			plain.Add(tag)
		}
		p := plain.Encoder(false)
		table := len(p.AppendTable(nil))
		plainBits := float64(p.Cost())/(1<<16) - float64(8*table)
		t.Logf("%s: %d tags in %.0f bits (%s, %d table bytes), %.0f bits and %d table bytes without the symbols", name, col.Values, col.Bits, col.Name, col.TableBytes, plainBits, table)
		if name == "distinct" {
			if !flagged || col.Bits > 1.2*float64(col.Values) {
				t.Errorf("%s: the tag column takes %.0f bits for %d records, flagged %v", name, col.Bits, col.Values, flagged)
			}
			continue
		}
		if flagged || col.Bits != plainBits || col.TableBytes != table {
			t.Errorf("%s: the tag column takes %.0f bits and %d table bytes, flagged %v; without the symbols %.0f and %d", name, col.Bits, col.TableBytes, flagged, plainBits, table)
		}
	}
}

// TestCompressNumbersTemplatesByFirstUse: every compress path — the serial
// Compressor and the pipeline at 2 and 4 workers over a trace and over a
// stream — numbers the short templates, and apart
// from them the long ones, in the order the sorted time-seq first names them,
// on the equivalence suites' traces.
func TestCompressNumbersTemplatesByFirstUse(t *testing.T) {
	firstUse := func(a *Archive) bool {
		var next [2]uint32
		for _, r := range sortedTimeSeq(a.TimeSeq) {
			k := 0
			if r.Long {
				k = 1
			}
			switch {
			case r.Template == next[k]:
				next[k]++
			case r.Template > next[k]:
				return false
			}
		}
		return int(next[0]) == len(a.ShortTemplates) && int(next[1]) == len(a.LongTemplates)
	}
	traces := map[string]*trace.Trace{
		"web":         webTrace(61, 400),
		"adversarial": adversarialTrace(400),
		"fractal":     fractalTrace(4, 15000),
		"p2p":         p2pTrace(5),
	}
	for name, tr := range traces {
		serial, err := Compress(tr, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		paths := map[string]*Archive{"serial": serial}
		for _, workers := range []int{2, 4} {
			p, err := NewPipeline(DefaultOptions(), PipelineConfig{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if paths[fmt.Sprintf("trace at %d workers", workers)], err = p.CompressTrace(tr); err != nil {
				t.Fatal(err)
			}
			if paths[fmt.Sprintf("stream at %d workers", workers)], err = p.Compress(trace.Batches(tr, 128)); err != nil {
				t.Fatal(err)
			}
		}
		for path, a := range paths {
			if !firstUse(a) {
				t.Errorf("%s, %s: templates not numbered by first use", name, path)
			}
		}
	}
}

// TestContextsShrinkBulkTemplates: on the bulk shape — long transfers whose
// data segments and acks alternate at a fixed cadence — the f value after
// another is all but certain, and coding it under the one before it through
// an rANS state, not at Huffman's bit a value, takes the long-f column to
// within a tenth of its entropy under those contexts.
func TestContextsShrinkBulkTemplates(t *testing.T) {
	a, err := Compress(codecWorkloads()["bulk"], DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := Inspect(encodeBytes(t, a))
	if err != nil {
		t.Fatal(err)
	}
	col := info.Columns[colLongF]
	t.Logf("%s: %d values, %.0f bits as written, entropy %.0f, coded %s", col.Name, col.Values, col.Bits, col.EntropyBits, col.Mode)
	if col.Mode != "rans" || col.Bits > 1.1*col.EntropyBits || col.Bits >= float64(col.Values) {
		t.Errorf("%s: %.0f bits for %d values, %s, under an entropy of %.0f", col.Name, col.Bits, col.Values, col.Mode, col.EntropyBits)
	}
}
