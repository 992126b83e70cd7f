package core

import (
	"bytes"
	"encoding/binary"
	"math"
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
	if _, err := a.encodeSections(a.Index.Enabled, func(b []byte) error {
		sections = append(sections, bytes.Clone(b))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return sections
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
			want, sections := wireForm(a), builtSections(t, a)
			var sc *sectionCodec
			check := func(i int, section string, want any, decode func(c *wire.Cursor) (any, error)) {
				t.Helper()
				c := wire.NewCursor(sections[i], ErrBadArchive)
				got, err := decode(&c)
				if err == nil {
					err = c.Done(section)
				}
				if err != nil {
					t.Fatalf("%s: %v", section, err)
				}
				if want != nil && !reflect.DeepEqual(got, want) && reflect.ValueOf(got).Len()+reflect.ValueOf(want).Len() > 0 {
					t.Fatalf("%s does not round-trip", section)
				}
			}
			var hdr Archive
			check(0, "header", nil, func(c *wire.Cursor) (any, error) {
				sc, err = decodeHeader(c, &hdr)
				return nil, err
			})
			if hdr.Opts != a.Opts || hdr.SourcePackets != a.SourcePackets || hdr.SourceTSHBytes != a.SourceTSHBytes {
				t.Fatalf("header decoded to %+v", hdr)
			}
			check(1, "short templates", want.ShortTemplates, func(c *wire.Cursor) (any, error) { return sc.shortTemplates(c) })
			check(2, "long templates", want.LongTemplates, func(c *wire.Cursor) (any, error) { return sc.longTemplates(c) })
			check(3, "addresses", want.Addresses, func(c *wire.Cursor) (any, error) { return decodeAddresses(c) })
			check(4, "time-seq", want.TimeSeq, func(c *wire.Cursor) (any, error) {
				recs, _, err := sc.timeSeq(c)
				return recs, err
			})
		})
	}
}

// TestItemCodecQuick: the per-item codecs round-trip arbitrary values, not
// just those a compressor produces.
func TestItemCodecQuick(t *testing.T) {
	const maxUS = int64(1) << 40 // 50 such steps stay inside a Duration
	us := func(v int64) time.Duration { return time.Duration(v&(maxUS-1)) * time.Microsecond }
	// codecOf returns the codec of the header Encode would give a.
	codecOf := func(a *Archive, cs *coders) *sectionCodec {
		c := wire.NewCursor(appendHeader(nil, a, 0, cs), ErrBadArchive)
		sc, err := decodeHeader(&c, &Archive{})
		if err != nil || c.Len() != 0 {
			t.Fatalf("header: %v, %d bytes left", err, c.Len())
		}
		return sc
	}
	if err := quick.Check(func(f []byte, gapUS []int64) bool {
		f = append(f, 1) // a long template has at least one packet
		gaps := make([]time.Duration, len(f)-1)
		for i := range gaps {
			if i < len(gapUS) {
				gaps[i] = us(gapUS[i])
			}
		}
		a := &Archive{Opts: DefaultOptions(), LongTemplates: []LongTemplate{{F: flow.Vector(f), Gaps: packGaps(gaps...)}}}
		cs := a.columnEncoders(nil, new(encodeBuffers))
		c := wire.NewCursor(appendLongTemplates(nil, a.LongTemplates, cs, nil), ErrBadArchive)
		all, err := codecOf(a, cs).longTemplates(&c)
		return err == nil && c.Len() == 0 && slices.EqualFunc(all, a.LongTemplates, sameLong)
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(startUS int64, stepUS []int64, tpl, addr []uint32, long []bool, groupSize uint8) bool {
		// A run of records sharing one clock, as in a section.
		recs := make([]TimeSeqRecord, min(len(stepUS), len(tpl), len(addr), len(long)))
		ts := us(startUS)
		for i := range recs {
			ts += us(stepUS[i] >> 12)
			recs[i] = TimeSeqRecord{FirstTS: ts, Long: long[i], Template: tpl[i], Addr: addr[i]}
			if !long[i] {
				recs[i].RTT = us(stepUS[i])
			}
		}
		a := &Archive{Opts: DefaultOptions(), TimeSeq: recs, Index: IndexConfig{GroupSize: int(groupSize) + 1}}
		cs := a.columnEncoders(recs, new(encodeBuffers))
		var scratch []byte
		c := wire.NewCursor(appendTimeSeq(nil, recs, int(groupSize)+1, &cs.enc, cs.newTemplates, nil, &scratch), ErrBadArchive)
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
// and its new addresses agreeing with the records.
func TestEncodeRecordedOffsetsMatchBody(t *testing.T) {
	for name, tr := range codecWorkloads() {
		t.Run(name, func(t *testing.T) {
			a, err := Compress(tr, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			a.Index = IndexConfig{Enabled: true, GroupSize: 16}
			want, fz := wireForm(a), encodeBytes(t, a)
			r := openReader(t, fz)
			x := r.idx
			if x.shorts != len(a.ShortTemplates) || len(x.shortOffs) != (x.shorts+x.groupSize-1)/x.groupSize ||
				len(x.longOffs) != len(a.LongTemplates) || x.flows != a.Flows() {
				t.Fatalf("index has %d short in %d groups, %d long, %d flows", x.shorts, len(x.shortOffs), len(x.longOffs), x.flows)
			}
			at := func(base, off int64) *wire.Cursor {
				c := wire.NewCursor(fz[base+off:], ErrBadIndex)
				return &c
			}
			for g, off := range x.shortOffs {
				lo := g * x.groupSize
				tpls := make([]flow.Vector, min(x.groupSize, x.shorts-lo))
				if err := r.codec.shortGroup(at(r.shortOff, off), tpls); err != nil || !reflect.DeepEqual(tpls, a.ShortTemplates[lo:lo+len(tpls)]) {
					t.Fatalf("short template group %d does not decode from offset %d: %v", g, off, err)
				}
			}
			for i, off := range x.longOffs {
				lt, _, err := r.codec.longTemplate(at(r.longOff, off))
				if err != nil || !sameLong(lt, want.LongTemplates[i]) {
					t.Fatalf("long template %d does not decode from offset %d: %v", i, off, err)
				}
			}
			for g, gi := range x.groups {
				if gi.startRec != g*16 || gi.count != min(16, a.Flows()-gi.startRec) {
					t.Fatalf("group %d covers records [%d,+%d)", g, gi.startRec, gi.count)
				}
				clock := time.Duration(x.baseUS(g)) * time.Microsecond
				var next [numNew]uint32
				for k, n := range gi.next {
					next[k] = uint32(n)
				}
				recs := make([]TimeSeqRecord, gi.count)
				if err := r.codec.group(at(r.timeseqOff, gi.off), recs, &clock, &next); err != nil {
					t.Fatalf("group %d does not decode from offset %d: %v", g, gi.off, err)
				}
				for k, n := range next {
					if int(n)-gi.next[k] != gi.fresh[k] {
						t.Fatalf("group %d introduces %d new %s, index says %d", g, int(n)-gi.next[k], newNames[k], gi.fresh[k])
					}
				}
				if !slices.Equal(recs, want.TimeSeq[gi.startRec:gi.startRec+gi.count]) {
					t.Fatalf("group %d decodes from offset %d to other records", g, gi.off)
				}
				if first := recs[0].FirstTS; first != time.Duration(gi.firstUS)*time.Microsecond {
					t.Fatalf("group %d starts at %v, index says %d µs", g, first, gi.firstUS)
				}
				if clock != time.Duration(gi.lastUS)*time.Microsecond {
					t.Fatalf("group %d ends at %v, index says %d µs", g, clock, gi.lastUS)
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

// TestShortGroupsPayOnce: where nearly every flow founds a template — the
// distinct shape — a short template pays for its length and its values and
// for nothing else: the short section is at most the two columns' bits, the
// rANS flushes, the section's two counts and, per group of templates, the
// uvarint of its run's length and a byte of padding. A run of its own per
// template paid a length byte and its padding each, and the footer an offset.
func TestShortGroupsPayOnce(t *testing.T) {
	flows := 5000
	if raceEnabled {
		flows = 1500 // matching is quadratic in templates and the detector slows it tenfold
	}
	a, err := Compress(distinctTrace(7, flows), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a.Index = IndexConfig{Enabled: true}
	c := encodeBytes(t, a)
	_, info, err := Inspect(c)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := footerIndex(c)
	section := c[x.sections.Header : x.sections.Header+x.sections.ShortTemplates]
	bits := info.Columns[colShortF].Bits + info.Columns[colShortLen].Bits
	limit := int64(math.Ceil(bits/8)) + info.Flushes.ShortTemplates + int64(uvarintLen(uint32(x.shorts))+uvarintLen(uint32(x.groupSize)))
	for _, off := range x.shortOffs {
		_, k := binary.Uvarint(section[off:])
		limit += int64(k) + 1
	}
	t.Logf("%d short templates in %d groups: %d bytes, %.0f of them column bits, %d flushes", x.shorts, len(x.shortOffs), len(section), bits/8, info.Flushes.ShortTemplates)
	if x.shorts < flows*99/100 || int64(len(section)) > limit {
		t.Errorf("%d short templates take %d bytes, want at most %d", x.shorts, len(section), limit)
	}
}

// TestCompressNumbersTemplatesByFirstUse: every compress path — the serial
// compressor, the pipeline over a trace and over a stream, and its two
// stages — numbers the short templates, and apart
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
		paths := map[string]*Archive{"Compress": serial}
		p, err := NewPipeline(DefaultOptions(), PipelineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if paths["trace"], err = p.Compress(trace.Batches(tr, 0)); err != nil {
			t.Fatal(err)
		}
		if paths["stream"], err = p.Compress(trace.Batches(tr, 128)); err != nil {
			t.Fatal(err)
		}
		if paths["two stages"], err = p.run(trace.Batches(tr, 128), 2); err != nil {
			t.Fatal(err)
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

// TestRANSCountedChoice: columnEncoders picks each f column's rANS form by
// counting. Written both ways here, the form it picked must be the strictly
// smaller one, the column's tables included, and Huffman on a tie; Encode
// must write that form. Across the inputs each column takes each form at
// least once: rANS for the short f of web and distinct and the long f of
// bulk, Huffman for the long f of p2p. The golden archive's short f is near
// the line: Huffman in groups of 16 templates, rANS by 2 B in one group.
func TestRANSCountedChoice(t *testing.T) {
	distinctFlows := 3000
	if raceEnabled {
		distinctFlows = 1500
	}
	archives := map[string]*Archive{}
	for name, tr := range map[string]*trace.Trace{
		"web": webTrace(1, 4000), "bulk": bulkTrace(6, 700), "distinct": distinctTrace(7, distinctFlows), "p2p": p2pTrace(1),
	} {
		a, err := Compress(tr, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		archives[name] = a
	}
	for _, name := range []string{"v9.fz", "v9-indexed.fz", "v9-bulk-indexed.fz"} {
		a, err := Decode(bytes.NewReader(goldenFile(t, name)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		archives[name] = a
	}
	oneGroup := *archives["v9.fz"]
	oneGroup.Index.GroupSize = len(oneGroup.ShortTemplates)
	archives["v9.fz in one group"] = &oneGroup
	picked := map[[2]int]bool{} // by column and form
	for name, a := range archives {
		sections := builtSections(t, a)
		c := a.columnEncoders(sortedTimeSeq(a.TimeSeq), new(encodeBuffers))
		for i, col := range ransColumns {
			h := wire.NewContextHistogram(columns[col].contexts)
			write := func(w *coders) []byte { return appendLongTemplates(nil, a.LongTemplates, w, nil) }
			if col == colShortF {
				for _, v := range a.ShortTemplates {
					h.AddChain(v)
				}
				write = func(w *coders) []byte {
					return appendShortTemplates(nil, a.ShortTemplates, a.Index.groupSize(), w, nil, new([]byte))
				}
			} else {
				for _, lt := range a.LongTemplates {
					h.AddChain(lt.F)
				}
			}
			var size [2]int
			var written [2][]byte
			w := *c
			for form := range written {
				w.tpl[col] = h.Encoder(form == 1)
				w.rans[col] = w.tpl[col].RANS()
				written[form] = write(&w)
				size[form] = len(written[form]) + len(w.tpl[col].AppendTables(nil))
			}
			rans := w.rans[col] // the rANS candidate has an rANS table
			want := 0
			if rans && size[1] < size[0] {
				want = 1
			}
			t.Logf("%s, %s: %d B Huffman, %d B rANS (rANS tables: %v), picked rANS: %v", name, columns[col].what, size[0], size[1], rans, c.rans[col])
			if c.rans[col] != (want == 1) {
				t.Errorf("%s, %s: counting picked rANS %v; written, the section and its tables take %d B Huffman and %d B rANS",
					name, columns[col].what, c.rans[col], size[0], size[1])
			}
			if !bytes.Equal(sections[1+i], written[want]) {
				t.Errorf("%s, %s: Encode wrote %d bytes that differ from the %d of the smaller form", name, columns[col].what, len(sections[1+i]), len(written[want]))
			}
			picked[[2]int{col, want}] = true
		}
	}
	for _, col := range ransColumns {
		if !picked[[2]int{col, 0}] || !picked[[2]int{col, 1}] {
			t.Errorf("%s: the inputs do not pick both forms", columns[col].what)
		}
	}
}

// longSections returns the long-template section Encode writes for a, with
// the header's flags byte, and the same section written with the gaps coded
// as they are without flagRTTGaps: the layout columnEncoders keeps when
// counting finds the RTTs do not pay.
func longSections(t *testing.T, a *Archive) (written []byte, flags byte, unpredicted []byte) {
	t.Helper()
	sections := builtSections(t, a)
	written, flags = sections[2], sections[0][len(magic)+1]
	c := a.columnEncoders(sortedTimeSeq(a.TimeSeq), new(encodeBuffers))
	plain, h := newGapModel(a.Opts.Weights, false), wire.NewContextHistogram(fValues)
	for i := range a.LongTemplates {
		plain.walk(&a.LongTemplates[i], appendGapsUS(nil, &a.LongTemplates[i]), 0, h.Add)
	}
	c.tpl[colGap], c.gaps = h.Encoder(false), plain
	return written, flags, appendLongTemplates(nil, a.LongTemplates, c, nil)
}

// TestLongGapsPredictedFromRTT: on a Web mix a long flow's dependent gaps sit
// within a few percent of the flow's RTT, so coding each against the RTT its
// template leads with takes the long-template section at least a tenth below
// the same section with every gap coded alone. The archive round-trips.
func TestLongGapsPredictedFromRTT(t *testing.T) {
	a, err := Compress(webTrace(1, 4000), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	written, flags, unpredicted := longSections(t, a)
	t.Logf("%d long templates: %d bytes with RTT-coded gaps, %d without", len(a.LongTemplates), len(written), len(unpredicted))
	if flags&flagRTTGaps == 0 || 10*len(written) > 9*len(unpredicted) {
		t.Errorf("%d long templates take %d bytes (flags %#x), %d with the gaps coded alone: want at least a tenth less", len(a.LongTemplates), len(written), flags, len(unpredicted))
	}
	d, err := Decode(bytes.NewReader(encodeBytes(t, a)))
	if err != nil {
		t.Fatal(err)
	}
	sameArchive(t, "Decode", d, wireForm(a))
}

// TestRTTGapsCountedChoice: where a flow's dependent gaps are bimodal — every
// flow's alternate between 1 ms and 9 ms, some with more of the one, some of
// the other — the median RTT leaves residuals of three values where the gaps
// have two, and counting keeps the flag off: the section is the bytes of the
// unpredicted layout.
func TestRTTGapsCountedChoice(t *testing.T) {
	const dep, nondep = 53, 59 // an empty ack that waits on its peer, a data segment that does not
	a := &Archive{Opts: DefaultOptions(), Addresses: []pkt.IPv4{0x0a000001}}
	for k := range 20 {
		lt := LongTemplate{F: flow.Vector{21}}
		ones := 16 - 2*(k%2) // of 30 dependent gaps, 16 or 14 of 1 ms
		for i := range 60 {
			if i%2 == 0 {
				lt.F, lt.Gaps = append(lt.F, nondep), append(lt.Gaps, packGaps(120*time.Microsecond)...)
				continue
			}
			g := 9 * time.Millisecond
			if i/2 < ones {
				g = time.Millisecond
			}
			lt.F, lt.Gaps = append(lt.F, dep), append(lt.Gaps, packGaps(g)...)
		}
		a.LongTemplates = append(a.LongTemplates, lt)
		a.TimeSeq = append(a.TimeSeq, TimeSeqRecord{FirstTS: time.Duration(k) * time.Second, Long: true, Template: uint32(k)})
	}
	written, flags, unpredicted := longSections(t, a)
	if flags&flagRTTGaps != 0 || !bytes.Equal(written, unpredicted) {
		t.Errorf("flags %#x: the section takes %d bytes, %d in the unpredicted layout", flags, len(written), len(unpredicted))
	}
	// The RTTs, counted alone, would have cost more.
	c := a.columnEncoders(a.TimeSeq, new(encodeBuffers))
	rtt, h := newGapModel(a.Opts.Weights, true), wire.NewContextHistogram(fValues)
	var scratch []uint64
	for i := range a.LongTemplates {
		lt := &a.LongTemplates[i]
		g := appendGapsUS(nil, lt)
		rtt.walk(lt, g, rtt.templateRTT(lt, g, &scratch), h.Add)
	}
	if p, u := h.Encoder(false).Cost(), c.tpl[colGap].Cost(); p <= u {
		t.Errorf("the RTT-coded gap column costs %d/65536 bits, the unpredicted one %d", p, u)
	}
}

// rttExtremes is an archive whose two long templates code their dependent
// gaps against their RTTs with residuals of both signs reaching both ends of
// the range: one's RTT is the largest gap a duration holds and one of its
// gaps 0, the other's RTT 0 and one of its gaps the largest. Most dependent
// gaps equal the RTT, so the flag pays many times over.
func rttExtremes() *Archive {
	const dep, nondep = 53, 59
	top := time.Duration(maxIndexUS) * time.Microsecond
	a := &Archive{Opts: DefaultOptions(), Addresses: []pkt.IPv4{0x0a000001}}
	for k, gaps := range [2][]time.Duration{
		slices.Concat([]time.Duration{0}, slices.Repeat([]time.Duration{top}, 20), []time.Duration{top - 5*time.Microsecond, top - time.Microsecond}),
		slices.Concat([]time.Duration{top}, slices.Repeat([]time.Duration{0}, 20), []time.Duration{time.Microsecond, 5 * time.Microsecond}),
	} {
		lt := LongTemplate{F: flow.Vector{21}}
		for _, g := range gaps {
			lt.F, lt.Gaps = append(lt.F, dep, nondep), append(lt.Gaps, packGaps(g, 300*time.Microsecond)...)
		}
		a.LongTemplates = append(a.LongTemplates, lt)
		a.TimeSeq = append(a.TimeSeq, TimeSeqRecord{FirstTS: time.Duration(k) * time.Second, Long: true, Template: uint32(k)})
	}
	return a
}

// TestRTTGapsRoundTrip: the extremes of rttExtremes come back exactly through
// Decode and a Reader; a residual or an RTT one past them does
// not decode, the RTT refused before the template's gaps are made, and
// neither does an RTT whose context, 0, has no table.
func TestRTTGapsRoundTrip(t *testing.T) {
	a := rttExtremes()
	var scratch []uint64
	m := newGapModel(a.Opts.Weights, true)
	rtt := func(t *LongTemplate) uint64 { return m.templateRTT(t, appendGapsUS(nil, t), &scratch) }
	if r0, r1 := rtt(&a.LongTemplates[0]), rtt(&a.LongTemplates[1]); r0 != maxIndexUS || r1 != 0 {
		t.Fatalf("the templates' RTTs are %d and %d", r0, r1)
	}
	a.Index = IndexConfig{Enabled: true}
	c := encodeBytes(t, a)
	if c[len(magic)+1]&flagRTTGaps == 0 {
		t.Fatalf("flags %#x: the RTTs are not coded", c[len(magic)+1])
	}
	d, err := Decode(bytes.NewReader(c))
	if err != nil {
		t.Fatal(err)
	}
	sameArchive(t, "Decode", d, wireForm(a))
	want, err := Decompress(wireForm(a))
	if err != nil {
		t.Fatal(err)
	}
	readPaths(t, "the RTT extremes", c, want)
	// Written past Validate: an RTT one past a duration, and a residual that
	// rebuilds a gap of -1µs.
	for name, tc := range map[string]struct {
		spoil func(a *Archive, cs *coders)
		why   string
	}{
		"an RTT past a duration": {func(_ *Archive, cs *coders) { cs.rtts[0] = maxIndexUS + 1 }, "long template rtt 9223372036854776µs overflows"},
		"a negative gap":         {func(a *Archive, _ *coders) { setGap(&a.LongTemplates[1], 2, -time.Microsecond) }, "long template gap 2 of -1µs is not 0 to"},
	} {
		a := rttExtremes()
		cs := a.columnEncoders(a.TimeSeq, new(encodeBuffers))
		tc.spoil(a, cs)
		h := wire.NewContextHistogram(fValues)
		cs.us = cs.us[:0] // the gaps as spoiled, for both the table and the run
		for i := range a.LongTemplates {
			us := appendGapsUS(nil, &a.LongTemplates[i])
			cs.gaps.walk(&a.LongTemplates[i], us, cs.rtts[i], h.Add)
			cs.us = append(cs.us, us...)
		}
		cs.tpl[colGap] = h.Encoder(false)
		hc := wire.NewCursor(appendHeader(nil, a, 0, cs), ErrBadArchive)
		sc, err := decodeHeader(&hc, &Archive{})
		if err != nil {
			t.Fatal(err)
		}
		lc := wire.NewCursor(appendLongTemplates(nil, a.LongTemplates, cs, nil), ErrBadArchive)
		_, err = sc.longTemplates(&lc)
		rejectedAs(t, name, err, ErrBadArchive)
		if !strings.Contains(err.Error(), tc.why) {
			t.Errorf("%s: %v, want %q", name, err, tc.why)
		}
	}
	noRTT := withTable(t, c, colGap, withoutContext(a, colGap, 0, false).AppendTables(nil))
	_, err = Decode(bytes.NewReader(noRTT))
	rejectedAs(t, "an RTT without a table (Decode)", err, ErrBadArchive)
	if !strings.Contains(err.Error(), "has no table") {
		t.Errorf("an RTT without a table: %v", err)
	}
	_, err = openReader(t, noRTT).ExtractFlows(FlowFilter{})
	rejectedAs(t, "an RTT without a table (ExtractFlows)", err, ErrBadIndex)
	for v, ok := range map[uint64]bool{zigzag(-int64(maxIndexUS)): true, zigzag(-int64(maxIndexUS) - 1): false} {
		if _, got := m.gap(53, v, maxIndexUS); got != ok {
			t.Errorf("residual %d under an RTT of %d: decodes %v", unzigzag(v), maxIndexUS, got)
		}
	}
	for v, ok := range map[uint64]bool{zigzag(int64(maxIndexUS)): true, zigzag(int64(maxIndexUS) + 1): false, zigzag(-1): false} {
		if _, got := m.gap(53, v, 0); got != ok {
			t.Errorf("residual %d under an RTT of 0: decodes %v", unzigzag(v), got)
		}
	}
}

// TestUpperMedian: the selection templateRTT finds a long template's RTT with
// is the upper median a sort gives, on values with and without repeats.
func TestUpperMedian(t *testing.T) {
	if err := quick.Check(func(v []uint64, mod uint8) bool {
		for i := range v {
			v[i] %= uint64(mod) + 1 // from all alike to all distinct
		}
		if len(v) == 0 {
			return true
		}
		sorted := slices.Sorted(slices.Values(v))
		return upperMedian(slices.Clone(v)) == sorted[len(v)/2]
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
