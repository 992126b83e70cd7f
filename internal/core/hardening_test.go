package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"flowzip/internal/alloctest"
	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/trace"
	"flowzip/internal/wire"
)

// zeroWeightHeader is the start of a header whose weights are the ones given:
// magic, version, flags and the header's uvarints, which the options gate
// refuses before any table is read when a weight is zero.
func zeroWeightHeader(w flow.Weights) []byte {
	a := &Archive{Opts: DefaultOptions()}
	a.Opts.Weights = w
	return appendHeaderFields(nil, a, 0)
}

// TestDecodeRejectsZeroWeights pins the options gate on the decode path: a
// tampered header carrying a zero weight would divide by zero inside
// Weights.Decompose on the first decompression, so Decode must reject it.
func TestDecodeRejectsZeroWeights(t *testing.T) {
	for _, w := range []flow.Weights{{Dep: 4, Size: 1}, {Flag: 16, Size: 1}, {Flag: 16, Dep: 4}, {}} {
		_, err := Decode(bytes.NewReader(zeroWeightHeader(w)))
		rejectedAs(t, fmt.Sprintf("weights %v", w), err, ErrBadArchive)
		if !strings.Contains(err.Error(), "weight") {
			t.Fatalf("weights %v: %v, want the weights named", w, err)
		}
	}
}

// timeSeqColumns are the columns of a time-seq record, in the order it is
// written.
var timeSeqColumns = [4]int{colDelta, colTag, colRTT, colAddr}

// hostileTimeSeq is a time-seq section as the values its columns hold, each
// record's in timeSeqColumns order (an rtt is written for a short flow's tag
// alone), and the columns whose header tables are left empty: a time-seq
// column's values are then not written, while colShortLen's one value, the
// short template's length, stays in the short template section.
type hostileTimeSeq struct {
	recs  [][4]uint64
	empty []int
}

// oneFlow is the one in-range record hostileRecords builds around: 5 µs in,
// short template 0, an rtt of 7 µs, the next new address.
var oneFlow = hostileTimeSeq{recs: [][4]uint64{{5, 0, 7, 0}}}

// hostileRecords returns a container of one short template, {1, 2}, one
// address and the time-seq section h, in one group, each of its columns under
// a table built from the values h gives it: a class table reaches past its
// column's largest value, so a value may be one no record holds. It returns
// the five body sections, in file order, and the container
// with a footer that describes its body as faithfully as a footer can, so
// that the records reach Reader.loadGroup.
func hostileRecords(h hostileTimeSeq) (sections [][]byte, indexed []byte) {
	a := &Archive{Opts: DefaultOptions(), ShortTemplates: []flow.Vector{{1, 2}}, Addresses: []pkt.IPv4{0x0a000001},
		Index: IndexConfig{GroupSize: max(len(h.recs), 1)}}
	gs := a.Index.groupSize()
	c := a.columnEncoders(nil, new(encodeBuffers))
	c.newTemplates = false
	idx := newArchiveIndex(a, len(h.recs), false)
	short := appendShortTemplates(nil, a.ShortTemplates, gs, c, idx, new([]byte))
	var hist [numColumns]wire.Histogram
	for _, r := range h.recs {
		for i, col := range timeSeqColumns {
			if col != colRTT || r[1]&1 == 0 {
				hist[col].Add(r[i])
			}
		}
	}
	for _, col := range timeSeqColumns {
		c.enc[col] = hist[col].Encoder(false)
	}
	for _, col := range h.empty {
		c.enc[col] = new(wire.Histogram).Encoder(false)
	}
	w := wire.NewRunWriter(false)
	w.Start(nil)
	clock := uint64(0)
	for i, r := range h.recs {
		for j, col := range timeSeqColumns {
			if (col != colRTT || r[1]&1 == 0) && !slices.Contains(h.empty, col) {
				c.enc[col].Put(&w, r[j])
			}
		}
		clock = min(clock+r[0], maxIndexUS)
		idx.addRecord(i, 0, clock, 0)
		if r[3] == 0 {
			idx.groups[0].fresh[newAddr]++
		}
	}
	run := w.EndRun(len(h.recs))
	ts := binary.AppendUvarint(binary.AppendUvarint(nil, uint64(len(h.recs))), uint64(gs))
	if len(idx.groups) > 0 {
		idx.groups[0].off = int64(len(ts))
	}
	ts = append(binary.AppendUvarint(ts, uint64(len(run))), run...)
	sections = [][]byte{appendHeader(nil, a, 0, c), short, appendLongTemplates(nil, nil, c, idx), appendAddresses(nil, a.Addresses), ts}
	idx.sections = sectionSizes(sections)
	indexed = bytes.Join(slices.Concat([][]byte{appendHeader(nil, a, flagIndexed, c)}, sections[1:]), nil)
	return sections, append(indexed, appendTrailer(idx.appendPayload(nil))...)
}

// sectionSizes is the sizes of the five body sections given in file order.
func sectionSizes(sections [][]byte) SectionSizes {
	return SectionSizes{Header: int64(len(sections[0])), ShortTemplates: int64(len(sections[1])),
		LongTemplates: int64(len(sections[2])), Addresses: int64(len(sections[3])), TimeSeq: int64(len(sections[4]))}
}

// hostileSections are time-seq sections whose values do not fit where they
// are stored, or whose columns hold values under an empty table, and a short
// template section whose length column is empty.
var hostileSections = map[string]hostileTimeSeq{
	"time-seq delta overflow":   {recs: [][4]uint64{{maxIndexUS + 1, 0, 7, 0}}},
	"time-seq clock overflow":   {recs: [][4]uint64{{maxIndexUS, 0, 7, 0}, {maxIndexUS, 0, 7, 1}}},
	"time-seq rtt overflow":     {recs: [][4]uint64{{5, 0, maxIndexUS + 1, 0}}},
	"time-seq address overflow": {recs: [][4]uint64{{5, 0, 7, math.MaxUint32 + 2}}},
	"empty delta table":         {recs: oneFlow.recs, empty: []int{colDelta}},
	"empty tag table":           {recs: oneFlow.recs, empty: []int{colTag}},
	"empty address table":       {recs: oneFlow.recs, empty: []int{colAddr}},
	"empty rtt table":           {recs: oneFlow.recs, empty: []int{colRTT}},
	"empty length table":        {recs: oneFlow.recs, empty: []int{colShortLen}},
}

// rejectedAs fails the test unless err is a labelled instance of one of the
// sentinels.
func rejectedAs(t testing.TB, name string, err error, sentinels ...error) {
	t.Helper()
	if !slices.ContainsFunc(sentinels, func(s error) bool { return errors.Is(err, s) }) {
		t.Fatalf("%s: err = %v, want %v", name, err, sentinels)
	}
	if strings.Contains(err.Error(), "<nil>") {
		t.Fatalf("%s: error %q hides its cause", name, err)
	}
}

// TestDecodeRejectsHugeCounts pins the field bounds: counts beyond maxCount
// and values beyond the field they fill, or written under an empty table, are
// rejected as ErrBadArchive, named. (A template tag cannot overflow its
// field: the tag column's class tables end at 1<<33 - 1, whose template
// index, the tag>>1, is a uint32.)
func TestDecodeRejectsHugeCounts(t *testing.T) {
	valid, _ := hostileRecords(oneFlow)
	if _, err := decodeArchive(bytes.Join(valid, nil)); err != nil {
		t.Fatalf("the in-range one-flow container was rejected: %v", err)
	}
	huge := binary.AppendUvarint(nil, maxCount+1)
	with := func(i int, section ...[]byte) []byte {
		sections := slices.Clone(valid)
		sections[i] = slices.Concat(section...)
		return bytes.Join(sections, nil)
	}
	flags := slices.Clone(valid[0])
	flags[len(magic)+1] |= flagRTTGaps << 1
	cases := map[string][]byte{
		"unknown flags":               with(0, flags),
		"header field overflow":       with(0, magic[:], []byte{containerVersion, 0}, binary.AppendUvarint(nil, math.MaxInt32+1)),
		"short count":                 with(1, huge),
		"short template group size":   with(1, []byte{1, 0}),
		"short template group length": with(1, []byte{1, 1}, huge),
		"long count":                  with(2, huge),
		"long template length":        with(2, []byte{1}, huge),
		"address count":               with(3, huge),
		"time-seq count":              with(4, huge, valid[4][1:]),
		"time-seq group size":         with(4, []byte{1}, huge),
	}
	for name, h := range hostileSections {
		sections, _ := hostileRecords(h)
		cases[name] = bytes.Join(sections, nil)
	}
	for name, input := range cases {
		_, err := Decode(bytes.NewReader(input))
		rejectedAs(t, name, err, ErrBadArchive)
	}
}

// TestReaderRejectsOverflowingRecords is the indexed read path's share of
// TestDecodeRejectsHugeCounts: the same sections, behind a faithful footer,
// fail the query that touches them with ErrBadIndex.
func TestReaderRejectsOverflowingRecords(t *testing.T) {
	_, valid := hostileRecords(oneFlow)
	if tr, err := openReader(t, valid).ExtractFlows(FlowFilter{}); err != nil || tr.Len() != 2 {
		t.Fatalf("the in-range one-flow container extracted %v, %v", tr, err)
	}
	for name, h := range hostileSections {
		_, c := hostileRecords(h)
		_, err := openReader(t, c).ExtractFlows(FlowFilter{})
		rejectedAs(t, name, err, ErrBadIndex)
	}
}

// footerIndex parses the footer index of the indexed container c and returns
// it with the length of the body in front of it.
func footerIndex(c []byte) (*archiveIndex, int) {
	bodyLen := len(c) - trailerLen - int(binary.LittleEndian.Uint32(c[len(c)-8:]))
	x, err := parseArchiveIndex(c[bodyLen:len(c)-trailerLen], int64(len(c)), c[len(magic)+1]&flagNewTemplates != 0)
	if err != nil {
		panic(err)
	}
	return x, bodyLen
}

// resigned returns body followed by x, written and signed.
func resigned(body []byte, x *archiveIndex) []byte {
	return append(slices.Clone(body), appendTrailer(x.appendPayload(nil))...)
}

// hugeGroupCount returns c with a re-signed footer whose group 0 claims as
// many of n records over the few bytes it has as a footer can, so that the
// footer parses and the lie reaches the Reader. A footer derives a group's
// count from the group size and holds the flow count to what the time-seq
// section can hold, so the lie is the largest it can tell: one group of as
// many records as that, at most n, and short template groups of as many
// templates.
func hugeGroupCount(c []byte, n int) []byte {
	x, bodyLen := footerIndex(c)
	n = min(n, wire.MaxItemsPerByte*int(x.sections.TimeSeq))
	x.groups, x.groupSize, x.flows = x.groups[:1], n, n
	x.shorts = min(x.shorts, n*len(x.shortOffs))
	x.shortOffs = x.shortOffs[:(x.shorts+n-1)/n]
	for i, p := range x.postings {
		if len(p) > 0 {
			x.postings[i] = []uint32{0}
		}
	}
	return resigned(c[:bodyLen], x)
}

// mostGroups returns the indexed version 9 container c with a re-signed
// footer claiming as many templates and groups as its body sections admit:
// templates, and groups of one short template, at every byte of their
// sections, one-record groups at every byte of the time-seq section, none
// with a timestamp or a new symbol, and one
// address whose list is group 0. Every footer column is one symbol wide, so
// the footer's run is empty, and what a Reader allocates for it is bounded by
// the sections alone.
func mostGroups(c []byte) []byte {
	x, bodyLen := footerIndex(c)
	every := func(sectionLen int64) []int64 {
		offs := make([]int64, sectionLen-1)
		for i := range offs {
			offs[i] = int64(i + 1)
		}
		return offs
	}
	x.shortOffs, x.longOffs = every(x.sections.ShortTemplates), every(x.sections.LongTemplates)
	x.shorts = len(x.shortOffs)
	x.groups = make([]groupInfo, x.sections.TimeSeq-1)
	for i := range x.groups {
		x.groups[i] = groupInfo{off: int64(i + 1), count: 1, startRec: i}
	}
	x.groupSize, x.flows, x.postings = 1, len(x.groups), [][]uint32{{0}}
	return resigned(c[:bodyLen], x)
}

// flippedGroupByte returns c with the first body byte of flow group g
// inverted — the first record's timestamp delta, so the group no longer
// starts where the footer says. No checksum covers the body.
func flippedGroupByte(c []byte, g int) []byte {
	x, _ := footerIndex(c)
	s := x.sections
	c = slices.Clone(c)
	c[s.Header+s.ShortTemplates+s.LongTemplates+s.Addresses+x.groups[g].off] ^= 0xff
	return c
}

// TestReaderCorruptGroupNotCached: a group that fails validation is not
// kept, so every query touching it fails, the first time and again, while
// queries confined to other groups answer what a clean Reader answers.
func TestReaderCorruptGroupNotCached(t *testing.T) {
	fz, _ := corruptionContainer(t)
	clean := openReader(t, fz)
	bad := len(clean.idx.groups) / 2
	r := openReader(t, flippedGroupByte(fz, bad))
	gi := clean.idx.groups[bad]
	before := FlowFilter{To: time.Duration(gi.firstUS) * time.Microsecond}
	after := FlowFilter{From: time.Duration(gi.lastUS+1) * time.Microsecond}
	touching := FlowFilter{From: time.Duration(gi.firstUS) * time.Microsecond, To: time.Duration(gi.lastUS+1) * time.Microsecond}
	for round := 0; round < 2; round++ {
		for _, f := range []FlowFilter{{}, touching} {
			_, err := r.ExtractFlows(f)
			rejectedAs(t, fmt.Sprintf("round %d, filter %+v over the corrupt group", round, f), err, ErrBadIndex)
		}
		for _, f := range []FlowFilter{before, after} {
			want, err := clean.ExtractFlows(f)
			if err != nil || want.Len() == 0 {
				t.Fatalf("clean Reader, filter %+v: %v, %v", f, want, err)
			}
			got, err := r.ExtractFlows(f)
			if err != nil {
				t.Fatalf("round %d, filter %+v beside the corrupt group: %v", round, f, err)
			}
			samePackets(t, fmt.Sprintf("round %d, filter %+v", round, f), got.Packets, want.Packets)
		}
	}
	if r.groupRecs[bad] != nil {
		t.Fatal("the corrupt group's records were kept")
	}
}

// TestReaderCorruptShortGroupNotCached: short templates load by their group,
// and a group whose bytes do not decode is not kept — none of its templates —
// so every query that needs one of them fails, the first time and again,
// while a query needing only other groups' templates answers what a clean
// Reader answers.
func TestReaderCorruptShortGroupNotCached(t *testing.T) {
	a, err := Compress(webTrace(26, 2000), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a.Index = IndexConfig{Enabled: true, GroupSize: 16}
	c := encodeBytes(t, a)
	clean := openReader(t, c)
	x := clean.idx
	bad := len(x.shortOffs) / 2
	if bad == 0 {
		t.Fatalf("%d short templates make one group", x.shorts)
	}
	broken := slices.Clone(c)
	broken[x.sections.Header+x.shortOffs[bad]] = 0 // the group's run length
	r := openReader(t, broken)
	// Templates are numbered by first use, so the records in front of the
	// first to name the bad group's first template name earlier groups' only.
	recs := wireForm(a).TimeSeq
	first := slices.IndexFunc(recs, func(rec TimeSeqRecord) bool { return !rec.Long && int(rec.Template) == bad*16 })
	ts := recs[first].FirstTS
	before, touching := FlowFilter{To: ts}, FlowFilter{From: ts, To: ts + time.Microsecond}
	for round := 0; round < 2; round++ {
		_, err := r.ExtractFlows(touching)
		rejectedAs(t, fmt.Sprintf("round %d, a flow of the corrupt group", round), err, ErrBadIndex)
		if !strings.Contains(err.Error(), fmt.Sprintf("short template group %d", bad)) {
			t.Fatalf("round %d: %v", round, err)
		}
		want, err := clean.ExtractFlows(before)
		if err != nil || want.Len() == 0 {
			t.Fatalf("clean Reader, filter %+v: %v, %v", before, want, err)
		}
		got, err := r.ExtractFlows(before)
		if err != nil {
			t.Fatalf("round %d, filter %+v: %v", round, before, err)
		}
		samePackets(t, fmt.Sprintf("round %d, filter %+v", round, before), got.Packets, want.Packets)
	}
	if templatesHeld(t, r); r.shortLoaded[bad] {
		t.Fatal("the corrupt short template group was kept")
	}
}

// TestDecodeRejectsTampering holds Decode to the tampering the tests above do
// not reach: a header relabeled as an older version, refused naming the last
// commit that reads it, and a time-seq section cut in half. Either must be
// rejected, not decoded into an archive that fails later.
func TestDecodeRejectsTampering(t *testing.T) {
	a, err := Compress(webTrace(42, 80), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sizes, err := a.Encode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c := buf.Bytes()
	t.Run("version 3 to 8 header", func(t *testing.T) {
		for v := byte(3); v < containerVersion; v++ {
			_, err := Decode(bytes.NewReader(relabeled(c, v)))
			rejectedAs(t, fmt.Sprintf("version %d header", v), err, ErrBadArchive)
			if !strings.Contains(err.Error(), "8514c3f is the last to read versions 3 to 5") {
				t.Fatalf("version %d header: %v", v, err)
			}
		}
	})
	t.Run("truncated time-seq", func(t *testing.T) {
		_, err := Decode(bytes.NewReader(c[:sizes.Total()-sizes.TimeSeq/2]))
		rejectedAs(t, "truncated time-seq", err, ErrBadArchive)
	})
}

// The column-coded container (version 9): counts are bounded by the bytes of
// the run they describe even when every code is zero bits long, and a table
// that is not a complete prefix code within the limits never becomes a lookup
// table.

// oneSymbolArchive has every column one symbol wide, so every code is zero
// bits long and the run padding — a byte per wire.MaxItemsPerByte items — is
// all that stands between a count and the allocation sized from it.
func oneSymbolArchive(flows int) *Archive {
	return &Archive{
		Opts:           DefaultOptions(),
		ShortTemplates: []flow.Vector{bytes.Repeat([]byte{7}, 40)},
		LongTemplates:  []LongTemplate{{F: bytes.Repeat([]byte{9}, 400), Gaps: packGaps(slices.Repeat([]time.Duration{time.Millisecond}, 399)...)}},
		Addresses:      []pkt.IPv4{0x0a000001},
		TimeSeq:        slices.Repeat([]TimeSeqRecord{{}}, flows),
	}
}

// maxGapArchive is one long template of n packets whose every gap is
// maxIndexUS µs, the largest a decode rebuilds: over one-symbol tables each
// gap costs zero bits of the container and maxGapBytes of the decoded run.
func maxGapArchive(n int) *Archive {
	top := time.Duration(maxIndexUS) * time.Microsecond
	return &Archive{
		Opts:          DefaultOptions(),
		LongTemplates: []LongTemplate{{F: bytes.Repeat([]byte{9}, n), Gaps: packGaps(slices.Repeat([]time.Duration{top}, n-1)...)}},
		Addresses:     []pkt.IPv4{0x0a000001},
		TimeSeq:       []TimeSeqRecord{{Long: true}},
	}
}

// TestDecodeMaxGapsBounded: gaps that cost the container nothing but the run
// padding and each decode to maxGapBytes still decode within decodeAlloc's
// bound, through Decode and through a Reader that loads the template; and
// appendGapsUS reads them allocating nothing (a wire.Uvarints that did not
// inline into its loop would allocate its closure on every call).
func TestDecodeMaxGapsBounded(t *testing.T) {
	a := maxGapArchive(4000)
	a.Index.Enabled = true
	input := encodeBytes(t, a)
	if len(input) > 1500 {
		t.Fatalf("4 000 zero-bit gaps took %d bytes", len(input))
	}
	var d *Archive
	var err error
	decodeAlloc(t, "Decode", input, func() { d, err = Decode(bytes.NewReader(input)) })
	if err != nil || len(d.LongTemplates[0].Gaps) != maxGapBytes*3999 || cap(d.LongTemplates[0].Gaps) != maxGapBytes*3999 {
		t.Fatalf("Decode: %v", err)
	}
	sameArchive(t, "Decode", d, wireForm(a))
	us := make([]uint64, 0, 3999)
	if n := testing.AllocsPerRun(10, func() { us = appendGapsUS(us[:0], &d.LongTemplates[0]) }); n != 0 || len(us) != 3999 || us[0] != maxIndexUS {
		t.Errorf("appendGapsUS made %.0f allocations for %d gaps", n, len(us))
	}
	var r *Reader
	decodeAlloc(t, "OpenReader and a template load", input, func() {
		if r, err = OpenReader(bytes.NewReader(input), int64(len(input))); err == nil {
			err = r.loadTemplateRuns([]int{0}, r.idx.longOffs, r.longOff, r.idx.sections.LongTemplates, r.parseLong)
		}
	})
	if err != nil || !sameLong(r.arch.LongTemplates[0], d.LongTemplates[0]) {
		t.Fatalf("the Reader's template: %v", err)
	}
}

// allocBombs are inputs whose counts their bytes cannot hold, each refused
// before the make, and short enough that decodeAlloc's bound on it is under
// 1 MiB. body holds the ones refused as ErrBadArchive: counts of maxCount a
// few bytes before EOF, which before the fix together allocated ~20 GB of
// slice headers; and over one-symbol tables, where no code would ever run the
// input out, the short templates', a long template's and the time-seq
// section's counts raised to maxCount, and a short template's length, which
// a header may let reach 1<<31 - 1, coded in a group of four bytes. footer
// holds the ones refused as ErrBadIndex: 1<<28 addresses or postings, 1<<20
// short templates and a flow count of 1<<28 over one-symbol footer tables —
// an address list is bounded by the address section, a template by its
// section, a posting by the flow count, which the time-seq section bounds.
func allocBombs(tb testing.TB) (body, footer map[string][]byte) {
	tb.Helper()
	valid, _ := hostileRecords(oneFlow)
	truncated := func(counts ...uint64) []byte {
		b := slices.Clone(valid[0])
		for _, n := range counts {
			b = binary.AppendUvarint(b, n)
		}
		return b
	}
	a := oneSymbolArchive(100)
	sections := builtSections(tb, a)
	if got := len(sections[1]) + len(sections[2]) + len(sections[4]); got > 140 {
		tb.Fatalf("the one-symbol sections take %d bytes, want padding only", got)
	}
	huge := binary.AppendUvarint(nil, maxCount)
	// withLength is a's header with the short-flow maximum given and a length
	// column of the one length given: a class table for 1<<30, which is class
	// 31 and its 30 low bits.
	withLength := func(length uint64, shortMax int) []byte {
		b := *a
		b.Opts.ShortMax = shortMax
		cs := b.columnEncoders(sortedTimeSeq(b.TimeSeq), new(encodeBuffers))
		var h wire.Histogram
		h.Add(length)
		cs.enc[colShortLen] = h.Encoder(false)
		return appendHeader(nil, &b, sections[0][len(magic)+1], cs)
	}
	body = map[string][]byte{
		"short templates":  truncated(maxCount),
		"short group size": truncated(1, maxCount),
		"long vector":      truncated(0, 1, 1, maxCount),
		"addresses":        truncated(0, 1, 0, maxCount),
		"time-seq":         truncated(0, 1, 0, 0, maxCount),
	}
	for name, parts := range map[string][][]byte{
		"short template count":         {sections[0], slices.Concat(huge, []byte{1}), sections[2], sections[3], sections[4]},
		"short template group length":  {sections[0], slices.Concat([]byte{1, 1}, huge), sections[2], sections[3], sections[4]},
		"short template length":        {withLength(1<<30, math.MaxInt32), []byte{1, 1, 4, 0, 0, 0, 0}, sections[2], sections[3], sections[4]},
		"short template of no packets": {withLength(0, 50), []byte{1, 1, 1, 0}, sections[2], sections[3], sections[4]},
		"long template length":         {sections[0], sections[1], append([]byte{1}, huge...), sections[3], sections[4]},
		"time-seq count":               {sections[0], sections[1], sections[2], sections[3], append(slices.Clone(huge), sections[4][1:]...)},
	} {
		body[name] = bytes.Join(parts, nil)
	}
	for name, input := range body {
		_, err := decodeArchive(input)
		rejectedAs(tb, name, err, ErrBadArchive)
		if why := map[string]string{"short template length": "items in a 4-byte group", "short template of no packets": "of 0 packets"}[name]; !strings.Contains(err.Error(), why) {
			tb.Errorf("%s: %v, want %q", name, err, why)
		}
	}

	// The footer: one group, one template of each kind and the postings of
	// one address, over one-symbol tables — the short template group's offset
	// 3 (past the template count and the group size), the long template's 1,
	// the time-seq group's 3 (past the record count and the group size), its
	// timestamps 0 and its new address 1, every list one long, from group 0,
	// with no gaps — so the footer's run is empty; then the same tables under
	// the bombs' counts.
	a.Index = IndexConfig{Enabled: true}
	c := encodeBytes(tb, a)
	x, bodyLen := footerIndex(c)
	one := func(v uint64) []byte { return columnTable(0, [2]uint64{v, 0}) }
	withPostings := func(x *archiveIndex, addrs, postings int) []byte {
		p := slices.Concat(x.appendHead(nil, addrs, postings, predPrevious), one(3), one(1), one(3), one(0), one(0), one(1),
			one(1), one(0), columnTable(0))
		return append(bytes.Clone(c[:bodyLen]), appendTrailer(p)...)
	}
	if valid := withPostings(x, 1, 1); !bytes.Equal(valid, c) {
		tb.Fatal("the hand-written footer is not the one Encode wrote")
	}
	manyFlows := *x
	manyFlows.flows = maxCount
	// The head ends in the counts of short templates, long templates,
	// addresses and postings, one byte each here, and the prediction.
	p := c[bodyLen : len(c)-trailerLen]
	at := len(x.appendHead(nil, 1, 1, predPrevious)) - 5
	p = slices.Concat(p[:at], binary.AppendUvarint(nil, 1<<20), p[at+1:])
	footer = map[string][]byte{
		"footer address count":        withPostings(x, maxCount, maxCount),
		"footer postings count":       withPostings(x, 1, maxCount),
		"footer flow count":           withPostings(&manyFlows, 1, maxCount),
		"footer short template count": append(bytes.Clone(c[:bodyLen]), appendTrailer(p)...),
	}
	for _, bombs := range []map[string][]byte{body, footer} {
		for name, input := range bombs {
			if maxDecodeAmplification*len(input)+lookupBudget >= 1<<20 {
				tb.Fatalf("%s: %d bytes, too long for a decode bound under 1 MiB", name, len(input))
			}
		}
	}
	return body, footer
}

// decodeAlloc runs decode, which decodes input, and fails t unless what it
// allocates is within the bound every container decoder keeps:
// maxDecodeAmplification bytes per input byte plus lookupBudget. decode runs
// three times (alloctest.Least), so it must do the same work each time. It
// returns what decode allocated.
func decodeAlloc(t testing.TB, what string, input []byte, decode func()) uint64 {
	t.Helper()
	alloc := alloctest.Least(decode)
	if limit := uint64(maxDecodeAmplification*len(input) + lookupBudget); alloc > limit {
		t.Errorf("%s: decoding %d bytes allocated %d, bound %d", what, len(input), alloc, limit)
	}
	return alloc
}

// decodeBombs decodes each named body bomb through Decode, and fails t
// unless each is refused as ErrBadArchive within the decode bound.
func decodeBombs(t *testing.T, body map[string][]byte, names ...string) {
	t.Helper()
	for _, name := range names {
		input, ok := body[name]
		if !ok {
			t.Fatalf("allocBombs has no %q", name)
		}
		var err error
		decodeAlloc(t, name, input, func() { _, err = Decode(bytes.NewReader(input)) })
		rejectedAs(t, name, err, ErrBadArchive)
	}
}

// TestDecodeAllocationBounded pins the allocation-bomb fix: a few bytes of
// input claiming maxCount items just before EOF are refused within the
// decode bound, without reserving count-sized slices up front. Before the
// fix these five together allocated ~20 GB of slice headers.
func TestDecodeAllocationBounded(t *testing.T) {
	body, _ := allocBombs(t)
	decodeBombs(t, body, "short templates", "short group size", "long vector", "addresses", "time-seq")
}

// TestDecodeZeroBitCountsBounded: the counts a body and a footer size a
// slice from, raised over one-symbol tables where no code would ever run the
// input out (allocBombs), are refused as ErrBadArchive and ErrBadIndex
// within the decode bound, which allocBombs holds under 1 MiB.
func TestDecodeZeroBitCountsBounded(t *testing.T) {
	body, footer := allocBombs(t)
	decodeBombs(t, body, "short template count", "short template group length", "short template length",
		"short template of no packets", "long template length", "time-seq count")
	for _, name := range slices.Sorted(maps.Keys(footer)) {
		input := footer[name]
		var err error
		decodeAlloc(t, name, input, func() { _, err = OpenReader(bytes.NewReader(input), int64(len(input))) })
		rejectedAs(t, name, err, ErrBadIndex)
	}
}

// TestReaderGroupCountBounded is TestDecodeAllocationBounded for the one
// allocation the Reader sizes from the footer: the group's record slice. A
// re-signed footer claiming 1<<27 records (4 GiB of them) for a group of a few
// bytes — as many as it can claim — must be refused before the make.
func TestReaderGroupCountBounded(t *testing.T) {
	a, err := Compress(webTrace(26, 150), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a.Index = IndexConfig{Enabled: true, GroupSize: 16}
	r := openReader(t, hugeGroupCount(encodeBytes(t, a), 1<<27))
	alloc := alloctest.Least(func() { _, err = r.ExtractFlows(FlowFilter{}) })
	rejectedAs(t, "huge group count", err, ErrBadIndex)
	if alloc >= 1<<20 {
		t.Fatalf("rejecting the group allocated %d bytes, want under 1 MiB", alloc)
	}
}

// TestNewAddressPastTheDataset: each time-seq new-address symbol names the
// next address of the dataset; one more of them than the dataset holds names
// an address that is not there, which Decode refuses like any other dangling
// index, and OpenReader at the footer that counts them.
func TestNewAddressPastTheDataset(t *testing.T) {
	a := &Archive{
		Opts:           DefaultOptions(),
		ShortTemplates: []flow.Vector{{1, 2}},
		Addresses:      []pkt.IPv4{0x0a000001, 0x0a000002},
		TimeSeq:        []TimeSeqRecord{{Addr: 0}, {FirstTS: time.Millisecond, Addr: 1}},
	}
	sections := builtSections(t, a)
	if d, err := decodeArchive(bytes.Join(sections, nil)); err != nil || d.TimeSeq[1].Addr != 1 {
		t.Fatalf("the two-address archive decoded to %v, %v", d, err)
	}
	// The same time-seq — two new-address symbols — over one address.
	sections[3] = appendAddresses(nil, a.Addresses[:1])
	_, err := decodeArchive(bytes.Join(sections, nil))
	rejectedAs(t, "Decode", err, ErrBadArchive)

	a.Index.Enabled = true
	c := encodeBytes(t, a)
	x, bodyLen := footerIndex(c)
	x.sections.Addresses = int64(len(sections[3]))
	x.postings = x.postings[:1]
	body := slices.Concat(c[:x.sections.Header+x.sections.ShortTemplates+x.sections.LongTemplates], sections[3], sections[4])
	if len(body) != bodyLen-4 {
		t.Fatalf("the body shrank from %d to %d bytes", bodyLen, len(body))
	}
	bad := resigned(body, x)
	_, err = OpenReader(bytes.NewReader(bad), int64(len(bad)))
	rejectedAs(t, "OpenReader", err, ErrBadIndex)
}

// TestDecodeRejectsAddressSymbolOverflow: the address column's table may be
// class-coded up to class 33, whose values reach 1<<33 - 1, while a symbol
// names at most index math.MaxUint32 (symbol 1<<32). One past that must fail,
// not wrap: truncated to 32 bits, symbol 1<<32 + 1 reads as address 0, which
// the one-address dataset below would accept.
func TestDecodeRejectsAddressSymbolOverflow(t *testing.T) {
	a := &Archive{Opts: DefaultOptions(), ShortTemplates: []flow.Vector{{1, 2}}, Addresses: []pkt.IPv4{0x0a000001}}
	// One record of index math.MaxUint32: symbol 1<<32, its class's one
	// zero-bit code and 32 zero low bits — the whole run, 4 bytes. Every other
	// column has one symbol.
	recs := []TimeSeqRecord{{Addr: math.MaxUint32}}
	c := a.columnEncoders(recs, new(encodeBuffers))
	var scratch []byte
	ts := appendTimeSeq(nil, recs, 1, &c.enc, c.newTemplates, nil, &scratch)
	if run := ts[len(ts)-4:]; !bytes.Equal(run, []byte{0, 0, 0, 0}) || ts[len(ts)-5] != 4 {
		t.Fatalf("time-seq section %x, want a 4-byte run of zeros at its end", ts)
	}
	ts[len(ts)-1] |= 1
	input := slices.Concat(appendHeader(nil, a, 0, c), appendShortTemplates(nil, a.ShortTemplates, 1, c, nil, new([]byte)),
		appendLongTemplates(nil, nil, c, nil), appendAddresses(nil, a.Addresses), ts)
	_, err := decodeArchive(input)
	rejectedAs(t, "address symbol 1<<32 + 1", err, ErrBadArchive)
	if !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("err = %v, want the symbol's overflow", err)
	}
}

// TestReaderChecksNewAddresses: a Reader starts a group's address symbols at
// the sum of the footer's new-address counts before it, and holds the
// group's own count to the symbols it decodes. A footer that moves one new
// address from a group to the next, re-signed, fails both groups on first
// touch — and every time after — while a query confined to the groups before
// them answers what a clean Reader answers.
func TestReaderChecksNewAddresses(t *testing.T) {
	c, bodyLen := corruptionContainer(t)
	x, _ := footerIndex(c)
	g := -1
	for i := len(x.groups) - 2; i > 0 && g < 0; i-- {
		if x.groups[i].fresh[newAddr] > 0 {
			g = i
		}
	}
	if g < 0 {
		t.Fatal("no group past the first introduces an address")
	}
	x.groups[g].fresh[newAddr]--
	x.groups[g+1].fresh[newAddr]++
	clean, bad := openReader(t, c), openReader(t, resigned(c[:bodyLen], x))
	window := func(g int) FlowFilter {
		gi := clean.idx.groups[g]
		return FlowFilter{From: time.Duration(gi.firstUS) * time.Microsecond, To: time.Duration(gi.lastUS+1) * time.Microsecond}
	}
	before := FlowFilter{To: time.Duration(clean.idx.groups[g].firstUS) * time.Microsecond}
	for round := 0; round < 2; round++ {
		for _, h := range []int{g, g + 1} {
			_, err := bad.ExtractFlows(window(h))
			rejectedAs(t, fmt.Sprintf("round %d, group %d", round, h), err, ErrBadIndex)
			if !strings.Contains(err.Error(), "new addresses") {
				t.Fatalf("round %d, group %d: %v", round, h, err)
			}
		}
		want, err := clean.ExtractFlows(before)
		if err != nil || want.Len() == 0 {
			t.Fatalf("clean Reader, filter %+v: %v, %v", before, want, err)
		}
		got, err := bad.ExtractFlows(before)
		if err != nil {
			t.Fatalf("round %d, filter %+v: %v", round, before, err)
		}
		samePackets(t, fmt.Sprintf("round %d, filter %+v", round, before), got.Packets, want.Packets)
	}
}

// flagged compresses tr into an indexed container in groups of gs records,
// whose tag column must have the new-template symbols.
func flagged(t testing.TB, tr *trace.Trace, gs int) (*Archive, []byte) {
	t.Helper()
	a, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a.Index = IndexConfig{Enabled: true, GroupSize: gs}
	c := encodeBytes(t, a)
	if c[len(magic)+1]&^flagRTTGaps != flagNewTemplates|flagIndexed {
		t.Fatalf("the flags byte is %#x, want the new-template symbols", c[len(magic)+1])
	}
	return a, c
}

// TestHostileNewTemplates: the new-template symbols and the format 6 footer
// fail closed — ErrBadArchive from Decode, ErrBadIndex or ErrBadArchive from a
// Reader, within the decode bound and never a panic — where flag bit 1 is set
// in a version 3 to 8 header, which no decoder reads any more and whose
// refusal names the last commit that did, where the flag stands in front of a
// format 2 to 5 footer or a format 6 footer's template count columns stand
// without it, where a symbol names a template past the dataset, and where a
// group's counts disagree with its symbols or all groups' sum past the
// templates.
func TestHostileNewTemplates(t *testing.T) {
	// A Web mix founds a template in one flow of 20 or so.
	a, c := flagged(t, webTrace(26, 2000), 0)
	x, bodyLen := footerIndex(c)
	body := c[:bodyLen]
	// A group g that founds a short template in front of one that could
	// found one more: a record of it names a template founded before.
	g := -1
	for i := len(x.groups) - 2; i >= 0 && g < 0; i-- {
		if next := x.groups[i+1]; x.groups[i].fresh[newShort] > 0 && next.fresh[newShort]+next.fresh[newLong] < next.count {
			g = i
		}
	}
	if g < 0 {
		t.Fatal("no group of the flagged container founds a template in front of one that repeats one")
	}
	withIndex := func(edit func(y *archiveIndex)) []byte {
		y, _ := footerIndex(c)
		edit(y)
		return resigned(body, y)
	}
	flags := func(c []byte, set, clear byte) []byte {
		c = slices.Clone(c)
		c[len(magic)+1] = c[len(magic)+1]&^clear | set
		return c
	}
	// At open.
	type hostile struct {
		input []byte
		why   string // what the error says
	}
	cases := map[string]hostile{
		"template counts without the flag": {flags(c, 0, flagNewTemplates), ""},
		"new templates past the dataset":   {withIndex(func(y *archiveIndex) { y.groups[g+1].fresh[newLong]++ }), "templates of"},
	}
	for _, format := range []byte{2, 3, 4, 5} {
		cases[fmt.Sprintf("the flag in front of a format %d footer", format)] = hostile{refooted(c, format), fmt.Sprintf("index version %d in a version %d container", format, containerVersion)}
	}
	for v := byte(3); v < containerVersion; v++ {
		why := "8514c3f is the last to read versions 3 to 5"
		switch v {
		case 6:
			why = "dac74bb the last to read version 6"
		case 7:
			why = "cccd716 the last to read version 7"
		case 8:
			why = "d69a042 the last to read version 8"
		}
		cases[fmt.Sprintf("the flag in a version %d header", v)] = hostile{relabeled(c, v), why}
	}
	for name, tc := range cases {
		var err error
		decodeAlloc(t, name, tc.input, func() { _, err = OpenReader(bytes.NewReader(tc.input), int64(len(tc.input))) })
		if !errors.Is(err, ErrBadIndex) && !errors.Is(err, ErrBadArchive) {
			t.Fatalf("%s: OpenReader = %v, want ErrBadIndex or ErrBadArchive", name, err)
		}
		if !strings.Contains(err.Error(), tc.why) {
			t.Errorf("%s: %v, want %q", name, err, tc.why)
		}
		if strings.Contains(name, "header") {
			_, err := Decode(bytes.NewReader(tc.input))
			rejectedAs(t, name+" (Decode)", err, ErrBadArchive)
		}
	}

	// On the first query to touch the groups: one new short template moved
	// from group g to the group after it, which has room for it.
	moved := withIndex(func(y *archiveIndex) {
		y.groups[g].fresh[newShort]--
		y.groups[g+1].fresh[newShort]++
	})
	r := openReader(t, moved)
	for _, h := range []int{g, g + 1} {
		gi := r.idx.groups[h]
		_, err := r.ExtractFlows(FlowFilter{From: time.Duration(gi.firstUS) * time.Microsecond, To: time.Duration(gi.lastUS+1) * time.Microsecond})
		rejectedAs(t, fmt.Sprintf("group %d", h), err, ErrBadIndex)
		if !strings.Contains(err.Error(), "new short templates") {
			t.Fatalf("group %d: %v", h, err)
		}
	}

	// A symbol past the dataset: the body with its last short template cut
	// from the section, through Decode and, behind a footer that still counts
	// every symbol, through a Reader.
	sec, n := x.sections, x.shorts
	var z archiveIndex
	less := appendShortTemplates(nil, a.ShortTemplates[:n-1], a.Index.groupSize(), a.columnEncoders(sortedTimeSeq(a.TimeSeq), new(encodeBuffers)), &z, new([]byte))
	input := slices.Concat(c[:sec.Header], less, c[sec.Header+sec.ShortTemplates:bodyLen])
	_, err := decodeArchive(input)
	rejectedAs(t, "a new template past the dataset (Decode)", err, ErrBadArchive)
	if !strings.Contains(err.Error(), "references short template") {
		t.Fatalf("a new template past the dataset: %v", err)
	}
	y, _ := footerIndex(c)
	y.sections.ShortTemplates, y.shorts, y.shortOffs = int64(len(less)), n-1, z.shortOffs
	bad := resigned(input, y)
	decodeAlloc(t, "a new template past the dataset", bad, func() { _, err = OpenReader(bytes.NewReader(bad), int64(len(bad))) })
	rejectedAs(t, "a new template past the dataset (OpenReader)", err, ErrBadIndex)
	if !strings.Contains(err.Error(), "templates of") {
		t.Fatalf("a new template past the dataset: %v", err)
	}
}

// refooted returns the indexed version 9 container c with its footer payload
// claiming the given format, re-signed: a footer of a format the decoders no
// longer read, as far as the version check that refuses it can tell.
func refooted(c []byte, format byte) []byte {
	end := len(c) - trailerLen
	start := end - int(binary.LittleEndian.Uint32(c[len(c)-8:]))
	payload := slices.Clone(c[start:end])
	payload[0] = format
	return append(slices.Clone(c[:start]), appendTrailer(payload)...)
}

// cutPostingsRun returns the indexed container c with the last byte of its
// footer payload — the last of its postings run — dropped, re-signed.
func cutPostingsRun(c []byte) []byte {
	end := len(c) - trailerLen
	start := end - int(binary.LittleEndian.Uint32(c[len(c)-8:]))
	return append(slices.Clone(c[:start]), appendTrailer(slices.Clone(c[start:end-1]))...)
}

// TestHostileFooters: a format 6 footer that lies about its contents fails
// OpenReader closed, with ErrBadIndex, within the decode bound and under 1
// MiB: a prediction above 1, more postings than flows, more flows or groups
// than the time-seq section holds, a template or group offset not past the
// one before, groups introducing more new addresses than there are, a new
// address whose list misses the group that introduces it or is empty, and a
// run read past its end; so does a version 9 footer claiming format 2 to 5,
// which no decoder reads any more, the refusal naming the last commit that
// read format 5. Decode, which never reads the footer, returns the archive
// from every one of them.
func TestHostileFooters(t *testing.T) {
	c, bodyLen := corruptionContainer(t)
	x, _ := footerIndex(c)
	total := 0
	for _, p := range x.postings {
		total += len(p)
	}
	head := x.appendHead(nil, len(x.postings), total, x.pred)
	payload := c[bodyLen : len(c)-trailerLen]
	if !bytes.Equal(payload[:len(head)], head) || payload[0] != indexVersion {
		t.Fatalf("the footer does not start with the head of format %d", indexVersion)
	}
	withHead := func(addrs, postings int, pred byte) []byte {
		p := slices.Concat(x.appendHead(nil, addrs, postings, pred), payload[len(head):])
		return append(slices.Clone(c[:bodyLen]), appendTrailer(p)...)
	}
	withIndex := func(edit func(y *archiveIndex)) []byte {
		y, _ := footerIndex(c)
		edit(y)
		return resigned(c[:bodyLen], y)
	}
	// An address a group before the last introduces, and the number of
	// addresses introduced.
	fresh := freshGroups{groups: x.groups}
	addr, group := -1, -1
	for i := range x.postings {
		if g := fresh.of(i); g >= 0 && g+1 < len(x.groups) {
			addr, group = i, g
			break
		}
	}
	next := 0
	for _, g := range x.groups {
		next += g.fresh[newAddr]
	}
	if addr < 0 || next == 0 {
		t.Fatal("no group before the last introduces an address")
	}
	type hostile struct {
		input []byte
		why   string // what the error says
	}
	cases := map[string]hostile{
		"a prediction of 2":        {withHead(len(x.postings), total, 2), "postings prediction 2"},
		"more postings than flows": {withHead(len(x.postings), x.flows+1, x.pred), "postings count"},
		"more flows than the time-seq section holds": {withIndex(func(y *archiveIndex) {
			y.flows = wire.MaxItemsPerByte*int(y.sections.TimeSeq) + 1
		}), "flows in a"},
		"more groups than the time-seq section holds": {withIndex(func(y *archiveIndex) {
			y.groupSize, y.flows = 1, int(y.sections.TimeSeq)+1
		}), "groups in a"},
		"a template at the offset before it": {withIndex(func(y *archiveIndex) { y.shortOffs[1] = y.shortOffs[0] }), "not past the one before"},
		"a group at the offset before it":    {withIndex(func(y *archiveIndex) { y.groups[1].off = y.groups[0].off }), "not past the one before"},
		"more new addresses than addresses":  {withIndex(func(y *archiveIndex) { y.postings = y.postings[:next-1] }), "new addresses of"},
		"a new address missing its group": {withIndex(func(y *archiveIndex) {
			y.postings[addr] = []uint32{uint32(group + 1)}
		}), "which introduces it"},
		"a new address without postings": {withIndex(func(y *archiveIndex) { y.postings[addr] = nil }), "no postings"},
		"more new addresses than records": {withIndex(func(y *archiveIndex) {
			y.groups[0].fresh[newAddr] = y.groups[0].count + 1
		}), "group new addresses"},
		"a run read past its end": {cutPostingsRun(c), ""},
	}
	for _, format := range []byte{2, 3, 4, 5} {
		cases[fmt.Sprintf("format %d", format)] = hostile{refooted(c, format), fmt.Sprintf("index version %d in a version %d container", format, containerVersion)}
	}
	cases["format 5"] = hostile{cases["format 5"].input, "dac74bb is the last to read format 5"}
	for name, tc := range cases {
		var err error
		alloc := decodeAlloc(t, name, tc.input, func() { _, err = OpenReader(bytes.NewReader(tc.input), int64(len(tc.input))) })
		rejectedAs(t, name, err, ErrBadIndex)
		if !strings.Contains(err.Error(), tc.why) {
			t.Errorf("%s: %v, want %q", name, err, tc.why)
		}
		if alloc >= 1<<20 {
			t.Errorf("%s: rejecting %d bytes allocated %d, want under 1 MiB", name, len(tc.input), alloc)
		}
		if _, err := Decode(bytes.NewReader(tc.input)); err != nil {
			t.Errorf("%s: Decode read the footer: %v", name, err)
		}
	}
}

// TestDecodeAmplificationBounded states the bound the run padding buys: what
// Decode allocates is at most maxDecodeAmplification bytes per input byte
// plus the lookup tables, on the input built to reach it — every record zero
// bits, so a 4 KiB container holds some 30 000 of them — and under 1 MiB, the
// records' own 960 000 bytes and little else. A group of those records whose
// footer claims as many as it can is refused as ErrBadIndex before its
// records are made (FuzzOpenReader's hugeGroupCount seeds on smaller bodies).
func TestDecodeAmplificationBounded(t *testing.T) {
	a := oneSymbolArchive(30000)
	a.Index = IndexConfig{Enabled: true}
	input := encodeBytes(t, a)
	if len(input) > 4816 {
		t.Fatalf("30 000 zero-bit records took %d bytes", len(input))
	}
	body := input[:len(input)-int(binary.LittleEndian.Uint32(input[len(input)-8:]))-trailerLen]
	if len(body) > 4096 {
		t.Fatalf("30 000 zero-bit records took a body of %d bytes", len(body))
	}
	var d *Archive
	var err error
	alloc := decodeAlloc(t, "Decode", body, func() { d, err = decodeArchive(body) })
	if err != nil || d.Flows() != 30000 {
		t.Fatalf("decode: %v", err)
	}
	if alloc >= 1<<20 {
		t.Fatalf("decoding %d bytes allocated %d, want under 1 MiB", len(body), alloc)
	}

	r := openReader(t, hugeGroupCount(input, 1<<27))
	alloc = alloctest.Least(func() { _, err = r.ExtractFlows(FlowFilter{}) })
	rejectedAs(t, "huge count over a zero-bit group", err, ErrBadIndex)
	if alloc >= 1<<20 {
		t.Fatalf("rejecting the group allocated %d bytes, want under 1 MiB", alloc)
	}
}

// columnTable is a stored column table: mode, then (symbol delta, code
// length) pairs.
func columnTable(mode byte, entries ...[2]uint64) []byte {
	b := binary.AppendUvarint([]byte{mode}, uint64(len(entries)))
	for _, e := range entries {
		b = binary.AppendUvarint(b, e[0]<<4|e[1])
	}
	return b
}

// ransColumnTable is a stored rANS table: mode, scale, then (symbol delta,
// frequency) pairs stored as freq-1.
func ransColumnTable(mode, scale byte, entries ...[2]uint64) []byte {
	b := binary.AppendUvarint([]byte{mode, scale}, uint64(len(entries)))
	for _, e := range entries {
		b = binary.AppendUvarint(b, e[0]<<scale|(e[1]-1))
	}
	return b
}

// withTable returns the indexed container c with the header table of column
// col replaced and the footer re-signed for the header's new length.
func withTable(t testing.TB, c []byte, col int, table []byte) []byte {
	t.Helper()
	x, bodyLen := footerIndex(c)
	hc := wire.NewCursor(c[:x.sections.Header], ErrBadArchive)
	sc, err := decodeHeader(&hc, &Archive{})
	if err != nil {
		t.Fatal(err)
	}
	end := int(x.sections.Header)
	for i := numColumns - 1; i > col; i-- {
		end -= sc.tables[i]
	}
	out := slices.Concat(c[:end-sc.tables[col]], table, c[end:bodyLen])
	x.sections.Header += int64(len(table) - sc.tables[col])
	return resigned(out, x)
}

// withFooterTable returns the indexed container c, whose footer is of format
// 5, with the footer table of column col replaced, re-signed.
func withFooterTable(t *testing.T, c []byte, col int, table []byte) []byte {
	t.Helper()
	x, bodyLen := footerIndex(c)
	total := 0
	for _, p := range x.postings {
		total += len(p)
	}
	payload := c[bodyLen : len(c)-trailerLen]
	start := len(x.appendHead(nil, len(x.postings), total, x.pred))
	for i := range col {
		start += x.tables[i]
	}
	payload = slices.Concat(payload[:start], table, payload[start+x.tables[col]:])
	return append(slices.Clone(c[:bodyLen]), appendTrailer(payload)...)
}

// contextTables is a stored context column holding the one table given, for
// context ctx.
func contextTables(ctx uint64, table []byte) []byte {
	return append(binary.AppendUvarint(binary.AppendUvarint(nil, 1), ctx), table...)
}

// TestHostileColumnTables: a code-length table that is over-subscribed,
// incomplete, longer than the limit, larger than it declares or than any
// alphabet, or out of its column's range fails Decode with ErrBadArchive and
// OpenReader with ErrBadIndex, in every column of the header — in a template
// column as the table of one context, beside tables in contexts out of order
// or out of range, more tables than contexts and an empty table; in every
// column of the footer it fails OpenReader.
func TestHostileColumnTables(t *testing.T) {
	a, err := Compress(webTrace(26, 150), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a.Index = IndexConfig{Enabled: true, GroupSize: 16}
	c := encodeBytes(t, a)
	tooMany := make([][2]uint64, wire.MaxSymbols+1)
	for i := range tooMany {
		tooMany[i] = [2]uint64{1, wire.MaxCodeLen}
	}
	hostile := map[string][]byte{
		"over-subscribed":          columnTable(0, [2]uint64{0, 1}, [2]uint64{1, 1}, [2]uint64{1, 2}),
		"incomplete":               columnTable(0, [2]uint64{0, 2}, [2]uint64{1, 2}, [2]uint64{1, 2}),
		"longer than the limit":    columnTable(0, [2]uint64{0, 1}, [2]uint64{1, wire.MaxCodeLen + 1}),
		"one symbol with a length": columnTable(0, [2]uint64{0, 3}),
		"larger than it declares":  append(binary.AppendUvarint([]byte{0}, 40), 0x01, 0x11),
		"larger than any alphabet": columnTable(0, tooMany...),
		"a 2^28-symbol alphabet":   binary.AppendUvarint([]byte{0}, maxCount),
		"symbol out of range":      columnTable(0, [2]uint64{0, 1}, [2]uint64{1 << 58, 1}),
		"class out of range":       columnTable(1, [2]uint64{0, 1}, [2]uint64{65, 1}),
		"unknown mode":             columnTable(9),
		// rANS tables: the frequencies must fill the scale, of 1 to
		// wire.MaxCodeLen bits, and freq-1 is stored, so a symbol squeezed
		// out of the slots cannot read as a zero frequency.
		"rANS frequencies short of the scale": ransColumnTable(2, 4, [2]uint64{0, 3}, [2]uint64{1, 12}),
		"rANS frequencies over the scale":     ransColumnTable(2, 4, [2]uint64{0, 5}, [2]uint64{1, 12}),
		"rANS symbol left a zero frequency":   ransColumnTable(2, 1, [2]uint64{0, 1}, [2]uint64{1, 1}, [2]uint64{1, 1}),
		"rANS scale above MaxCodeLen":         ransColumnTable(2, wire.MaxCodeLen+1, [2]uint64{0, 1 << 12}, [2]uint64{1, 1 << 12}),
		"rANS scale zero":                     ransColumnTable(3, 0, [2]uint64{0, 1}),
	}
	two := columnTable(0, [2]uint64{0, 1}, [2]uint64{1, 1})
	// A well-formed rANS table where no column may carry one: the gaps, the
	// time-seq and the footer are Huffman-coded.
	halves := ransColumnTable(2, 1, [2]uint64{0, 1}, [2]uint64{1, 1})
	for col := 0; col < numColumns; col++ {
		if same := withTable(t, c, col, c[:0]); len(same) >= len(c) {
			t.Fatalf("withTable did not shrink the header of column %d", col)
		}
		tables := map[string][]byte{}
		for name, table := range hostile {
			tables[name] = table
			if col < numContextCols {
				tables[name] = contextTables(5, table)
			}
		}
		switch {
		case col == colGap:
			tables["an rANS table"] = contextTables(5, halves)
		case col >= numContextCols:
			tables["an rANS table"] = halves
		}
		if col < numContextCols {
			contexts := uint64(columns[col].contexts)
			tables["context out of range"] = contextTables(contexts, two)
			tables["contexts out of order"] = slices.Concat([]byte{2, 3}, two, []byte{0}, two)
			tables["more tables than contexts"] = binary.AppendUvarint(nil, contexts+1)
			tables["an empty table"] = contextTables(0, columnTable(0))
		}
		for name, table := range tables {
			bad := withTable(t, c, col, table)
			_, err := Decode(bytes.NewReader(bad))
			rejectedAs(t, fmt.Sprintf("%s, %s table (Decode)", name, columns[col].what), err, ErrBadArchive)
			_, err = OpenReader(bytes.NewReader(bad), int64(len(bad)))
			rejectedAs(t, fmt.Sprintf("%s, %s table (OpenReader)", name, columns[col].what), err, ErrBadIndex)
		}
	}
	// The footer's tables: OpenReader and Inspect refuse the container;
	// Decode, which never reads the footer, does not.
	x := openReader(t, c).idx
	for col := range numFooterCols {
		if !x.has(col) {
			continue
		}
		if same := withFooterTable(t, c, col, c[:0]); len(same) >= len(c) {
			t.Fatalf("withFooterTable did not shrink the footer of %s", footerColumns[col])
		}
		footer := maps.Clone(hostile)
		footer["an rANS table"] = halves
		if !x.cols[col].Empty() {
			footer["an empty table"] = columnTable(0)
		}
		for name, table := range footer {
			bad := withFooterTable(t, c, col, table)
			_, err := OpenReader(bytes.NewReader(bad), int64(len(bad)))
			rejectedAs(t, fmt.Sprintf("%s, %s table (OpenReader)", name, footerColumns[col]), err, ErrBadIndex)
			_, _, err = Inspect(bad)
			rejectedAs(t, fmt.Sprintf("%s, %s table (Inspect)", name, footerColumns[col]), err, ErrBadIndex)
			if _, err := Decode(bytes.NewReader(bad)); err != nil {
				t.Fatalf("%s, %s table: Decode read the footer: %v", name, footerColumns[col], err)
			}
		}
	}
	// A valid table the body was not written with: the container opens, and
	// the groups and templates it misreads fail on first touch.
	swapped := withTable(t, c, colTag, two)
	if _, err := Decode(bytes.NewReader(swapped)); !errors.Is(err, ErrBadArchive) {
		t.Fatalf("Decode with a foreign tag table = %v, want ErrBadArchive", err)
	}
	r := openReader(t, swapped)
	_, err = r.ExtractFlows(FlowFilter{})
	rejectedAs(t, "extract with a foreign tag table", err, ErrBadIndex)
}

// withoutContext returns the tables of template column col over a's values
// with context drop left out: the tables Encode writes for every other
// context, none for drop, in a section of rANS runs or of bit runs.
func withoutContext(a *Archive, col, drop int, rans bool) *wire.ContextEncoder {
	h := wire.NewContextHistogram(columns[col].contexts)
	recs := sortedTimeSeq(a.TimeSeq)
	cs := a.columnEncoders(recs, new(encodeBuffers))
	a.forEachValue(recs, false, &cs.gaps, cs.rtts, func(c, ctx int, v uint64) {
		if c == col && ctx != drop {
			h.Add(ctx, v)
		}
	})
	return h.Encoder(rans)
}

// TestValueWithoutContextTable: a template value whose context has no table
// fails closed, in each of the three template columns and, in the f columns,
// in the first context and in each tail context, read from the bit runs
// the hand-built archive's short templates and gaps take and from the rANS
// runs its long templates' f values take — ErrBadArchive from Decode,
// ErrBadIndex from a Reader's query — rather than decoding as a
// zero or panicking. The header alone is valid, so a Reader opens.
func TestValueWithoutContextTable(t *testing.T) {
	a := handBuiltArchive()
	a.Index = IndexConfig{Enabled: true, GroupSize: 4}
	c := encodeBytes(t, a)
	_, info, err := Inspect(c)
	if err != nil {
		t.Fatal(err)
	}
	rans := [numContextCols]bool{info.Flushes.ShortTemplates != 0, info.Flushes.LongTemplates != 0}
	if rans[colShortF] || !rans[colLongF] {
		t.Fatalf("rANS runs %v, want the long templates' alone", rans)
	}
	// Context 0 holds the first value of every template of three packets or
	// more, the tail contexts the last two values of every template; the gaps
	// of long template 1 (0, 1, 2, ...) start under context 1.
	type cut struct{ col, drop int }
	cuts := []cut{{colGap, 1}}
	for _, col := range []int{colShortF, colLongF} {
		for _, ctx := range []int{0, wire.ChainSecondLast, wire.ChainLast} {
			cuts = append(cuts, cut{col, ctx})
		}
	}
	for _, cut := range cuts {
		col, drop := cut.col, cut.drop
		name := fmt.Sprintf("%s without context %d", columns[col].what, drop)
		tables := withoutContext(a, col, drop, rans[col])
		bad := withTable(t, c, col, tables.AppendTables(nil))
		_, err := Decode(bytes.NewReader(bad))
		rejectedAs(t, name+" (Decode)", err, ErrBadArchive)
		if !strings.Contains(err.Error(), "has no table") {
			t.Fatalf("%s: Decode = %v, want the missing table named", name, err)
		}
		_, err = openReader(t, bad).ExtractFlows(FlowFilter{})
		rejectedAs(t, name+" (ExtractFlows)", err, ErrBadIndex)
	}
}

// TestContextLookupBudget: the tables of one template column may ask for
// wire.MaxContextLookup bytes of lookup together, and a decoder refuses more
// before it builds them. A header giving every context of every template
// column a table of 12-bit codes, or the f columns tables of scale 12 — 770
// tables of a dozen bytes, each asking for 8 or 16 KiB — is refused having
// allocated under 1 MiB; as many of those tables per column as the budget
// holds are accepted, and decode within lookupBudget, the f columns' direct
// tables laid out once, in their chains. No header may give an rANS table to
// the gap column.
func TestContextLookupBudget(t *testing.T) {
	// Code lengths 1, 2, ..., 12, 12: a complete code twelve bits deep.
	deep := [][2]uint64{{0, 1}}
	for l := uint64(2); l <= wire.MaxCodeLen; l++ {
		deep = append(deep, [2]uint64{1, l})
	}
	huffman := columnTable(0, append(deep, [2]uint64{1, wire.MaxCodeLen})...)
	// Frequencies 4095 and 1 of 1<<12.
	rans := binary.AppendUvarint(binary.AppendUvarint([]byte{2, wire.MaxCodeLen, 2}, 4094), 1<<wire.MaxCodeLen)
	// container gives each template column perColumn tables (or one per
	// context), f's of the one shape, the gap column's of the other.
	container := func(perColumn int, f, gap []byte) []byte {
		a := &Archive{Opts: DefaultOptions()}
		c := a.columnEncoders(nil, new(encodeBuffers))
		b := appendHeaderFields(nil, a, 0)
		for col := range numContextCols {
			table := f
			if col == colGap {
				table = gap
			}
			n := min(perColumn, columns[col].contexts)
			b = binary.AppendUvarint(b, uint64(n))
			for ctx := range n {
				b = append(binary.AppendUvarint(b, uint64(min(ctx, 1))), table...)
			}
		}
		for _, e := range c.enc[numContextCols:] {
			b = e.AppendTable(b)
		}
		// No templates, no addresses, no records, in groups of one.
		return append(b, 0, 1, 0, 0, 0, 1)
	}
	for name, f := range map[string][]byte{"12-bit codes": huffman, "scale-12 rANS": rans} {
		fits := wire.MaxContextLookup / (2 << wire.MaxCodeLen)
		if f[0] != 0 {
			fits /= 2 // an rANS lookup entry is four bytes
		}
		input := container(fits, f, huffman)
		var err error
		alloc := alloctest.Least(func() { _, err = decodeArchive(input) })
		if err != nil {
			t.Fatalf("%d tables of %s per column: %v", fits, name, err)
		}
		if alloc > lookupBudget {
			t.Errorf("%d tables of %s per column allocated %d bytes, budget %d", fits, name, alloc, lookupBudget)
		}
		for _, n := range []int{fits + 1, wire.ChainContexts} {
			input := container(n, f, huffman)
			alloc := alloctest.Least(func() { _, err = decodeArchive(input) })
			rejectedAs(t, fmt.Sprintf("%d tables of %s per column", n, name), err, ErrBadArchive)
			if alloc >= 1<<20 {
				t.Errorf("rejecting %d tables of %s per column in %d bytes allocated %d, want under 1 MiB", n, name, len(input), alloc)
			}
		}
	}
	_, err := decodeArchive(container(1, huffman, rans))
	rejectedAs(t, "an rANS gap table", err, ErrBadArchive)
}

// flippedLongState returns the indexed container c with the low bit of long
// template 0's stored rANS state flipped, so its rANS part ends one off where
// every run starts. No checksum covers the body.
func flippedLongState(c []byte) []byte {
	x, _ := footerIndex(c)
	at := x.sections.Header + x.sections.ShortTemplates + x.longOffs[0]
	_, k := binary.Uvarint(c[at:])
	c = slices.Clone(c)
	c[at+int64(k)+wire.RANSFlush-1] ^= 1
	return c
}

// TestHostileRANSRuns: a long template whose rANS part does not end in the
// state every run starts from — its stored state off by one — and one with a
// byte left over behind it fail closed: ErrBadArchive from Decode,
// ErrBadIndex from a Reader's query, and no panic.
func TestHostileRANSRuns(t *testing.T) {
	a := goldenBulkArchive(t)
	c := encodeBytes(t, a)
	x, bodyLen := footerIndex(c)
	if _, info, err := Inspect(c); err != nil || info.Flushes.LongTemplates == 0 {
		t.Fatalf("the bulk archive's long templates are not rANS-coded: %v", err)
	}
	// Long template 1: its length, then its run, the rANS state first.
	long := x.sections.Header + x.sections.ShortTemplates
	_, k := binary.Uvarint(c[long+x.longOffs[1]:])
	state := long + x.longOffs[1] + int64(k)
	wrong := slices.Clone(c)
	wrong[state+wire.RANSFlush-1] ^= 1
	end := long + x.longOffs[2]
	x.sections.LongTemplates++
	for i := 2; i < len(x.longOffs); i++ {
		x.longOffs[i]++
	}
	left := resigned(slices.Concat(c[:end], []byte{0}, c[end:bodyLen]), x)
	for name, in := range map[string]struct {
		bad       []byte
		why, read string // what Decode and a Reader say
	}{
		"a wrong final state": {wrong, "rANS part ends in state", "rANS part ends in state"},
		"a byte left over":    {left, "empty long template", "trailing bytes"},
	} {
		bad := in.bad
		_, err := Decode(bytes.NewReader(bad))
		rejectedAs(t, name+" (Decode)", err, ErrBadArchive)
		if !strings.Contains(err.Error(), in.why) {
			t.Errorf("%s: Decode = %v", name, err)
		}
		_, err = openReader(t, bad).ExtractFlows(FlowFilter{})
		rejectedAs(t, name+" (ExtractFlows)", err, ErrBadIndex)
		if !strings.Contains(err.Error(), in.read) {
			t.Errorf("%s: ExtractFlows = %v", name, err)
		}
	}
}

// TestAddrTabSeededProbeRuns: server addresses are the sender's to choose, and
// under the unseeded splitmix64 the address table once probed with, 4 096
// addresses that share a home slot of its 8 192-slot array cost n²/2 = 8.4
// million probe steps to intern. Under a recorder's seeded tag they cost
// about one step each: the budget is four, a linear-probe run at the 7/8
// split load averaging 4.5 at worst. The list read back off the table is the
// addresses in the order they were interned.
func TestAddrTabSeededProbeRuns(t *testing.T) {
	unseeded := func(ip uint32) uint64 {
		x := uint64(ip)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		return x ^ x>>31
	}
	const n = 4096
	ips := make([]pkt.IPv4, 0, n)
	for ip := uint32(0); len(ips) < n; ip++ {
		if unseeded(ip)&8191 == 0 {
			ips = append(ips, pkt.IPv4(ip))
		}
	}
	for run := 0; run < 3; run++ {
		r := newRecorder(DefaultOptions())
		for i, ip := range ips {
			if got := r.addrs.index(ip); got != uint32(i) {
				t.Fatalf("address %d interned as %d", i, got)
			}
		}
		for i, ip := range ips {
			if got := r.addrs.index(ip); got != uint32(i) {
				t.Fatalf("address %d looked up as %d", i, got)
			}
		}
		steps := r.addrs.tab.Steps()
		t.Logf("key %#08x: %d probe steps for %d addresses", r.addrs.key, steps, n)
		if steps > 4*n {
			t.Errorf("%d probe steps for %d addresses, budget %d", steps, n, 4*n)
		}
		if got := r.addrs.addresses(); !slices.Equal(got, ips) {
			t.Fatalf("addresses read back differ from those interned")
		}
	}
}

// TestAddrTagInverts: unmix undoes mix for every seed, so the table's words
// are the only copy of the addresses an archive needs.
func TestAddrTagInverts(t *testing.T) {
	for i := 0; i < 8; i++ {
		tab := newAddrTab()
		for _, ip := range []uint32{0, 1, 0xffffffff, 0x80000000, 0x0a000001, uint32(i) * 0x9e3779b9} {
			if got := tab.unmix(tab.mix(pkt.IPv4(ip))); got != pkt.IPv4(ip) {
				t.Fatalf("key %#08x: unmix(mix(%#x)) = %#x", tab.key, ip, got)
			}
		}
	}
}
