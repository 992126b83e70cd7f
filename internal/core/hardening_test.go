package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/trace"
	"flowzip/internal/wire"
)

// hostileContainer builds container bytes field by field, for crafting the
// inputs no real encoder produces.
type hostileContainer struct {
	bytes.Buffer
}

func (h *hostileContainer) uv(v uint64) {
	var s [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(s[:], v)
	h.Write(s[:n])
}

// header writes the magic, version and the 7 header uvarints.
func (h *hostileContainer) header(w1, w2, w3, shortMax, limitPct100 uint64) {
	h.Write(magic[:])
	h.WriteByte(1)
	for _, v := range []uint64{w1, w2, w3, shortMax, limitPct100, 0, 0} {
		h.uv(v)
	}
}

// TestDecodeRejectsZeroWeights pins the options gate on the decode path: a
// tampered header carrying a zero weight would divide by zero inside
// Weights.Decompose on the first decompression, so Decode must reject it.
func TestDecodeRejectsZeroWeights(t *testing.T) {
	for _, weights := range [][3]uint64{{0, 4, 1}, {16, 0, 1}, {16, 4, 0}, {0, 0, 0}} {
		var h hostileContainer
		h.header(weights[0], weights[1], weights[2], 50, 200)
		h.uv(0) // no short templates
		h.uv(0) // no long templates
		h.uv(0) // no addresses
		h.uv(0) // no time-seq records
		if _, err := Decode(bytes.NewReader(h.Bytes())); !errors.Is(err, ErrBadArchive) {
			t.Fatalf("weights %v: Decode = %v, want ErrBadArchive", weights, err)
		}
	}
}

// oneFlow fills in a minimal valid body — one short template, no long ones,
// one address — followed by a single hand-written time-seq record.
func (h *hostileContainer) oneFlow(delta, tag, rtt, addr uint64) {
	h.uv(1) // one short template
	h.uv(2) // of two packets
	h.Write([]byte{1, 2})
	h.uv(0) // no long templates
	h.uv(1) // one address
	h.Write([]byte{10, 0, 0, 1})
	h.uv(1) // one time-seq record
	for _, v := range []uint64{delta, tag, rtt, addr} {
		h.uv(v)
	}
}

// overflowRecords are time-seq records whose fields do not fit where they are
// stored: truncated to 32 bits (or wrapped into a duration) each would read
// as template 0, address 0, timestamp 0 and pass validation.
var overflowRecords = map[string][4]uint64{
	"time-seq tag overflow":     {0, 1 << 33, 0, 0},
	"time-seq address overflow": {0, 0, 0, 1 << 32},
	"time-seq delta overflow":   {1 << 63, 0, 0, 0},
}

// rejectedAs fails the test unless err is a labelled instance of sentinel.
func rejectedAs(t *testing.T, name string, err, sentinel error) {
	t.Helper()
	if !errors.Is(err, sentinel) {
		t.Fatalf("%s: err = %v, want %v", name, err, sentinel)
	}
	if strings.Contains(err.Error(), "<nil>") {
		t.Fatalf("%s: error %q hides its cause", name, err)
	}
}

// TestDecodeRejectsHugeCounts pins the field bounds: counts beyond maxCount
// and values beyond the field they fill are rejected as ErrBadArchive, named.
func TestDecodeRejectsHugeCounts(t *testing.T) {
	build := func(fill func(h *hostileContainer)) []byte {
		var h hostileContainer
		h.header(16, 4, 1, 50, 200)
		fill(&h)
		return h.Bytes()
	}
	cases := map[string][]byte{
		"short count": build(func(h *hostileContainer) { h.uv(maxCount + 1) }),
		"short template length": build(func(h *hostileContainer) {
			h.uv(1)
			h.uv(maxCount + 1)
		}),
		"long count": build(func(h *hostileContainer) {
			h.uv(0)
			h.uv(maxCount + 1)
		}),
		"address count": build(func(h *hostileContainer) {
			h.uv(0)
			h.uv(0)
			h.uv(maxCount + 1)
		}),
		"time-seq count": build(func(h *hostileContainer) {
			h.uv(0)
			h.uv(0)
			h.uv(0)
			h.uv(maxCount + 1)
		}),
	}
	for name, rec := range overflowRecords {
		cases[name] = build(func(h *hostileContainer) { h.oneFlow(rec[0], rec[1], rec[2], rec[3]) })
	}
	for name, input := range cases {
		_, err := Decode(bytes.NewReader(input))
		rejectedAs(t, name, err, ErrBadArchive)
	}
	valid := build(func(h *hostileContainer) { h.oneFlow(5, 0, 7, 0) })
	if _, err := Decode(bytes.NewReader(valid)); err != nil {
		t.Fatalf("the in-range one-flow container was rejected: %v", err)
	}
}

// hostileIndexed wraps one hand-written time-seq record in a v2 container
// whose footer describes the body faithfully, so the record reaches
// Reader.loadGroup.
func hostileIndexed(delta, tag, rtt, addr uint64) []byte {
	a := &Archive{
		Opts:           DefaultOptions(),
		ShortTemplates: []flow.Vector{{1, 2}},
		Addresses:      []pkt.IPv4{0x0a000001},
		Index:          IndexConfig{Enabled: true},
	}
	idx := newArchiveIndex(a, 1, false)
	var out []byte
	section := func(size *int64, b []byte) {
		*size = int64(len(b))
		out = append(out, b...)
	}
	section(&idx.sections.Header, v1Header(nil, a, 2))
	section(&idx.sections.ShortTemplates, v1ShortTemplates(nil, a.ShortTemplates, idx))
	section(&idx.sections.LongTemplates, v1LongTemplates(nil, nil, idx))
	section(&idx.sections.Addresses, appendAddresses(nil, a.Addresses))
	ts := binary.AppendUvarint(nil, 1)
	idx.addRecord(0, int64(len(ts)), min(delta, maxIndexUS), 0)
	for _, v := range []uint64{delta, tag, rtt, addr} {
		ts = binary.AppendUvarint(ts, v)
	}
	section(&idx.sections.TimeSeq, ts)
	return resigned(out, idx)
}

// TestReaderRejectsOverflowingRecords is the indexed read path's share of
// TestDecodeRejectsHugeCounts: the same three records, behind a valid footer.
func TestReaderRejectsOverflowingRecords(t *testing.T) {
	open := func(b []byte) (*Reader, error) { return OpenReader(bytes.NewReader(b), int64(len(b))) }
	r, err := open(hostileIndexed(5, 0, 7, 0))
	if err != nil {
		t.Fatalf("the in-range one-flow container was rejected: %v", err)
	}
	if tr, err := r.ExtractFlows(FlowFilter{}); err != nil || tr.Len() != 2 {
		t.Fatalf("the in-range one-flow container extracted %v, %v", tr, err)
	}
	for name, rec := range overflowRecords {
		r, err := open(hostileIndexed(rec[0], rec[1], rec[2], rec[3]))
		if err != nil {
			t.Fatalf("%s: the footer is faithful, but open failed: %v", name, err)
		}
		_, err = r.ExtractFlows(FlowFilter{})
		rejectedAs(t, name+" (extract)", err, ErrBadIndex)
		_, err = r.Decompress()
		rejectedAs(t, name+" (decompress)", err, ErrBadArchive)
	}
}

// footerIndex parses the footer index of the indexed container c and returns
// it with the length of the body in front of it.
func footerIndex(c []byte) (*archiveIndex, int) {
	bodyLen := len(c) - trailerLen - int(binary.LittleEndian.Uint32(c[len(c)-8:]))
	version := c[len(magic)]
	newTemplates := version == containerVersion && c[len(magic)+1]&flagNewTemplates != 0
	x, err := parseArchiveIndex(c[bodyLen:len(c)-trailerLen], int64(len(c)), version, newTemplates)
	if err != nil {
		panic(err)
	}
	return x, bodyLen
}

// resigned returns body followed by x, written in the footer format body's
// container version carries and signed.
func resigned(body []byte, x *archiveIndex) []byte {
	payload := x.appendPayload(nil)
	if body[len(magic)] == 2 {
		payload = appendPayloadV1(nil, x)
	}
	return append(slices.Clone(body), appendTrailer(payload)...)
}

// hugeGroupCount returns c with a re-signed footer whose group 0 claims n
// records over the few bytes it has, so that the footer parses and the lie
// reaches the Reader. A format 1 group entry says so, the flow count raised
// to match. Format 6 derives a group's count from the group size and holds
// the flow count to what the time-seq section can hold, so there the lie is
// the largest it can tell: one group of as many records as that, at most n,
// and short template groups of as many templates.
func hugeGroupCount(c []byte, n int) []byte {
	x, bodyLen := footerIndex(c)
	if c[len(magic)] != containerVersion {
		x.flows += n - x.groups[0].count
		x.groups[0].count = n
		return resigned(c[:bodyLen], x)
	}
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

// TestReaderGroupCountBounded is TestDecodeAllocationBounded for the one
// allocation the Reader sizes from the footer: the group's record slice. A
// re-signed footer claiming 1<<27 records (4 GiB of them) for a group of a few
// bytes — in format 6, as many as it can claim — must be refused before the
// make, in every layout.
func TestReaderGroupCountBounded(t *testing.T) {
	a, err := Compress(webTrace(26, 150), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a.Index = IndexConfig{Enabled: true, GroupSize: 16}
	for _, l := range layouts {
		r := openReader(t, hugeGroupCount(l.encode(t, a), 1<<27))
		alloc := allocBytes(func() { _, err = r.ExtractFlows(FlowFilter{}) })
		rejectedAs(t, l.name+": huge group count", err, ErrBadIndex)
		if alloc >= 1<<20 {
			t.Fatalf("%s: rejecting the group allocated %.0f bytes, want under 1 MiB", l.name, alloc)
		}
	}
}

// TestReaderCorruptGroupNotCached: a group that fails validation is not
// kept, so every query touching it fails, the first time and again, while
// queries confined to other groups answer what a clean Reader answers.
func TestReaderCorruptGroupNotCached(t *testing.T) {
	v2, _ := corruptionContainer(t)
	clean := openReader(t, v2)
	bad := len(clean.idx.groups) / 2
	r := openReader(t, flippedGroupByte(v2, bad))
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

// TestDecodeAllocationBounded pins the allocation-bomb fix: a few bytes of
// input claiming a just-under-the-bound count must fail fast at EOF without
// having reserved count-sized slices up front. The test budget is the proxy —
// pre-fix, these five inputs together allocated ~20 GB of slice headers and
// either OOMed or thrashed; post-fix each fails in microseconds.
func TestDecodeAllocationBounded(t *testing.T) {
	build := func(fill func(h *hostileContainer)) []byte {
		var h hostileContainer
		h.header(16, 4, 1, 50, 200)
		fill(&h)
		return h.Bytes()
	}
	huge := uint64(maxCount) // within the sanity bound, far beyond the stream
	cases := map[string][]byte{
		"short templates": build(func(h *hostileContainer) { h.uv(huge) }),
		"short vector": build(func(h *hostileContainer) {
			h.uv(1)
			h.uv(huge)
		}),
		"long vector": build(func(h *hostileContainer) {
			h.uv(0)
			h.uv(1)
			h.uv(huge)
		}),
		"addresses": build(func(h *hostileContainer) {
			h.uv(0)
			h.uv(0)
			h.uv(huge)
		}),
		"time-seq": build(func(h *hostileContainer) {
			h.uv(0)
			h.uv(0)
			h.uv(0)
			h.uv(huge)
		}),
	}
	start := time.Now()
	for name, input := range cases {
		if _, err := Decode(bytes.NewReader(input)); err == nil {
			t.Fatalf("%s: truncated huge-count input decoded successfully", name)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("huge-count decodes took %v — allocation is not bounded by input size", elapsed)
	}
}

// TestLoadDatasetsRejectsTampering covers the four-dataset load path with the
// same hostility: a tampered dataset directory must be rejected, not loaded
// into an archive that fails later.
func TestLoadDatasetsRejectsTampering(t *testing.T) {
	a, err := Compress(webTrace(42, 80), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	save := func(t *testing.T) string {
		t.Helper()
		dir := t.TempDir()
		if err := a.SaveDatasets(dir); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("intact", func(t *testing.T) {
		if _, err := LoadDatasets(save(t)); err != nil {
			t.Fatalf("untampered datasets rejected: %v", err)
		}
	})

	t.Run("zero weight manifest", func(t *testing.T) {
		dir := save(t)
		var h hostileContainer
		h.Write(magic[:])
		h.WriteByte(1)
		for _, v := range []uint64{0, 4, 1, 50, 200, 0, 0} {
			h.uv(v)
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestFile), h.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadDatasets(dir); !errors.Is(err, ErrBadArchive) {
			t.Fatalf("LoadDatasets = %v, want ErrBadArchive", err)
		}
	})

	t.Run("version 3 to 5 manifest", func(t *testing.T) {
		for v := byte(3); v < containerVersion; v++ {
			dir := save(t)
			name := filepath.Join(dir, ManifestFile)
			b, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(name, relabeled(b, v), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = LoadDatasets(dir)
			rejectedAs(t, fmt.Sprintf("version %d manifest", v), err, ErrBadArchive)
			if !strings.Contains(err.Error(), "8514c3f is the last to read versions 3 to 5") {
				t.Fatalf("version %d manifest: %v", v, err)
			}
		}
	})

	t.Run("template count bomb", func(t *testing.T) {
		dir := save(t)
		var h hostileContainer
		h.uv(maxCount) // count far beyond the file's bytes
		if err := os.WriteFile(filepath.Join(dir, ShortTemplateFile), h.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := LoadDatasets(dir); err == nil {
			t.Fatal("short-template count bomb loaded successfully")
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("count bomb took %v to reject", elapsed)
		}
	})

	t.Run("truncated time-seq", func(t *testing.T) {
		dir := save(t)
		name := filepath.Join(dir, TimeSeqFile)
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, b[:len(b)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadDatasets(dir); err == nil {
			t.Fatal("truncated time-seq dataset loaded successfully")
		}
	})

	t.Run("time-seq field overflow", func(t *testing.T) {
		for name, rec := range overflowRecords {
			dir := save(t)
			var h hostileContainer
			h.uv(1)
			for _, v := range rec {
				h.uv(v)
			}
			if err := os.WriteFile(filepath.Join(dir, TimeSeqFile), h.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := LoadDatasets(dir)
			rejectedAs(t, name, err, ErrBadArchive)
		}
	})

	t.Run("dangling address reference", func(t *testing.T) {
		dir := save(t)
		var h hostileContainer
		h.uv(0) // empty address dataset while time-seq still references it
		if err := os.WriteFile(filepath.Join(dir, AddressFile), h.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadDatasets(dir); err == nil {
			t.Fatal("dangling address references loaded successfully")
		}
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
		LongTemplates:  []LongTemplate{{F: bytes.Repeat([]byte{9}, 400), Gaps: slices.Repeat([]time.Duration{time.Millisecond}, 399)}},
		Addresses:      []pkt.IPv4{0x0a000001},
		TimeSeq:        slices.Repeat([]TimeSeqRecord{{}}, flows),
	}
}

// TestDecodeZeroBitCountsBounded: the counts a version 9 body sizes a slice
// from — the short templates', a long template's, the time-seq section's —
// each raised to 1<<28 over one-symbol tables, where no code would ever run
// the input out, and a short template's length, which a header may let reach
// 1<<31 - 1, coded in a group of four bytes. Each must be refused as
// ErrBadArchive before the make.
func TestDecodeZeroBitCountsBounded(t *testing.T) {
	a := oneSymbolArchive(100)
	sections := builtSections(t, a)
	if got := len(sections[1]) + len(sections[2]) + len(sections[4]); got > 140 {
		t.Fatalf("the one-symbol sections take %d bytes, want padding only", got)
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
	bombs := map[string][][]byte{
		"short template count":         {sections[0], slices.Concat(huge, []byte{1}), sections[2], sections[3], sections[4]},
		"short template group length":  {sections[0], slices.Concat([]byte{1, 1}, huge), sections[2], sections[3], sections[4]},
		"short template length":        {withLength(1<<30, math.MaxInt32), []byte{1, 1, 4, 0, 0, 0, 0}, sections[2], sections[3], sections[4]},
		"short template of no packets": {withLength(0, 50), []byte{1, 1, 1, 0}, sections[2], sections[3], sections[4]},
		"long template length":         {sections[0], sections[1], append([]byte{1}, huge...), sections[3], sections[4]},
		"time-seq count":               {sections[0], sections[1], sections[2], sections[3], append(slices.Clone(huge), sections[4][1:]...)},
	}
	for name, parts := range bombs {
		input := bytes.Join(parts, nil)
		var err error
		alloc := allocBytes(func() { _, err = decodeArchive(input) })
		rejectedAs(t, name, err, ErrBadArchive)
		if alloc >= 1<<20 {
			t.Errorf("%s: rejecting %d bytes allocated %.0f, want under 1 MiB", name, len(input), alloc)
		}
		if why := map[string]string{"short template length": "items in a 4-byte group", "short template of no packets": "of 0 packets"}[name]; !strings.Contains(err.Error(), why) {
			t.Errorf("%s: %v, want %q", name, err, why)
		}
	}

	// The footer's share: one group, one template of each kind and the
	// postings of one address, over one-symbol tables — the short template
	// group's offset 3 (past the template count and the group size), the long
	// template's 1, the time-seq group's 3 (past the record count and the
	// group size), its
	// timestamps 0 and its new address 1, every list one long, from group 0,
	// with no gaps — so the footer's run is empty; and the same tables under
	// counts of 1<<28 addresses or postings, 1<<20 short templates, and under
	// a flow count of 1<<28. An address list is bounded by the address
	// section, a template by its section, a posting by the flow count, which
	// the time-seq section bounds.
	a.Index = IndexConfig{Enabled: true}
	c := encodeBytes(t, a)
	x, bodyLen := footerIndex(c)
	one := func(v uint64) []byte { return columnTable(0, [2]uint64{v, 0}) }
	withPostings := func(x *archiveIndex, addrs, postings int) []byte {
		p := slices.Concat(x.appendHead(nil, addrs, postings, predPrevious), one(3), one(1), one(3), one(0), one(0), one(1),
			one(1), one(0), columnTable(0))
		return append(bytes.Clone(c[:bodyLen]), appendTrailer(p)...)
	}
	if valid := withPostings(x, 1, 1); !bytes.Equal(valid, c) {
		t.Fatal("the hand-written footer is not the one Encode wrote")
	}
	manyFlows := *x
	manyFlows.flows = maxCount
	// The head ends in the counts of short templates, long templates,
	// addresses and postings, one byte each here, and the prediction.
	p := c[bodyLen : len(c)-trailerLen]
	at := len(x.appendHead(nil, 1, 1, predPrevious)) - 5
	p = slices.Concat(p[:at], binary.AppendUvarint(nil, 1<<20), p[at+1:])
	manyShort := append(bytes.Clone(c[:bodyLen]), appendTrailer(p)...)
	for name, input := range map[string][]byte{
		"footer address count":        withPostings(x, maxCount, maxCount),
		"footer postings count":       withPostings(x, 1, maxCount),
		"footer flow count":           withPostings(&manyFlows, 1, maxCount),
		"footer short template count": manyShort,
	} {
		var err error
		alloc := decodeAlloc(t, name, input, func() { _, err = OpenReader(bytes.NewReader(input), int64(len(input))) })
		rejectedAs(t, name, err, ErrBadIndex)
		if alloc >= 1<<20 {
			t.Errorf("%s: rejecting %d bytes allocated %.0f, want under 1 MiB", name, len(input), alloc)
		}
	}
}

// decodeAlloc runs decode, which decodes input, and fails t unless what it
// allocates is within the bound every container decoder keeps:
// maxDecodeAmplification bytes per input byte plus lookupBudget. It returns
// what decode allocated.
func decodeAlloc(t testing.TB, what string, input []byte, decode func()) float64 {
	t.Helper()
	alloc := allocated(decode)
	if limit := float64(maxDecodeAmplification*len(input) + lookupBudget); alloc > limit {
		t.Errorf("%s: decoding %d bytes allocated %.0f, bound %.0f", what, len(input), alloc, limit)
	}
	return alloc
}

// TestNewAddressPastTheDataset: each time-seq new-address symbol names the
// next address of the dataset; one more of them than the dataset holds names
// an address that is not there, which Decode and LoadDatasets refuse like
// any other dangling index, and OpenReader at the footer that counts them.
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
	dir := t.TempDir()
	for i, name := range datasetFiles {
		if err := os.WriteFile(filepath.Join(dir, name), sections[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err = LoadDatasets(dir)
	rejectedAs(t, "LoadDatasets", err, ErrBadArchive)

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
			t.Errorf("%s: rejecting %d bytes allocated %.0f, want under 1 MiB", name, len(tc.input), alloc)
		}
		if _, err := Decode(bytes.NewReader(tc.input)); err != nil {
			t.Errorf("%s: Decode read the footer: %v", name, err)
		}
	}
}

// TestDecodeAmplificationBounded states the bound the run padding buys: what
// Decode allocates is at most maxDecodeAmplification bytes per input byte
// plus the lookup tables, on the input built to reach it — every record zero
// bits, so a 4 KiB container holds some 30 000 of them. The Reader's share is
// TestReaderGroupCountBounded, over the same one-symbol columns.
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
		t.Fatalf("decoding %d bytes allocated %.0f, want under 1 MiB", len(body), alloc)
	}

	r := openReader(t, hugeGroupCount(input, 1<<27))
	alloc = allocBytes(func() { _, err = r.ExtractFlows(FlowFilter{}) })
	rejectedAs(t, "huge count over a zero-bit group", err, ErrBadIndex)
	if alloc >= 1<<20 {
		t.Fatalf("rejecting the group allocated %.0f bytes, want under 1 MiB", alloc)
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
	a.forEachValue(recs, true, false, &cs.gaps, cs.rtts, func(c, ctx int, v uint64) {
		if c == col && ctx != drop {
			h.Add(ctx, v)
		}
	})
	return h.Encoder(rans)
}

// bodySections returns the five body sections of the indexed container c, the
// header's footer flag cleared: what SaveDatasets writes for it.
func bodySections(c []byte) [][]byte {
	x, _ := footerIndex(c)
	s := x.sections
	var out [][]byte
	for _, n := range []int64{s.Header, s.ShortTemplates, s.LongTemplates, s.Addresses, s.TimeSeq} {
		out, c = append(out, slices.Clone(c[:n])), c[n:]
	}
	out[0][len(magic)+1] &^= flagIndexed
	return out
}

// TestValueWithoutContextTable: a template value whose context has no table
// fails closed, in each of the three template columns and, in the f columns,
// in the first context and in each tail context, read from the bit runs
// the hand-built archive's short templates and gaps take and from the rANS
// runs its long templates' f values take — ErrBadArchive from Decode and
// LoadDatasets, ErrBadIndex from a Reader's query — rather than decoding as a
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

		dir := t.TempDir()
		for i, section := range bodySections(bad) {
			if err := os.WriteFile(filepath.Join(dir, datasetFiles[i]), section, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, err = LoadDatasets(dir)
		rejectedAs(t, name+" (LoadDatasets)", err, ErrBadArchive)
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
		alloc := allocBytes(func() { _, err = decodeArchive(input) })
		if err != nil {
			t.Fatalf("%d tables of %s per column: %v", fits, name, err)
		}
		if alloc > lookupBudget {
			t.Errorf("%d tables of %s per column allocated %.0f bytes, budget %d", fits, name, alloc, lookupBudget)
		}
		for _, n := range []int{fits + 1, wire.ChainContexts} {
			input := container(n, f, huffman)
			alloc := allocBytes(func() { _, err = decodeArchive(input) })
			rejectedAs(t, fmt.Sprintf("%d tables of %s per column", n, name), err, ErrBadArchive)
			if alloc >= 1<<20 {
				t.Errorf("rejecting %d tables of %s per column in %d bytes allocated %.0f, want under 1 MiB", n, name, len(input), alloc)
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
// byte left over behind it fail closed: ErrBadArchive from Decode and
// LoadDatasets, ErrBadIndex from a Reader's query, and no panic.
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
		dir := t.TempDir()
		for i, section := range bodySections(bad) {
			if err := os.WriteFile(filepath.Join(dir, datasetFiles[i]), section, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		_, err = LoadDatasets(dir)
		rejectedAs(t, name+" (LoadDatasets)", err, ErrBadArchive)
	}
}
