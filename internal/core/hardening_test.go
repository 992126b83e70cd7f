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
	idx := newArchiveIndex(a, 1)
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
	idx.addRecord(0, int64(len(ts)), min(delta, maxIndexUS), 0, false)
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
	x, err := parseArchiveIndex(c[bodyLen:len(c)-trailerLen], int64(len(c)), c[len(magic)])
	if err != nil {
		panic(err)
	}
	return x, bodyLen
}

// resigned returns body followed by x, written in the footer format body's
// container version carries and signed.
func resigned(body []byte, x *archiveIndex) []byte {
	payload := x.appendPayload(nil)
	if footerVersion(body[len(magic)]) == 1 {
		payload = appendPayloadV1(nil, x)
	}
	return append(slices.Clone(body), appendTrailer(payload)...)
}

// hugeGroupCount returns c with a re-signed footer whose group 0 claims n
// records over the few bytes it has; the flow count is raised to match, so
// the footer parses.
func hugeGroupCount(c []byte, n int) []byte {
	x, bodyLen := footerIndex(c)
	x.flows += n - x.groups[0].count
	x.groups[0].count = n
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
// re-signed footer claiming 1<<27 records (4 GiB of them) in a group of a few
// bytes must be refused before the make.
func TestReaderGroupCountBounded(t *testing.T) {
	v2, _ := corruptionContainer(t)
	r := openReader(t, hugeGroupCount(v2, 1<<27))
	var err error
	alloc := allocBytes(func() { _, err = r.ExtractFlows(FlowFilter{}) })
	rejectedAs(t, "huge group count", err, ErrBadIndex)
	if alloc >= 1<<20 {
		t.Fatalf("rejecting the group allocated %.0f bytes, want under 1 MiB", alloc)
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

// The column-coded container (version 3): counts are bounded by the bytes of
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

// TestDecodeZeroBitCountsBounded: the three counts a version 3 body sizes a
// slice from — a short template's, a long template's, the time-seq section's
// — each raised to 1<<28 over one-symbol tables, where no code would ever run
// the input out. Each must be refused as ErrBadArchive before the make.
func TestDecodeZeroBitCountsBounded(t *testing.T) {
	a := oneSymbolArchive(100)
	sections := builtSections(t, a)
	if got := len(sections[1]) + len(sections[2]) + len(sections[4]); got > 140 {
		t.Fatalf("the one-symbol sections take %d bytes, want padding only", got)
	}
	huge := binary.AppendUvarint(nil, maxCount)
	bombs := map[string][][]byte{
		"short template length": {sections[0], append([]byte{1}, huge...), sections[2], sections[3], sections[4]},
		"long template length":  {sections[0], sections[1], append([]byte{1}, huge...), sections[3], sections[4]},
		"time-seq count":        {sections[0], sections[1], sections[2], sections[3], append(slices.Clone(huge), sections[4][1:]...)},
	}
	for name, parts := range bombs {
		input := bytes.Join(parts, nil)
		var err error
		alloc := allocBytes(func() { _, err = decodeArchive(input) })
		rejectedAs(t, name, err, ErrBadArchive)
		if alloc >= 1<<20 {
			t.Errorf("%s: rejecting %d bytes allocated %.0f, want under 1 MiB", name, len(input), alloc)
		}
	}

	// The footer's share: the postings of one address in one group, over
	// one-symbol tables (every list one long, starting at group 0, no gaps),
	// and the same tables under counts of 1<<28 addresses or postings. An
	// address list is bounded by the address section, a posting by the run.
	a.Index = IndexConfig{Enabled: true}
	c := encodeBytes(t, a)
	x, bodyLen := footerIndex(c)
	withPostings := func(addrs, postings uint64) []byte {
		p := binary.AppendUvarint(x.appendHead(nil, indexVersion), addrs)
		p = binary.AppendUvarint(p, postings)
		p = slices.Concat(p, columnTable(0, [2]uint64{1, 0}), columnTable(0, [2]uint64{0, 0}), columnTable(0), []byte{0})
		return append(bytes.Clone(c[:bodyLen]), appendTrailer(p)...)
	}
	if valid := withPostings(1, 1); !bytes.Equal(valid, c) {
		t.Fatal("the hand-written postings are not the ones Encode wrote")
	}
	for name, input := range map[string][]byte{
		"footer address count":  withPostings(maxCount, maxCount),
		"footer postings count": withPostings(1, maxCount),
	} {
		var err error
		alloc := allocBytes(func() { _, err = OpenReader(bytes.NewReader(input), int64(len(input))) })
		rejectedAs(t, name, err, ErrBadIndex)
		if limit := float64(maxDecodeAmplification*len(input) + lookupBudget); alloc > limit || alloc >= 1<<20 {
			t.Errorf("%s: rejecting %d bytes allocated %.0f, bound %.0f and 1 MiB", name, len(input), alloc, limit)
		}
	}
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
	c := a.columnEncoders(recs, true, new(encodeBuffers))
	var scratch []byte
	ts := appendTimeSeq(nil, recs, 1, &c.enc, nil, &scratch)
	if run := ts[len(ts)-4:]; !bytes.Equal(run, []byte{0, 0, 0, 0}) || ts[len(ts)-5] != 4 {
		t.Fatalf("time-seq section %x, want a 4-byte run of zeros at its end", ts)
	}
	ts[len(ts)-1] |= 1
	input := slices.Concat(appendHeader(nil, a, 0, c), appendShortTemplates(nil, a.ShortTemplates, c, nil),
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
		if x.groups[i].newAddrs > 0 {
			g = i
		}
	}
	if g < 0 {
		t.Fatal("no group past the first introduces an address")
	}
	x.groups[g].newAddrs--
	x.groups[g+1].newAddrs++
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
	alloc := allocBytes(func() { d, err = decodeArchive(body) })
	if err != nil || d.Flows() != 30000 {
		t.Fatalf("decode: %v", err)
	}
	if limit := float64(maxDecodeAmplification*len(body) + lookupBudget); alloc > limit || alloc >= 1<<20 {
		t.Fatalf("decoding %d bytes allocated %.0f, bound %.0f and 1 MiB", len(body), alloc, limit)
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
func withTable(t *testing.T, c []byte, col int, table []byte) []byte {
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

// withPostingsTable returns the indexed version 4 container c with the
// footer table of postings column col replaced, re-signed.
func withPostingsTable(t *testing.T, c []byte, col int, table []byte) []byte {
	t.Helper()
	x, bodyLen := footerIndex(c)
	post := x.appendPostings(nil)
	pc := wire.NewCursor(post, ErrBadIndex)
	for _, what := range []string{"address count", "postings count"} {
		if _, err := pc.Uvarint(what); err != nil {
			t.Fatal(err)
		}
	}
	start := len(post) - pc.Len()
	for i := range col {
		start += x.tables[i]
	}
	payload := slices.Concat(x.appendHead(nil, indexVersion), post[:start], table, post[start+x.tables[col]:])
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
// postings column of the footer it fails OpenReader.
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
	// time-seq and the footer's postings are Huffman-coded.
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
	// The footer's three postings tables: OpenReader and Inspect refuse the
	// container; Decode, which never reads the footer, does not.
	for col := 0; col < numPostingCols; col++ {
		if same := withPostingsTable(t, c, col, c[:0]); len(same) >= len(c) {
			t.Fatalf("withPostingsTable did not shrink the footer of %s", postingColumns[col])
		}
		postings := maps.Clone(hostile)
		postings["an rANS table"] = halves
		for name, table := range postings {
			bad := withPostingsTable(t, c, col, table)
			_, err := OpenReader(bytes.NewReader(bad), int64(len(bad)))
			rejectedAs(t, fmt.Sprintf("%s, %s table (OpenReader)", name, postingColumns[col]), err, ErrBadIndex)
			_, _, err = Inspect(bad)
			rejectedAs(t, fmt.Sprintf("%s, %s table (Inspect)", name, postingColumns[col]), err, ErrBadIndex)
			if _, err := Decode(bytes.NewReader(bad)); err != nil {
				t.Fatalf("%s, %s table: Decode read the footer: %v", name, postingColumns[col], err)
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
	a.forEachValue(sortedTimeSeq(a.TimeSeq), containerVersion, func(c, ctx int, v uint64) {
		if c == col && ctx != drop {
			h.Add(ctx, v)
		}
	})
	return h.Encoder(rans)
}

// bodySections returns the five body sections of the indexed container c, the
// header's flags byte cleared: what SaveDatasets writes for it.
func bodySections(c []byte) [][]byte {
	x, _ := footerIndex(c)
	s := x.sections
	var out [][]byte
	for _, n := range []int64{s.Header, s.ShortTemplates, s.LongTemplates, s.Addresses, s.TimeSeq} {
		out, c = append(out, slices.Clone(c[:n])), c[n:]
	}
	out[0][len(magic)+1] = 0
	return out
}

// TestValueWithoutContextTable: a template value whose context has no table
// fails closed, in each of the three template columns, read from bit runs
// (version 5) and from the rANS runs the hand-built archive's long templates
// take — ErrBadArchive from Decode and LoadDatasets, ErrBadIndex from a
// Reader's query — rather than decoding as a zero or panicking. The header
// alone is valid, so a Reader opens.
func TestValueWithoutContextTable(t *testing.T) {
	a := handBuiltArchive()
	a.Index = IndexConfig{Enabled: true, GroupSize: 4}
	for version, c := range map[int][]byte{5: encodeV5(t, a), containerVersion: encodeBytes(t, a)} {
		_, info, err := Inspect(c)
		if err != nil {
			t.Fatal(err)
		}
		if rans := info.Flushes.LongTemplates != 0; rans != (version == containerVersion) {
			t.Fatalf("version %d: rANS long templates %v", version, rans)
		}
		rans := [numContextCols]bool{info.Flushes.ShortTemplates != 0, info.Flushes.LongTemplates != 0}
		// Context 0 holds every template's first value; the gaps of long
		// template 1 (0, 1, 2, ...) start under context 1.
		for col, drop := range [numContextCols]int{0, 0, 1} {
			name := fmt.Sprintf("version %d: %s without context %d", version, columns[col].what, drop)
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
}

// TestContextLookupBudget: the tables of one template column may ask for
// wire.MaxContextLookup bytes of lookup together, and a decoder refuses more
// before it builds them. A header giving every context of every template
// column a table of 12-bit codes, or the f columns tables of scale 12 — 770
// tables of a dozen bytes, each asking for 8 or 16 KiB — is refused having
// allocated under 1 MiB; as many of those tables per column as the budget
// holds are accepted, and decode within lookupBudget, the f columns' direct
// tables laid out once, in their chains. A version 5 header may not carry the
// rANS ones at all, and no header may give one to the gap column.
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
	container := func(version byte, perColumn int, f, gap []byte) []byte {
		a := &Archive{Opts: DefaultOptions()}
		c := a.columnEncoders(nil, true, new(encodeBuffers))
		b := appendHeaderFields(nil, a, version, 0)
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
		// No templates, no addresses, no records in groups of one.
		return append(b, 0, 0, 0, 0, 1)
	}
	for name, f := range map[string][]byte{"12-bit codes": huffman, "scale-12 rANS": rans} {
		fits := wire.MaxContextLookup / (2 << wire.MaxCodeLen)
		if f[0] != 0 {
			fits /= 2 // an rANS lookup entry is four bytes
		}
		input := container(containerVersion, fits, f, huffman)
		var err error
		alloc := allocBytes(func() { _, err = decodeArchive(input) })
		if err != nil {
			t.Fatalf("%d tables of %s per column: %v", fits, name, err)
		}
		if alloc > lookupBudget {
			t.Errorf("%d tables of %s per column allocated %.0f bytes, budget %d", fits, name, alloc, lookupBudget)
		}
		for _, n := range []int{fits + 1, wire.ChainContexts} {
			input := container(containerVersion, n, f, huffman)
			alloc := allocBytes(func() { _, err = decodeArchive(input) })
			rejectedAs(t, fmt.Sprintf("%d tables of %s per column", n, name), err, ErrBadArchive)
			if alloc >= 1<<20 {
				t.Errorf("rejecting %d tables of %s per column in %d bytes allocated %.0f, want under 1 MiB", n, name, len(input), alloc)
			}
		}
		if _, err := decodeArchive(container(5, fits, f, huffman)); (err == nil) != (f[0] == 0) {
			t.Errorf("%d tables of %s per column in a version 5 header: err = %v", fits, name, err)
		}
	}
	_, err := decodeArchive(container(containerVersion, 1, huffman, rans))
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
