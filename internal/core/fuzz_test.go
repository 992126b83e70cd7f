package core

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/wire"
)

// fuzzSeeds holds real containers as fuzz seeds — the same Web archive in
// every layout the decoders read, plain and indexed, an indexed version 9
// sweep whose every address is new, the bulk shape, whose long templates
// version 9 codes through an rANS state, plain and indexed, short flows that
// each found a template, whose tags version 9 codes with the new-template
// symbols and whose short template groups are rANS runs, plain and indexed,
// the largest short template group of zero-bit lengths and values, plain and
// indexed, long templates whose gaps are coded against their RTTs with
// residuals of both signs at both ends of the range (rttExtremes), plain and
// indexed, templates whose every value is in a tail context (tailsOnly),
// plain and indexed, and that indexed container with a tail table left out
// of its header, once for each f column — so the mutator starts from deep
// inside the formats instead of rediscovering the magic bytes.
//
// The hand-built properties of the checked-in seed_v* files, which were
// written in containers the decoders now refuse and replay as version
// refusals, are built here in today's container: zero-bit columns
// (oneSymbolArchive, and zeroBitGroup), a group count over them that the
// group's bytes cannot hold (hugeGroupCount) and the sweep (allNew).
type fuzzSeeds struct {
	plain, indexed                         [len(layouts)][]byte
	allNew, rans, ransi, flagged, flaggedi []byte
	zeroGroup, zeroGroupi                  []byte
	rtt, rtti                              []byte
	tails, tailsi                          []byte
	noTail                                 [][]byte
}

// tailsOnly is an archive whose every template value is coded under a tail
// context: short templates of one and two packets and a long template of two.
func tailsOnly() *Archive {
	a := &Archive{
		Opts:           DefaultOptions(),
		ShortTemplates: []flow.Vector{{7}, {7, 9}, {3}, {12, 200}},
		LongTemplates:  []LongTemplate{{F: flow.Vector{21, 53}, Gaps: []time.Duration{300 * time.Microsecond}}},
		Addresses:      []pkt.IPv4{0x0a000001},
	}
	for i := range 6 {
		r := TimeSeqRecord{FirstTS: time.Duration(i) * time.Millisecond, Template: uint32(i % 4), RTT: time.Millisecond}
		if i == 5 {
			r = TimeSeqRecord{FirstTS: r.FirstTS, Long: true}
		}
		a.TimeSeq = append(a.TimeSeq, r)
	}
	return a
}

// zeroBitGroup is the most short templates a group holds per byte: n
// templates of one packet, all alike, so every length and every value is
// zero bits long, in one group of them all.
func zeroBitGroup(n int) *Archive {
	return &Archive{
		Opts:           DefaultOptions(),
		ShortTemplates: slices.Repeat([]flow.Vector{{7}}, n),
		Addresses:      []pkt.IPv4{0x0a000001},
		TimeSeq:        []TimeSeqRecord{{}},
		Index:          IndexConfig{GroupSize: n},
	}
}

func fuzzSeedContainers(f *testing.F) fuzzSeeds {
	f.Helper()
	tr := webTrace(61, 80)
	a, err := Compress(tr, DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	var s fuzzSeeds
	for i, l := range layouts {
		a.Index = IndexConfig{GroupSize: 16}
		s.plain[i] = l.encode(f, a)
		a.Index.Enabled = true
		s.indexed[i] = l.encode(f, a)
	}
	scan, err := Compress(scanTrace(64), DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	scan.Index = IndexConfig{Enabled: true, GroupSize: 16}
	s.allNew = encodeBytes(f, scan)
	bulk, err := Compress(bulkTrace(3, 400), DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	bulk.Index = IndexConfig{GroupSize: 16}
	s.rans = encodeBytes(f, bulk)
	bulk.Index.Enabled = true
	s.ransi = encodeBytes(f, bulk)
	if _, info, err := Inspect(s.ransi); err != nil || info.Flushes.LongTemplates == 0 {
		f.Fatalf("the bulk seed's long templates are not rANS-coded: %v", err)
	}
	var distinct *Archive
	distinct, s.flaggedi = flagged(f, distinctTrace(9, 200), 64)
	distinct.Index.Enabled = false
	s.flagged = encodeBytes(f, distinct)
	if _, info, err := Inspect(s.flaggedi); err != nil || info.Flushes.ShortTemplates == 0 {
		f.Fatalf("the distinct seed's short templates are not rANS-coded: %v", err)
	}
	zero := zeroBitGroup(4000)
	s.zeroGroup = encodeBytes(f, zero)
	zero.Index.Enabled = true
	s.zeroGroupi = encodeBytes(f, zero)
	extremes := rttExtremes()
	s.rtt = encodeBytes(f, extremes)
	extremes.Index.Enabled = true
	s.rtti = encodeBytes(f, extremes)
	if s.rtti[len(magic)+1]&flagRTTGaps == 0 {
		f.Fatalf("the RTT seed's gaps are not coded against their RTTs: flags %#x", s.rtti[len(magic)+1])
	}
	tails := tailsOnly()
	s.tails = encodeBytes(f, tails)
	tails.Index.Enabled = true
	s.tailsi = encodeBytes(f, tails)
	for col, drop := range [...]int{colShortF: wire.ChainLast, colLongF: wire.ChainSecondLast} {
		c := withTable(f, s.tailsi, col, withoutContext(tails, col, drop, false).AppendTables(nil))
		if _, err := Decode(bytes.NewReader(c)); !errors.Is(err, ErrBadArchive) || !strings.Contains(err.Error(), "has no table") {
			f.Fatalf("%s without context %d: Decode = %v, want the missing table named", columns[col].what, drop, err)
		}
		s.noTail = append(s.noTail, c)
	}
	return s
}

// relabeled returns container c with its version byte set to v.
func relabeled(c []byte, v byte) []byte {
	c = slices.Clone(c)
	c[len(magic)] = v
	return c
}

// FuzzDecode throws arbitrary bytes at the container parser: it must never
// panic and never allocate beyond the decode bound (decodeAlloc), and
// anything it accepts must be a valid archive that re-encodes.
func FuzzDecode(f *testing.F) {
	s := fuzzSeedContainers(f)
	f.Add([]byte{})
	for i := range layouts {
		p, c := s.plain[i], s.indexed[i]
		f.Add(p)
		f.Add(c)
		f.Add(p[:len(p)/2])
		f.Add(c[:len(c)-trailerLen/2])
		f.Add(c[:len(magic)+1])
	}
	// Zero-bit columns: the run padding is all that bounds the counts.
	f.Add(encodeBytes(f, oneSymbolArchive(300)))
	f.Add(s.zeroGroup)
	f.Add(s.allNew)
	// rANS runs: whole, cut inside a template, a state byte flipped.
	f.Add(s.rans)
	f.Add(s.rans[:len(s.rans)/2])
	f.Add(flippedLongState(s.ransi))
	// New-template symbols: whole, cut inside the time-seq, the flag cleared.
	f.Add(s.flagged)
	f.Add(s.flaggedi)
	f.Add(s.flagged[:len(s.flagged)-8])
	cleared := slices.Clone(s.flagged)
	cleared[len(magic)+1] &^= flagNewTemplates
	f.Add(cleared)
	// RTT-coded gaps: whole, cut inside the long-template section, the flag
	// cleared.
	f.Add(s.rtt)
	f.Add(s.rtti)
	x, _ := footerIndex(s.rtti)
	f.Add(s.rtt[:x.sections.Header+x.sections.ShortTemplates+x.sections.LongTemplates-3])
	unpredicted := slices.Clone(s.rtt)
	unpredicted[len(magic)+1] &^= flagRTTGaps
	f.Add(unpredicted)
	// Every template value in a tail context, and a tail table left out.
	f.Add(s.tails)
	f.Add(s.tailsi)
	for _, c := range s.noTail {
		f.Add(c)
	}
	// What the decoders refuse: versions 3 to 8, in front of a version 9 body
	// and bare, and each layout's body under the other's version.
	for v := byte(3); v < containerVersion; v++ {
		f.Add(relabeled(s.plain[1], v))
		f.Add(relabeled(s.indexed[1], v))
		f.Add([]byte{'F', 'Z', 'T', '1', v, 0})
	}
	f.Add(relabeled(s.plain[0], containerVersion))
	f.Add(relabeled(s.plain[1], 1))
	f.Fuzz(func(t *testing.T, b []byte) {
		var a *Archive
		var err error
		decodeAlloc(t, "Decode", b, func() { a, err = Decode(bytes.NewReader(b)) })
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("Decode accepted an archive its own Validate rejects: %v", err)
		}
		if _, err := a.Encode(io.Discard); err != nil {
			t.Fatalf("decoded archive does not re-encode: %v", err)
		}
	})
}

// FuzzOpenReader drives the indexed read path end to end on arbitrary bytes:
// open, index stats, and a full selective decode. Corrupt containers must
// fail with an error, never a panic or out-of-bounds read, and open must
// allocate within the decode bound (decodeAlloc) whether it fails or not.
func FuzzOpenReader(f *testing.F) {
	s := fuzzSeedContainers(f)
	zero := oneSymbolArchive(300)
	zero.Index = IndexConfig{Enabled: true, GroupSize: 16}
	// Every indexed seed whole and cut by a byte, and what only a query finds:
	// a footer lying about its first group's size (by less than the flow bound
	// below), and a group whose bytes are not what the footer describes.
	for _, c := range [][]byte{s.indexed[0], s.indexed[1], s.allNew, s.ransi, s.flaggedi, encodeBytes(f, zero), s.zeroGroupi, s.rtti, s.tailsi} {
		f.Add(c)
		f.Add(c[:len(c)-1])
		f.Add(hugeGroupCount(c, 4000))
		f.Add(flippedGroupByte(c, 0))
	}
	for _, c := range slices.Concat([][]byte{s.plain[0], s.plain[1], s.rans, s.flagged, s.zeroGroup, s.rtt, s.tails}, s.noTail) {
		f.Add(c)
	}
	flipped := slices.Clone(s.indexed[0])
	flipped[len(flipped)-5] ^= 0xff
	f.Add(flipped)
	f.Add([]byte("FZT1\x02FZIX"))
	f.Add([]byte("FZT1\x07\x01FZIX"))
	f.Add(flippedLongState(s.ransi))
	// Footer format 6 under each prediction — the web archive codes its
	// lists' first groups from the list before, the sweep from the group
	// that introduces the address; both are seeds above — and with the
	// postings run cut short.
	if x, _ := footerIndex(s.indexed[1]); x.pred != predPrevious {
		f.Fatalf("the web seed's footer has prediction %d", x.pred)
	}
	if x, _ := footerIndex(s.allNew); x.pred != predFresh {
		f.Fatalf("the sweep seed's footer has prediction %d", x.pred)
	}
	f.Add(cutPostingsRun(s.indexed[1]))
	// The most a footer can claim over a body: zero-bit columns, and as
	// many templates and groups as the sections hold bytes.
	big := oneSymbolArchive(30000)
	big.Index.Enabled = true
	most := mostGroups(encodeBytes(f, big))
	if x, _ := footerIndex(most); len(x.groups) < 3000 || x.tables[footGroupOff] != len(columnTable(0, [2]uint64{1, 0})) {
		f.Fatalf("the hand-built footer has %d groups", len(x.groups))
	}
	f.Add(most)
	// What the decoders refuse: versions 3 to 8, in front of a version 9 body
	// and bare; footer formats 2 to 5 behind version 9, with the new-template
	// symbols and without; and each layout's body under the other's version.
	for v := byte(3); v < containerVersion; v++ {
		f.Add(relabeled(s.plain[1], v))
		f.Add(relabeled(s.indexed[1], v))
		f.Add([]byte{'F', 'Z', 'T', '1', v, flagIndexed, 'F', 'Z', 'I', 'X'})
	}
	for _, format := range []byte{2, 3, 4, 5} {
		f.Add(refooted(s.indexed[1], format))
		f.Add(refooted(s.flaggedi, format))
	}
	f.Add(relabeled(s.indexed[0], containerVersion))
	f.Add(relabeled(s.indexed[1], 2))
	f.Fuzz(func(t *testing.T, b []byte) {
		var r *Reader
		var err error
		decodeAlloc(t, "OpenReader", b, func() { r, err = OpenReader(bytes.NewReader(b), int64(len(b))) })
		if err != nil {
			return
		}
		is := r.IndexStats()
		if is.ArchiveBytes != int64(len(b)) {
			t.Fatalf("index stats claim %d container bytes, input has %d", is.ArchiveBytes, len(b))
		}
		// Bound the decode work on accepted inputs: the mutator can in
		// principle re-sign a footer describing a large body.
		if r.Flows() > 1<<12 {
			return
		}
		if _, err := r.ExtractFlows(FlowFilter{}); err != nil {
			return
		}
	})
}
