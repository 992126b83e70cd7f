package core

import (
	"bytes"
	"io"
	"slices"
	"testing"
)

// fuzzSeeds holds real containers as fuzz seeds — the same Web archive in
// every layout the decoders read, plain and indexed, an indexed version 6
// sweep whose every address is new, the bulk shape, whose long templates
// version 6 codes through an rANS state, plain and indexed, and short flows
// that each found a template, whose tags version 6 codes with the
// new-template symbols, plain and indexed — so the mutator starts from deep
// inside the formats instead of rediscovering the magic bytes.
//
// Three checked-in seeds were built by hand in a version 3 or 4 container;
// the decoders refuse those now, and a seed below carries each one's
// property: seed_v3_zero_bit_columns is oneSymbolArchive's container,
// seed_v3_zero_bit_group_bomb hugeGroupCount over it, and
// seed_v4_all_new_addresses the sweep (allNew). The other version 3 to 5
// seeds stay as what they now are, containers the version check refuses.
type fuzzSeeds struct {
	plain, indexed                         [len(layouts)][]byte
	allNew, rans, ransi, flagged, flaggedi []byte
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
	distinct, s.flaggedi = flagged(f, distinctTrace(9, 200), 16)
	distinct.Index.Enabled = false
	s.flagged = encodeBytes(f, distinct)
	return s
}

// relabeled returns container c with its version byte set to v.
func relabeled(c []byte, v byte) []byte {
	c = slices.Clone(c)
	c[len(magic)] = v
	return c
}

// FuzzDecode throws arbitrary bytes at the container parser: it must never
// panic and never allocate beyond its input, and anything it accepts must be
// a valid archive that re-encodes.
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
	// What the decoders refuse: versions 3 to 5, in front of a version 6 body
	// and bare, and each layout's body under the other's version.
	for v := byte(3); v < containerVersion; v++ {
		f.Add(relabeled(s.plain[1], v))
		f.Add(relabeled(s.indexed[1], v))
		f.Add([]byte{'F', 'Z', 'T', '1', v, 0})
	}
	f.Add(relabeled(s.plain[0], containerVersion))
	f.Add(relabeled(s.plain[1], 1))
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := Decode(bytes.NewReader(b))
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
	for _, c := range [][]byte{s.indexed[0], s.indexed[1], s.allNew, s.ransi, s.flaggedi, encodeBytes(f, zero)} {
		f.Add(c)
		f.Add(c[:len(c)-1])
		f.Add(hugeGroupCount(c, 4000))
		f.Add(flippedGroupByte(c, 0))
	}
	for _, c := range [...][]byte{s.plain[0], s.plain[1], s.rans, s.flagged} {
		f.Add(c)
	}
	flipped := slices.Clone(s.indexed[0])
	flipped[len(flipped)-5] ^= 0xff
	f.Add(flipped)
	f.Add([]byte("FZT1\x02FZIX"))
	f.Add([]byte("FZT1\x06\x01FZIX"))
	f.Add(flippedLongState(s.ransi))
	// Footer format 5 under each prediction — the web archive codes its
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
	// What the decoders refuse: versions 3 to 5, in front of a version 6 body
	// and bare; footer formats 2 to 4 behind version 6, with the new-template
	// symbols and without; and each layout's body under the other's version.
	for v := byte(3); v < containerVersion; v++ {
		f.Add(relabeled(s.plain[1], v))
		f.Add(relabeled(s.indexed[1], v))
		f.Add([]byte{'F', 'Z', 'T', '1', v, flagIndexed, 'F', 'Z', 'I', 'X'})
	}
	for _, format := range []byte{2, 3, 4} {
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
