package core

import (
	"bytes"
	"io"
	"slices"
	"testing"
)

// fuzzSeeds holds real containers of every version as fuzz seeds — version 1,
// version 2 (indexed), versions 3 to 6 plain and indexed, an indexed version 6
// sweep whose every address is new, the bulk shape, whose long templates
// version 6 codes through an rANS state, plain and indexed, and short flows
// that each found a template, whose tags version 6 codes with the
// new-template symbols, plain and indexed — so the mutator starts from deep
// inside the valid formats instead of rediscovering the magic bytes.
type fuzzSeeds struct{ v1, v2, v3, v3i, v4, v4i, v5, v5i, v6, v6i, allNew, rans, ransi, flagged, flaggedi []byte }

func fuzzSeedContainers(f *testing.F) fuzzSeeds {
	f.Helper()
	tr := webTrace(61, 80)
	a, err := Compress(tr, DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	var s fuzzSeeds
	a.Index = IndexConfig{GroupSize: 16}
	s.v1, s.v3, s.v4, s.v5, s.v6 = encodeLegacy(f, a), encodeV3(f, a), encodeV4(f, a), encodeV5(f, a), encodeBytes(f, a)
	a.Index.Enabled = true
	s.v2, s.v3i, s.v4i, s.v5i, s.v6i = encodeLegacy(f, a), encodeV3(f, a), encodeV4(f, a), encodeV5(f, a), encodeBytes(f, a)
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

// FuzzDecode throws arbitrary bytes at the container parser: it must never
// panic and never allocate beyond its input, and anything it accepts must be
// a valid archive that re-encodes.
func FuzzDecode(f *testing.F) {
	s := fuzzSeedContainers(f)
	f.Add(s.v1)
	f.Add(s.v2)
	f.Add(s.v1[:len(s.v1)/2])
	f.Add(s.v2[:len(s.v2)-trailerLen/2])
	f.Add([]byte{})
	f.Add([]byte("FZT1\x01"))
	f.Add([]byte("FZT1\x02"))
	f.Add(s.v3)
	f.Add(s.v3i)
	f.Add(s.v3[:len(s.v3)/2])
	f.Add([]byte("FZT1\x03\x00"))
	f.Add(s.v4)
	f.Add(s.v4i)
	f.Add(s.v4[:len(s.v4)/2])
	f.Add([]byte("FZT1\x04\x00"))
	f.Add(s.v5)
	f.Add(s.v5i)
	f.Add(s.v5[:len(s.v5)/2])
	f.Add(s.allNew)
	f.Add([]byte("FZT1\x05\x00"))
	// Zero-bit columns: the run padding is all that bounds the counts.
	f.Add(encodeBytes(f, oneSymbolArchive(300)))
	f.Add(s.v6)
	f.Add(s.v6i)
	f.Add([]byte("FZT1\x06\x00"))
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
	f.Add(s.v1)
	f.Add(s.v2)
	f.Add(s.v2[:len(s.v2)-1])
	flipped := append([]byte(nil), s.v2...)
	flipped[len(flipped)-5] ^= 0xff
	f.Add(flipped)
	f.Add([]byte("FZT1\x02FZIX"))
	// What only a query finds: a footer lying about a group's size (by less
	// than the flow bound below), and a group whose bytes are not what the
	// footer describes.
	f.Add(hugeGroupCount(s.v2, 4000))
	f.Add(flippedGroupByte(s.v2, 1))
	// The same over the column-coded containers.
	for _, c := range [][]byte{s.v3i, s.v4i, s.v5i, s.allNew} {
		f.Add(c)
		f.Add(c[:len(c)-1])
		f.Add(hugeGroupCount(c, 4000))
		f.Add(flippedGroupByte(c, 1))
	}
	f.Add(s.v3)
	f.Add(s.v4)
	f.Add(s.v5)
	f.Add([]byte("FZT1\x03\x01FZIX"))
	f.Add([]byte("FZT1\x04\x01FZIX"))
	f.Add([]byte("FZT1\x05\x01FZIX"))
	zero := oneSymbolArchive(300)
	zero.Index = IndexConfig{Enabled: true, GroupSize: 16}
	f.Add(hugeGroupCount(encodeBytes(f, zero), 4000))
	for _, c := range [][]byte{s.v6i, s.ransi} {
		f.Add(c)
		f.Add(c[:len(c)-1])
		f.Add(hugeGroupCount(c, 4000))
		f.Add(flippedGroupByte(c, 0))
	}
	f.Add(s.v6)
	f.Add(flippedLongState(s.ransi))
	f.Add([]byte("FZT1\x06\x01FZIX"))
	// Footer format 4 under each prediction — the web archive codes its
	// lists' first groups from the list before, the sweep from the group
	// that introduces the address; both are seeds above — and with the
	// postings run cut short.
	if x, _ := footerIndex(s.v6i); x.pred != predPrevious {
		f.Fatalf("the web seed's footer has prediction %d", x.pred)
	}
	if x, _ := footerIndex(s.allNew); x.pred != predFresh {
		f.Fatalf("the sweep seed's footer has prediction %d", x.pred)
	}
	f.Add(cutPostingsRun(s.v6i))
	// Footer format 4 with the new-template counts, and the flag in front of
	// a format 3 footer.
	f.Add(s.flagged)
	f.Add(s.flaggedi)
	f.Add(s.flaggedi[:len(s.flaggedi)-1])
	f.Add(flippedGroupByte(s.flaggedi, 1))
	x, bodyLen := footerIndex(s.flaggedi)
	f.Add(append(slices.Clone(s.flaggedi[:bodyLen]), appendTrailer(footerPayload(x, 3))...))
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
