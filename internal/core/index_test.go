package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"flowzip/internal/pkt"
	"flowzip/internal/trace"
)

// indexedArchive compresses tr serially and returns the archive stamped with
// the given index configuration plus its encoded container bytes.
func indexedArchive(t *testing.T, a *Archive, cfg IndexConfig) []byte {
	t.Helper()
	a.Index = cfg
	return encodeBytes(t, a)
}

// TestIndexedContainerBodyIdentical pins what the footer index costs the body:
// nothing. On a Web mix, P2P, fractal traffic and a SYN sweep, at the default
// group size and at 16, the indexed container is the plain one with the
// header's footer flag set and the footer appended — no other byte moves, the
// new-template flag included — and Decode ignores the footer.
func TestIndexedContainerBodyIdentical(t *testing.T) {
	for name, tr := range map[string]*trace.Trace{
		"web": webTrace(21, 400), "p2p": p2pTrace(22), "fractal": fractalTrace(23, 4000), "scan": scanTrace(2000),
	} {
		a, err := Compress(tr, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, gs := range []int{0, 16} {
			a.Index = IndexConfig{GroupSize: gs}
			plain := encodeBytes(t, a)
			indexed := indexedArchive(t, a, IndexConfig{Enabled: true, GroupSize: gs})
			if plain[4] != containerVersion || plain[5]&^(flagNewTemplates|flagRTTGaps) != 0 {
				t.Fatalf("%s: version and flags bytes %x", name, plain[4:6])
			}
			if len(indexed) <= len(plain) {
				t.Fatalf("%s: indexed (%d bytes) not larger than plain (%d bytes)", name, len(indexed), len(plain))
			}
			flagged := slices.Clone(plain)
			flagged[5] |= flagIndexed
			if !bytes.Equal(indexed[:len(plain)], flagged) {
				t.Fatalf("%s, group size %d: the body differs with the footer", name, gs)
			}

			// Decode must ignore the footer and produce the same archive,
			// flagging only that the container carried an index.
			a1, err := Decode(bytes.NewReader(plain))
			if err != nil {
				t.Fatal(err)
			}
			a2, err := Decode(bytes.NewReader(indexed))
			if err != nil {
				t.Fatal(err)
			}
			if a1.Index.Enabled || !a2.Index.Enabled {
				t.Fatalf("%s: Decode reports an index on %v and %v, want only the second", name, a1.Index, a2.Index)
			}
			a2.Index = a1.Index
			sameArchive(t, name+": indexed against plain", a2, a1)
		}
	}
}

func TestIndexConfigValidate(t *testing.T) {
	if err := (IndexConfig{GroupSize: -1}).Validate(); err == nil {
		t.Fatal("negative group size must be invalid")
	}
	if err := (IndexConfig{Enabled: true, GroupSize: 0}).Validate(); err != nil {
		t.Fatalf("default group size invalid: %v", err)
	}
	a, err := Compress(webTrace(22, 50), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a.Index = IndexConfig{Enabled: true, GroupSize: -3}
	if _, err := a.Encode(&bytes.Buffer{}); err == nil {
		t.Fatal("Encode accepted a negative index group size")
	}
}

func TestOpenReaderIndexStats(t *testing.T) {
	tr := webTrace(23, 400)
	a, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const groupSize = 64
	a.Index.GroupSize = groupSize
	plain := encodeBytes(t, a)
	fz := indexedArchive(t, a, IndexConfig{Enabled: true, GroupSize: groupSize})

	r, err := OpenReader(bytes.NewReader(fz), int64(len(fz)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Flows() != a.Flows() {
		t.Fatalf("reader flows = %d, archive has %d", r.Flows(), a.Flows())
	}
	is := r.IndexStats()
	if is.GroupSize != groupSize {
		t.Fatalf("group size = %d, want %d", is.GroupSize, groupSize)
	}
	if want := (a.Flows() + groupSize - 1) / groupSize; is.Groups != want {
		t.Fatalf("groups = %d, want %d", is.Groups, want)
	}
	if is.ArchiveBytes != int64(len(fz)) {
		t.Fatalf("archive bytes = %d, container has %d", is.ArchiveBytes, len(fz))
	}
	// The body is the container without a footer but for one flag bit, so the
	// split between body and footer is pinned by the two encodings.
	if is.BodyBytes != int64(len(plain)) {
		t.Fatalf("body bytes = %d, the container without a footer has %d", is.BodyBytes, len(plain))
	}
	if is.IndexBytes != int64(len(fz)-len(plain)) {
		t.Fatalf("index bytes = %d, want %d", is.IndexBytes, len(fz)-len(plain))
	}
	if is.Sections.Total() != int64(len(fz)) {
		t.Fatalf("sections total %d, container has %d", is.Sections.Total(), len(fz))
	}
	if is.ShortTemplates != len(a.ShortTemplates) || is.LongTemplates != len(a.LongTemplates) {
		t.Fatalf("indexed templates = %d/%d, archive has %d/%d",
			is.ShortTemplates, is.LongTemplates, len(a.ShortTemplates), len(a.LongTemplates))
	}
	if is.Addresses != len(a.Addresses) {
		t.Fatalf("indexed addresses = %d, archive has %d", is.Addresses, len(a.Addresses))
	}

	st := r.Stats()
	if st.BodyBytesRead != 0 || st.GroupsDecoded != 0 {
		t.Fatalf("open touched the body: %+v", st)
	}
	if st.OpenBytes <= 0 || st.OpenBytes >= int64(len(fz)) {
		t.Fatalf("open bytes = %d of %d", st.OpenBytes, len(fz))
	}
}

// TestOpenReaderPlainArchiveErrNoIndex: a container without a footer index
// opens with ErrNoIndex, which says to decode it with Decode instead.
func TestOpenReaderPlainArchiveErrNoIndex(t *testing.T) {
	a, err := Compress(webTrace(24, 60), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	plain := encodeBytes(t, a)
	if _, err := OpenReader(bytes.NewReader(plain), int64(len(plain))); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("opening an archive without a footer = %v, want ErrNoIndex", err)
	}
}

func TestFlowFilterValidate(t *testing.T) {
	for _, f := range []FlowFilter{
		{PrefixLen: -1},
		{PrefixLen: 33},
		{From: -time.Second},
		{To: -time.Second},
		{From: 2 * time.Second, To: time.Second},
		{From: time.Second, To: time.Second},
	} {
		if err := f.Validate(); err == nil {
			t.Fatalf("filter %+v must be invalid", f)
		}
	}
	if err := (FlowFilter{Prefix: pkt.IPv4(0x0a000000), PrefixLen: 8, From: time.Second}).Validate(); err != nil {
		t.Fatalf("valid filter rejected: %v", err)
	}
}

// corruptionContainer builds a small indexed container plus the byte offset
// where its footer starts.
func corruptionContainer(t *testing.T) ([]byte, int) {
	t.Helper()
	a, err := Compress(webTrace(26, 150), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a.Index.GroupSize = 16
	bodyLen := len(encodeBytes(t, a))
	fz := indexedArchive(t, a, IndexConfig{Enabled: true, GroupSize: 16})
	return fz, bodyLen
}

// TestIndexFooterTruncation cuts the container at every byte of the footer
// region: every prefix must be rejected as corrupt — never decoded into a
// silently wrong archive, never a panic.
func TestIndexFooterTruncation(t *testing.T) {
	fz, bodyLen := corruptionContainer(t)
	for cut := bodyLen; cut < len(fz); cut++ {
		_, err := OpenReader(bytes.NewReader(fz[:cut]), int64(cut))
		if err == nil {
			t.Fatalf("container truncated to %d of %d bytes opened successfully", cut, len(fz))
		}
		if !errors.Is(err, ErrBadIndex) && !errors.Is(err, ErrBadArchive) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrBadIndex or ErrBadArchive", cut, err)
		}
	}
}

// TestIndexFooterByteFlips corrupts every single byte of the footer region in
// turn. The CRC-protected payload and the self-locating trailer must flag
// each one as ErrBadIndex.
func TestIndexFooterByteFlips(t *testing.T) {
	fz, bodyLen := corruptionContainer(t)
	for i := bodyLen; i < len(fz); i++ {
		c := append([]byte(nil), fz...)
		c[i] ^= 0xff
		_, err := OpenReader(bytes.NewReader(c), int64(len(c)))
		if err == nil {
			t.Fatalf("flipping footer byte %d (offset %d into footer) went undetected", i, i-bodyLen)
		}
		if !errors.Is(err, ErrBadIndex) {
			t.Fatalf("flipping footer byte %d: err = %v, want ErrBadIndex", i, err)
		}
	}
}

// TestIndexPayloadParseRejectsTampering re-signs tampered payloads so the
// corruption reaches the structural validator behind the CRC, covering the
// bounds the checksum would otherwise mask.
func TestIndexPayloadParseRejectsTampering(t *testing.T) {
	a, err := Compress(webTrace(26, 150), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a.Index = IndexConfig{Enabled: true, GroupSize: 16}
	c := encodeBytes(t, a)
	body := c[:len(c)-trailerLen-int(binary.LittleEndian.Uint32(c[len(c)-8:]))]
	payload := c[len(body) : len(c)-trailerLen]
	// Sanity: the untampered container opens.
	if _, err := OpenReader(bytes.NewReader(c), int64(len(c))); err != nil {
		t.Fatal(err)
	}

	// Flipping any payload byte and re-signing must never panic or
	// over-allocate: the structural validation (section tiling, offset
	// bounds, group coverage, postings counts) rejects the inconsistent
	// payloads at open, and the per-group timestamp and new-address
	// cross-checks catch index entries that lie about the body during
	// decode.
	rejected := 0
	for i := range payload {
		p := bytes.Clone(payload)
		p[i] ^= 0xff
		c := append(bytes.Clone(body), appendTrailer(p)...)
		r, err := OpenReader(bytes.NewReader(c), int64(len(c)))
		if err != nil {
			rejected++
			continue
		}
		if _, err := r.ExtractFlows(FlowFilter{}); err != nil {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no tampered payload was rejected — the structural validator cannot be wired in")
	}
}

// TestOpenReaderRejectsDuplicateAddress overwrites the second entry of the
// address dataset (in the body, which no checksum covers) with the first: the
// radix index would silently route both to the later index, so open must
// refuse the archive.
func TestOpenReaderRejectsDuplicateAddress(t *testing.T) {
	fz, _ := corruptionContainer(t)
	r, err := OpenReader(bytes.NewReader(fz), int64(len(fz)))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.addrs) < 2 || len(r.addrs) >= 128 {
		t.Fatalf("fixture has %d addresses, want 2..127 (a one-byte count)", len(r.addrs))
	}
	first := r.addrOff + 1 // past the one-byte uvarint address count
	c := append([]byte(nil), fz...)
	copy(c[first+4:first+8], c[first:first+4])
	_, err = OpenReader(bytes.NewReader(c), int64(len(c)))
	if !errors.Is(err, ErrBadIndex) || !strings.Contains(err.Error(), "duplicate address") {
		t.Fatalf("err = %v, want ErrBadIndex: duplicate address", err)
	}
}

// TestSelectiveDecodeReadsFarLess is the acceptance bound: on a 20k-flow Web
// trace, extracting one server prefix must decode at least 10x fewer body
// bytes than a full decompression.
func TestSelectiveDecodeReadsFarLess(t *testing.T) {
	tr := webTrace(27, 20000)
	a, err := pipeTrace(tr, DefaultOptions(), PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress(a)
	if err != nil {
		t.Fatal(err)
	}
	fz := indexedArchive(t, a, IndexConfig{Enabled: true})

	r, err := OpenReader(bytes.NewReader(fz), int64(len(fz)))
	if err != nil {
		t.Fatal(err)
	}
	f := FlowFilter{Prefix: a.Addresses[len(a.Addresses)/2], PrefixLen: 32}
	got, err := r.ExtractFlows(f)
	if err != nil {
		t.Fatal(err)
	}
	st, is := r.Stats(), r.IndexStats()
	if st.FlowsMatched == 0 {
		t.Fatal("prefix query matched no flows")
	}
	samePackets(t, "acceptance extract", got.Packets, filterPackets(full.Packets, f))
	if st.BodyBytesRead*10 > is.BodyBytes {
		t.Fatalf("selective decode read %d of %d body bytes — less than 10x saving", st.BodyBytesRead, is.BodyBytes)
	}
	t.Logf("extract read %d of %d body bytes (%.1fx), %d of %d groups, %d templates",
		st.BodyBytesRead, is.BodyBytes, float64(is.BodyBytes)/float64(st.BodyBytesRead),
		st.GroupsDecoded, is.Groups, st.TemplatesLoaded)
}
