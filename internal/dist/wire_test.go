package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"flowzip/internal/core"
	"flowzip/internal/flow"
	"flowzip/internal/flowgen"
	"flowzip/internal/trace"
)

func webTrace(seed uint64, flows int) *trace.Trace {
	cfg := flowgen.DefaultWebConfig()
	cfg.Seed = seed
	cfg.Flows = flows
	cfg.Duration = 10 * time.Second
	return flowgen.Web(cfg)
}

// shardBlob compresses one partition and serializes it.
func shardBlob(t testing.TB, tr *trace.Trace, opts core.Options, index, count int) []byte {
	t.Helper()
	r, err := core.CompressShardSource(trace.Batches(tr, 0), opts, index, count)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeShardState(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardStateRoundTrip checks encode→decode→encode is a fixed point and
// the decoded result carries the source's identity.
func TestShardStateRoundTrip(t *testing.T) {
	tr := webTrace(1, 200)
	opts := core.DefaultOptions()
	opts.Seed = 42 // non-default, so the options serialization is exercised
	for _, count := range []int{1, 3} {
		for index := 0; index < count; index++ {
			blob := shardBlob(t, tr, opts, index, count)
			r, err := DecodeShardState(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("decode shard %d/%d: %v", index, count, err)
			}
			if r.Index != index || r.Count != count {
				t.Fatalf("decoded identity %d/%d, want %d/%d", r.Index, r.Count, index, count)
			}
			if r.Packets != int64(tr.Len()) {
				t.Errorf("decoded packets %d, want %d", r.Packets, tr.Len())
			}
			if r.Opts != opts {
				t.Errorf("decoded options %+v, want %+v", r.Opts, opts)
			}
			var again bytes.Buffer
			if err := EncodeShardState(&again, r); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, again.Bytes()) {
				t.Errorf("shard %d/%d: re-encode is not a fixed point (%d vs %d bytes)",
					index, count, len(blob), again.Len())
			}
		}
	}
}

// TestReadShardHeader checks the header-only read used by inspect.
func TestReadShardHeader(t *testing.T) {
	tr := webTrace(2, 150)
	opts := core.DefaultOptions()
	blob := shardBlob(t, tr, opts, 1, 4)
	h, err := ReadShardHeader(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if h.Index != 1 || h.Count != 4 {
		t.Errorf("header identity %d/%d, want 1/4", h.Index, h.Count)
	}
	if h.Fingerprint != opts.Fingerprint() {
		t.Errorf("header fingerprint %016x, want %016x", h.Fingerprint, opts.Fingerprint())
	}
	if h.Packets != int64(tr.Len()) {
		t.Errorf("header packets %d, want %d", h.Packets, tr.Len())
	}
	r, err := DecodeShardState(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if h.Flows != len(r.Flows) || h.Templates != len(r.Templates) {
		t.Errorf("header counts flows=%d templates=%d, payload has %d/%d",
			h.Flows, h.Templates, len(r.Flows), len(r.Templates))
	}
}

// TestDecodeShardStateTruncated feeds every proper prefix of a valid blob
// to the decoder: all must error, none may panic.
func TestDecodeShardStateTruncated(t *testing.T) {
	blob := shardBlob(t, webTrace(3, 40), core.DefaultOptions(), 0, 2)
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeShardState(bytes.NewReader(blob[:n])); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", n, len(blob))
		}
	}
	if _, err := ReadShardHeader(bytes.NewReader(blob[:3])); err == nil {
		t.Error("truncated header read without error")
	}
}

// TestDecodeShardStateCorrupt flips every byte of a valid blob in turn: the
// trailing CRC (or an earlier structural check) must reject each mutant.
func TestDecodeShardStateCorrupt(t *testing.T) {
	blob := shardBlob(t, webTrace(4, 40), core.DefaultOptions(), 1, 2)
	mutant := make([]byte, len(blob))
	for i := range blob {
		copy(mutant, blob)
		mutant[i] ^= 0xFF
		if _, err := DecodeShardState(bytes.NewReader(mutant)); err == nil {
			t.Fatalf("corruption at byte %d/%d decoded without error", i, len(blob))
		}
	}
}

// TestDecodeShardStateBadMagicVersion covers the explicit header rejections
// with their messages.
func TestDecodeShardStateBadMagicVersion(t *testing.T) {
	blob := shardBlob(t, webTrace(5, 30), core.DefaultOptions(), 0, 1)

	notShard := append([]byte("FZT1"), blob[4:]...)
	if _, err := DecodeShardState(bytes.NewReader(notShard)); err == nil {
		t.Error("archive magic accepted as shard state")
	}

	future := append([]byte(nil), blob...)
	future[4] = Version + 1
	_, err := DecodeShardState(bytes.NewReader(future))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version: error %v, want a version message", err)
	}

	// Header layout through the partition seed is fixed one-byte varints
	// for small indices: magic(4) version(1) hdrLen(1) index(1) count(1)
	// seed(1). A wrong seed must be named in the error, before the CRC
	// check fires.
	seeded := append([]byte(nil), blob...)
	seeded[8] = 99
	_, err = DecodeShardState(bytes.NewReader(seeded))
	if err == nil || !strings.Contains(err.Error(), "partition") {
		t.Errorf("foreign partition seed: error %v, want a partition-seed message", err)
	}

	// Bytes 9..16 are the options fingerprint; a mismatch against the
	// serialized options must be called out.
	fp := append([]byte(nil), blob...)
	fp[9] ^= 0xFF
	_, err = DecodeShardState(bytes.NewReader(fp))
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("fingerprint mismatch: error %v, want a fingerprint message", err)
	}
}

// restampCRC recomputes a patched blob's trailing checksum, so what the
// decoder refuses is the patch and not the checksum.
func restampCRC(blob []byte) []byte {
	body := blob[:len(blob)-4]
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// skipUvarint returns the offset just past the uvarint at b[at:] and its value.
func skipUvarint(t testing.TB, b []byte, at int) (int, uint64) {
	t.Helper()
	v, n := binary.Uvarint(b[at:])
	if n <= 0 {
		t.Fatalf("bad uvarint at offset %d", at)
	}
	return at + n, v
}

// reservedFieldBlob is blob, a valid shard state, with the header's reserved
// field set non-zero under a valid checksum: what a run against an
// in-process template store used to write.
func reservedFieldBlob(t testing.TB, blob []byte) []byte {
	t.Helper()
	out := append([]byte(nil), blob...)
	at, hdrLen := skipUvarint(t, out, len(Magic)+1)
	out[at+int(hdrLen)-8] = 0x5a // the field is the header's last 8 bytes
	return restampCRC(out)
}

// flagTwoBlob is blob with its first flow's flag byte set to 2 under a valid
// checksum.
func flagTwoBlob(t testing.TB, blob []byte) []byte {
	t.Helper()
	out := append([]byte(nil), blob...)
	at, n := skipUvarint(t, out, len(Magic)+1) // header
	at, n = skipUvarint(t, out, at+int(n))     // templates section
	at, _ = skipUvarint(t, out, at+int(n))     // flows section
	at, _ = skipUvarint(t, out, at)            // closing index
	at, _ = skipUvarint(t, out, at)            // first timestamp
	at += 8 + 4                                // 5-tuple hash, server address
	if out[at] > 1 {
		t.Fatalf("offset %d holds %#x, not a flow flag", at, out[at])
	}
	out[at] = 2
	return restampCRC(out)
}

// TestDecodeShardStateInProcessStore: the two marks of a blob compressed
// against a template store private to its writer — a non-zero reserved field,
// flow flag 2 — are refused as bad shard state with a message that says what
// to do, at the header where the header carries the mark.
func TestDecodeShardStateInProcessStore(t *testing.T) {
	blob := shardBlob(t, webTrace(6, 60), core.DefaultOptions(), 0, 2)
	const want = "in-process shared template store"
	check := func(name string, err error) {
		t.Helper()
		if !errors.Is(err, ErrBadShard) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want ErrBadShard naming the %s", name, err, want)
		}
	}
	reserved := reservedFieldBlob(t, blob)
	_, err := ReadShardHeader(bytes.NewReader(reserved))
	check("ReadShardHeader(reserved field)", err)
	_, err = DecodeShardState(bytes.NewReader(reserved))
	check("DecodeShardState(reserved field)", err)

	flagged := flagTwoBlob(t, blob)
	if _, err := ReadShardHeader(bytes.NewReader(flagged)); err != nil {
		t.Errorf("ReadShardHeader(flag 2): %v, the header is untouched", err)
	}
	_, err = DecodeShardState(bytes.NewReader(flagged))
	check("DecodeShardState(flag 2)", err)
}

// craftShardBlob builds a structurally valid blob (correct magic, header,
// CRC) with the given header counts and empty template/flow sections —
// the shape a malicious worker would send to drive huge allocations.
func craftShardBlob(flowCount, tplCount uint64) []byte {
	opts := core.DefaultOptions()
	hdr := binary.AppendUvarint(nil, 0) // index
	hdr = binary.AppendUvarint(hdr, 1)  // count
	hdr = binary.AppendUvarint(hdr, flow.PartitionSeed)
	hdr = binary.LittleEndian.AppendUint64(hdr, opts.Fingerprint())
	hdr = binary.AppendUvarint(hdr, 0) // packets
	hdr = binary.AppendUvarint(hdr, flowCount)
	hdr = binary.AppendUvarint(hdr, tplCount)
	hdr = appendOptions(hdr, opts)
	hdr = binary.LittleEndian.AppendUint64(hdr, 0) // reserved
	out := append([]byte(Magic), Version)
	for _, s := range [][]byte{hdr, nil, nil} {
		out = append(binary.AppendUvarint(out, uint64(len(s))), s...)
	}
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// totalAlloc reports the heap bytes f allocates.
func totalAlloc(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestDecodeShardStateInflatedCounts pins the allocation bound: header
// counts far beyond the actual section sizes, and section lengths far beyond
// the actual stream, must be rejected before any allocation of that size
// happens, CRC or no CRC.
func TestDecodeShardStateInflatedCounts(t *testing.T) {
	empty := craftShardBlob(0, 0)
	if _, err := DecodeShardState(bytes.NewReader(empty)); err != nil {
		t.Fatalf("empty crafted blob rejected: %v", err)
	}
	// A valid magic and header, then a section length just under the sanity
	// bound and EOF: the templates section, and (after an empty templates
	// section) the flows section.
	body := empty[:len(empty)-4-2] // drop the checksum and both empty sections
	hugeTemplates := binary.AppendUvarint(append([]byte(nil), body...), maxCount-1)
	hugeFlows := binary.AppendUvarint(append(append([]byte(nil), body...), 0), maxCount-1)
	for name, blob := range map[string][]byte{
		"inflated template count": craftShardBlob(0, 1<<27),
		"inflated flow count":     craftShardBlob(1<<27, 0),
		"huge templates section":  hugeTemplates,
		"huge flows section":      hugeFlows,
	} {
		var err error
		alloc := totalAlloc(func() { _, err = DecodeShardState(bytes.NewReader(blob)) })
		if !errors.Is(err, ErrBadShard) {
			t.Errorf("%s: error %v, want ErrBadShard", name, err)
		}
		if alloc >= 1<<20 {
			t.Errorf("%s: decoding a %d-byte blob allocated %d bytes, want < 1 MiB", name, len(blob), alloc)
		}
	}
}

// TestReadFrameHugeResultBounded: a result frame may declare up to 1 GiB, but
// the reader must reserve only what the peer actually delivers.
func TestReadFrameHugeResultBounded(t *testing.T) {
	conn := newScriptConn(binary.AppendUvarint([]byte{frameResult}, maxFramePayload-1), []byte("only this much"))
	var err error
	alloc := totalAlloc(func() { _, _, err = readFrame(conn, bufio.NewReader(conn), 0, maxFramePayload) })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated 1 GiB result frame: error %v, want unexpected EOF", err)
	}
	if alloc >= 1<<20 {
		t.Errorf("a 6-byte result header made readFrame allocate %d bytes, want < 1 MiB", alloc)
	}

	// A payload beyond the pooled sizes that does arrive is returned whole.
	big := bytes.Repeat([]byte{0xab}, maxPooledPayload+4097)
	conn = newScriptConn(binary.AppendUvarint([]byte{frameResult}, uint64(len(big))), big)
	typ, fp, err := readFrame(conn, bufio.NewReader(conn), 0, maxFramePayload)
	if err != nil || typ != frameResult || !bytes.Equal(fp.b, big) {
		t.Fatalf("large result frame: type %d, %d bytes, err %v", typ, len(fp.b), err)
	}
	fp.release()
}

// TestEncodeShardStateValidation covers the encoder's argument checks.
func TestEncodeShardStateValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeShardState(&buf, &core.ShardResult{Index: 0, Count: 0}); err == nil {
		t.Error("zero shard count encoded")
	}
	if err := EncodeShardState(&buf, &core.ShardResult{Index: 2, Count: 2}); err == nil {
		t.Error("out-of-range shard index encoded")
	}
	bad := &core.ShardResult{
		Index: 0, Count: 1, Opts: core.DefaultOptions(),
		Flows: []core.ShardFlow{{Template: 3}},
	}
	if err := EncodeShardState(&buf, bad); err == nil {
		t.Error("dangling template reference encoded")
	}
	// The decoder reads len(F)-1 gaps with no count prefix; an encoder
	// that let this invariant slip would misalign the stream under a
	// valid CRC.
	badGaps := &core.ShardResult{
		Index: 0, Count: 1, Opts: core.DefaultOptions(),
		Flows: []core.ShardFlow{{Long: true, LongF: []byte{1, 2, 3}, Gaps: make([]time.Duration, 5)}},
	}
	if err := EncodeShardState(&buf, badGaps); err == nil {
		t.Error("long flow with mismatched gap count encoded")
	}
	empty := &core.ShardResult{
		Index: 0, Count: 1, Opts: core.DefaultOptions(),
		Flows: []core.ShardFlow{{Long: true}},
	}
	if err := EncodeShardState(&buf, empty); err == nil {
		t.Error("long flow with empty vector encoded")
	}
}
