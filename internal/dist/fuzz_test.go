package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"flowzip/internal/core"
	"flowzip/internal/trace"
	"flowzip/internal/wire"
)

// fuzzSeedShard encodes a real shard state (including long flows) as the
// fuzz corpus anchor.
func fuzzSeedShard(f *testing.F) []byte {
	f.Helper()
	tr := fractalTrace(71, 600)
	r, err := core.CompressShardSource(trace.Batches(tr, 0), core.DefaultOptions(), 0, 2)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeShardState(&buf, r); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadShardHeader exercises the header-only parse used by inspect and the
// coordinator handshake: arbitrary bytes must produce an error or a header,
// never a panic.
func FuzzReadShardHeader(f *testing.F) {
	seed := fuzzSeedShard(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(append([]byte(Magic), Version))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := ReadShardHeader(bytes.NewReader(b))
		if err != nil {
			return
		}
		if h.Count < 1 {
			t.Fatalf("accepted header with shard count %d", h.Count)
		}
	})
}

// FuzzDecodeShardState exercises the full shard-state decode, the surface a
// hostile worker or tampered .fzshard file reaches.
func FuzzDecodeShardState(f *testing.F) {
	seed := fuzzSeedShard(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-2])
	truncated := append([]byte(nil), seed...)
	truncated[len(truncated)-1] ^= 0xff
	f.Add(truncated)
	f.Add([]byte(Magic))
	// Well-formed under a valid checksum, refused for what they say.
	f.Add(reservedFieldBlob(f, seed))
	f.Add(flagTwoBlob(f, seed))
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeShardState(bytes.NewReader(b))
		if err != nil {
			return
		}
		if r.Count < 1 || r.Index >= r.Count {
			t.Fatalf("accepted inconsistent shard state: index %d of %d", r.Index, r.Count)
		}
	})
}

// TestDecodeFlowGapsBounded pins the long-flow gaps allocation guard: a
// vector length implying more gaps than the section has bytes left must be
// rejected before the gap slice is allocated — each gap costs at least one
// wire byte, so the pre-allocation may never exceed the remaining section.
func TestDecodeFlowGapsBounded(t *testing.T) {
	var b []byte
	uv := func(v uint64) {
		var s [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(s[:], v)
		b = append(b, s[:n]...)
	}
	uv(0)                              // closing index
	uv(0)                              // first timestamp
	b = append(b, make([]byte, 12)...) // 8-byte hash + 4-byte server address
	b = append(b, 1)                   // long-flow tag
	const vectorLen = 64
	uv(vectorLen)
	b = append(b, make([]byte, vectorLen)...) // the vector itself, then nothing:
	// 63 gaps claimed, 0 bytes left.

	c := wire.NewCursor(b, ErrBadShard)
	_, err := decodeFlow(&c, &ShardHeader{Count: 1})
	if err == nil {
		t.Fatal("gap count beyond the section decoded successfully")
	}
	if !errors.Is(err, ErrBadShard) {
		t.Fatalf("err = %v, want ErrBadShard", err)
	}
	if !strings.Contains(err.Error(), "gap count 63 exceeds") {
		t.Fatalf("err = %v — the pre-allocation guard did not fire", err)
	}
}

// FuzzDecodeAck exercises the cumulative-ack frame decode — the answer every
// pipelined client reads once per batch, so a corrupted or hostile daemon
// must produce an error, never a panic or a count the int64 bookkeeping
// cannot hold.
func FuzzDecodeAck(f *testing.F) {
	f.Add(encodeAck(nil, 1, 64))
	f.Add(encodeAck(nil, 1<<40, 1<<62))
	f.Add([]byte{})
	f.Add([]byte{0x80})                                                             // truncated varint
	f.Add([]byte{0x01})                                                             // seq only, packets missing
	f.Add([]byte{0x01, 0x02, 0x00})                                                 // trailing byte
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00}) // > MaxInt64
	f.Fuzz(func(t *testing.T, b []byte) {
		seq, packets, err := decodeAck(b)
		if err != nil {
			return
		}
		if seq > uint64(math.MaxInt64) || packets > uint64(math.MaxInt64) {
			t.Fatalf("accepted ack beyond int64: seq %d, packets %d", seq, packets)
		}
		// Non-minimal varints decode too, so bytes need not round-trip —
		// but the decoded values must survive a re-encode/decode cycle.
		s2, p2, err := decodeAck(encodeAck(nil, seq, packets))
		if err != nil || s2 != seq || p2 != packets {
			t.Fatalf("ack value round-trip: (%d,%d) -> (%d,%d,%v)", seq, packets, s2, p2, err)
		}
	})
}

// FuzzDecodeOpenOK exercises the admission answer: any accepted payload must
// carry a window already clamped into [1, MaxWindow].
func FuzzDecodeOpenOK(f *testing.F) {
	f.Add(encodeOpenOK(nil, 1, DefaultWindow))
	f.Add(encodeOpenOK(nil, 1<<50, MaxWindow))
	f.Add([]byte{})
	f.Add([]byte{0x01})             // id only, window missing
	f.Add([]byte{0x01, 0x00})       // window 0: hostile, must clamp to >= 1
	f.Add([]byte{0x01, 0x01, 0x02}) // trailing byte
	f.Fuzz(func(t *testing.T, b []byte) {
		_, window, err := decodeOpenOK(b)
		if err != nil {
			return
		}
		if window < 1 || window > MaxWindow {
			t.Fatalf("accepted openok with window %d outside [1,%d]", window, MaxWindow)
		}
	})
}
