package dist

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"unsafe"

	"flowzip/internal/pkt"
)

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

// FuzzDecodePackets exercises the decoder every peer reaches first. An
// accepted payload must decode, re-encode and decode again to the same
// packets, and any payload, accepted or not, must allocate within the bound
// stated at decodePackets: a slab of max(1024, 2·len(payload)/13) records
// plus a small constant (1 KiB here) for the error or the pool's slice
// header.
func FuzzDecodePackets(f *testing.F) {
	frame, err := os.ReadFile(filepath.Join("testdata", "golden", "packets.frame"))
	if err != nil {
		f.Fatal(err)
	}
	size, n := binary.Uvarint(frame[1:]) // type byte, uvarint length, payload
	f.Add(frame[1+n : 1+n+int(size)])
	for _, batch := range [][]pkt.Packet{webTrace(1, 40).Packets, fractalTrace(2, 300).Packets, nil} {
		f.Add(encodePacketsInto(nil, batch))
	}
	f.Add([]byte{})
	f.Add([]byte{0x80})                                                                                                      // truncated count
	f.Add([]byte{0x02, 0x01})                                                                                                // two records claimed, one byte left
	f.Add(append([]byte{0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, make([]byte, packetFields-1)...)) // timestamp past MaxInt64
	const slack = 1024
	f.Fuzz(func(t *testing.T, b []byte) {
		var (
			first []pkt.Packet
			err   error
		)
		alloc := totalAlloc(func() { first, err = decodePackets(b) })
		if bound := uint64(unsafe.Sizeof(pkt.Packet{}))*uint64(max(1024, 2*len(b)/packetFields)) + slack; alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(b), alloc, bound)
		}
		if err != nil {
			return
		}
		defer ReleaseBatch(first)
		second, err := decodePackets(encodePacketsInto(nil, first))
		if err != nil {
			t.Fatalf("re-encoded batch of %d packets: %v", len(first), err)
		}
		defer ReleaseBatch(second)
		if !slices.Equal(first, second) {
			t.Fatalf("decode, encode, decode changed a batch of %d packets", len(first))
		}
	})
}
