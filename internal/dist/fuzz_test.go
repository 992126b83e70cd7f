package dist

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"unsafe"

	"flowzip/internal/alloctest"
	"flowzip/internal/core"
	"flowzip/internal/pkt"
)

// goldenPayload returns the payload of the named golden frame: the frame is a
// type byte, a uvarint length and the payload.
func goldenPayload(f *testing.F, name string) []byte {
	frame, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		f.Fatal(err)
	}
	size, n := binary.Uvarint(frame[1:])
	return frame[1+n : 1+n+int(size)]
}

// appendByte returns b with one byte appended, in a backing of its own: what
// a control-frame decoder that accepted b must refuse.
func appendByte(b []byte) []byte { return append(slices.Clip(b), 0) }

// controlAllocMax is the allocation bound stated at decodeAck, decodeOpenOK
// and decodeSummary for a payload they refuse: what one error costs, 776
// bytes at most over 200 000 random payloads with fmt's pool cold, whatever
// the payload. A payload they accept allocates nothing.
const controlAllocMax = 1 << 10

// FuzzDecodeAck exercises the cumulative-ack frame decode — the answer every
// pipelined client reads once per batch, so a corrupted or hostile daemon
// must produce an error, never a panic or a count the int64 bookkeeping
// cannot hold, nor allocate past controlAllocMax.
func FuzzDecodeAck(f *testing.F) {
	f.Add(encodeAck(nil, 1, 64))
	f.Add(encodeAck(nil, 1<<40, 1<<62))
	f.Add([]byte{})
	f.Add([]byte{0x80})                                                             // truncated varint
	f.Add([]byte{0x01})                                                             // seq only, packets missing
	f.Add([]byte{0x01, 0x02, 0x00})                                                 // trailing byte
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00}) // > MaxInt64
	f.Fuzz(func(t *testing.T, b []byte) {
		var (
			seq, packets uint64
			err          error
		)
		if alloc := alloctest.Least(func() { seq, packets, err = decodeAck(b) }); alloc > controlAllocMax || err == nil && alloc != 0 {
			t.Fatalf("decoding %d bytes allocated %d, bound %d (0 when accepted; err %v)", len(b), alloc, controlAllocMax, err)
		}
		if err != nil {
			return
		}
		if _, _, err := decodeAck(appendByte(b)); err == nil {
			t.Fatal("accepted an ack with a trailing byte")
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
// carry a window already clamped into [1, MaxWindow], and end there, and no
// payload may allocate past controlAllocMax.
func FuzzDecodeOpenOK(f *testing.F) {
	f.Add(goldenPayload(f, "openok.frame"))
	f.Add(encodeOpenOK(nil, 1, DefaultWindow))
	f.Add(encodeOpenOK(nil, 1<<50, MaxWindow))
	f.Add([]byte{})
	f.Add([]byte{0x01})             // id only, window missing
	f.Add([]byte{0x01, 0x00})       // window 0: hostile, must clamp to >= 1
	f.Add([]byte{0x01, 0x01, 0x02}) // trailing byte
	f.Fuzz(func(t *testing.T, b []byte) {
		var (
			window int
			err    error
		)
		if alloc := alloctest.Least(func() { _, window, err = decodeOpenOK(b) }); alloc > controlAllocMax || err == nil && alloc != 0 {
			t.Fatalf("decoding %d bytes allocated %d, bound %d (0 when accepted; err %v)", len(b), alloc, controlAllocMax, err)
		}
		if err != nil {
			return
		}
		if window < 1 || window > MaxWindow {
			t.Fatalf("accepted openok with window %d outside [1,%d]", window, MaxWindow)
		}
		if _, _, err := decodeOpenOK(appendByte(b)); err == nil {
			t.Fatal("accepted an openok with a trailing byte")
		}
	})
}

// FuzzDecodeOpen exercises the daemon's first parse of any peer: the tenant
// name and the session's codec options. An accepted payload must name a valid
// tenant, end at its last option, and survive an encode and a decode: the
// decoded values encode to bytes that decode to them again. Any payload must
// allocate within the bound stated at decodeOpen: len(payload) plus
// openAllocSlack.
func FuzzDecodeOpen(f *testing.F) {
	f.Add(goldenPayload(f, "open.frame"))
	f.Add(encodeOpen("tenant-a", core.DefaultOptions()))
	f.Add([]byte{})
	f.Add([]byte{0x41})                                                              // tenant longer than MaxTenantLen
	f.Add([]byte{0x01, '/'})                                                         // path separator in the tenant
	f.Add(encodeOpen("t", core.DefaultOptions())[:6])                                // options cut short
	f.Add(appendByte(encodeOpen("t", core.DefaultOptions())))                        // trailing byte
	f.Add(append([]byte{MaxTenantLen}, bytes.Repeat([]byte{0x01}, MaxTenantLen)...)) // the longest quoted name in an error
	const openAllocSlack = 4 << 10
	f.Fuzz(func(t *testing.T, b []byte) {
		var (
			tenant string
			opts   core.Options
			err    error
		)
		alloc := alloctest.Least(func() { tenant, opts, err = decodeOpen(b) })
		if bound := uint64(len(b)) + openAllocSlack; alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(b), alloc, bound)
		}
		if err != nil {
			return
		}
		if err := validTenant(tenant); err != nil {
			t.Fatalf("accepted open frame: %v", err)
		}
		if _, _, err := decodeOpen(appendByte(b)); err == nil {
			t.Fatal("accepted an open frame with a trailing byte")
		}
		// Non-minimal varints decode too, so bytes need not round-trip; the
		// canonical encoding of what was decoded must.
		enc := encodeOpen(tenant, opts)
		t2, o2, err := decodeOpen(enc)
		if err != nil || t2 != tenant || !slices.Equal(encodeOpen(t2, o2), enc) {
			t.Fatalf("open value round-trip: %q %+v -> %q %+v, %v", tenant, opts, t2, o2, err)
		}
	})
}

// FuzzDecodeSummary exercises the closed frame a client reads last: an
// accepted payload must hold counts an int64 can, end at the drained flag,
// and survive an encode and a decode, and no payload may allocate past
// controlAllocMax.
func FuzzDecodeSummary(f *testing.F) {
	f.Add(goldenPayload(f, "closed.frame"))
	f.Add(encodeSummary(SessionSummary{Packets: 1 << 40, Flows: 3, Archives: 1, ArchiveBytes: 1 << 20, Drained: true}))
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03, 0x04})                                                 // drained flag missing
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x00, 0x00})                                     // trailing byte
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 0, 0, 0}) // > MaxInt64
	f.Fuzz(func(t *testing.T, b []byte) {
		var (
			sum SessionSummary
			err error
		)
		if alloc := alloctest.Least(func() { sum, err = decodeSummary(b) }); alloc > controlAllocMax || err == nil && alloc != 0 {
			t.Fatalf("decoding %d bytes allocated %d, bound %d (0 when accepted; err %v)", len(b), alloc, controlAllocMax, err)
		}
		if err != nil {
			return
		}
		if sum.Packets < 0 || sum.Flows < 0 || sum.Archives < 0 || sum.ArchiveBytes < 0 {
			t.Fatalf("accepted summary with a negative count: %+v", sum)
		}
		if _, err := decodeSummary(appendByte(b)); err == nil {
			t.Fatal("accepted a closed frame with a trailing byte")
		}
		if s2, err := decodeSummary(encodeSummary(sum)); err != nil || s2 != sum {
			t.Fatalf("summary value round-trip: %+v -> %+v, %v", sum, s2, err)
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
	f.Add(goldenPayload(f, "packets.frame"))
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
		alloc := alloctest.Least(func() { first, err = decodePackets(b) })
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
