package pkt

import (
	"math/rand"
	"testing"
)

// TestUnmarshalIHLBeyondSlice: an IP header length past the bytes held used
// to slice out of range (30 bytes, IHL 15).
func TestUnmarshalIHLBeyondSlice(t *testing.T) {
	var p Packet
	for n := IPHeaderLen; n < 76; n++ {
		b := make([]byte, n)
		b[0] = 0x4f
		if err := p.UnmarshalHeaders(b); err == nil {
			t.Fatalf("%d bytes with IHL 15 decoded", n)
		}
	}
	if err := p.UnmarshalHeaders(append([]byte{0x4f}, make([]byte, 75)...)); err != nil {
		t.Fatalf("60-byte IP header and 16 bytes of TCP: %v", err)
	}
}

// TestUnmarshalTSHIgnoresOptionsOffset: in the TSH layout the TCP fields
// follow the first 20 IP bytes whatever the IHL, which still shortens the
// payload.
func TestUnmarshalTSHIgnoresOptionsOffset(t *testing.T) {
	want := samplePacket()
	want.PayloadLen = 100
	var buf [HeaderBytes]byte
	if _, err := want.MarshalHeaders(buf[:]); err != nil {
		t.Fatal(err)
	}
	buf[0] = 0x47 // two words of options, cut from the record
	var got Packet
	if err := got.UnmarshalTSH(buf[:36]); err != nil {
		t.Fatal(err)
	}
	got.Timestamp = want.Timestamp
	if want.PayloadLen -= 8; got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if err := got.UnmarshalTSH(buf[:35]); err == nil {
		t.Fatal("35 bytes decoded as a TSH header pair")
	}
}

// TestMarshalChecksumsVerify sums the stored bytes pair by pair — the way
// the checksums were computed before MarshalHeaders summed the fields — over
// random packets and the values that carry out of 16 bits.
func TestMarshalChecksumsVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		p := Packet{
			SrcIP: IPv4(rng.Uint32()), DstIP: IPv4(rng.Uint32()),
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
			Proto: uint8(rng.Uint32()), Flags: TCPFlags(rng.Uint32()),
			Seq: rng.Uint32(), Ack: rng.Uint32(), Window: uint16(rng.Uint32()),
			TTL: uint8(rng.Uint32()), IPID: uint16(rng.Uint32()), PayloadLen: uint16(rng.Uint32()),
		}
		if i%8 == 0 {
			p.SrcIP, p.DstIP, p.Seq, p.Ack, p.PayloadLen = 0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff, 0xffff
		}
		var b [HeaderBytes]byte
		if _, err := p.MarshalHeaders(b[:]); err != nil {
			t.Fatal(err)
		}
		if !verifyIPChecksum(b[:]) {
			t.Fatalf("IP checksum of %+v does not verify", p)
		}
		pseudo := []byte{b[12], b[13], b[14], b[15], b[16], b[17], b[18], b[19], 0, p.Proto, 0, 0}
		tcpLen := uint16(TCPHeaderLen) + p.PayloadLen
		pseudo[10], pseudo[11] = byte(tcpLen>>8), byte(tcpLen)
		if onesComplement(checksumSum(b[IPHeaderLen:], checksumSum(pseudo, 0))) != 0 {
			t.Fatalf("TCP checksum of %+v does not verify", p)
		}
	}
}
