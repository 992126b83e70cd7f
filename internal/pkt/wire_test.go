package pkt

import (
	"testing"
	"testing/quick"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	p := samplePacket()
	p.PayloadLen = 512
	var buf [HeaderBytes]byte
	n, err := p.MarshalHeaders(buf[:])
	if err != nil || n != HeaderBytes {
		t.Fatalf("marshal: n=%d err=%v", n, err)
	}
	var q Packet
	if err := q.UnmarshalHeaders(buf[:]); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	q.Timestamp = p.Timestamp
	if q != p {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", q, p)
	}
}

func TestMarshalChecksumValid(t *testing.T) {
	p := samplePacket()
	var buf [HeaderBytes]byte
	if _, err := p.MarshalHeaders(buf[:]); err != nil {
		t.Fatal(err)
	}
	if !verifyIPChecksum(buf[:]) {
		t.Fatal("IP checksum invalid after marshal")
	}
}

func TestMarshalBufferTooSmall(t *testing.T) {
	p := samplePacket()
	if _, err := p.MarshalHeaders(make([]byte, 10)); err == nil {
		t.Fatal("expected error for small buffer")
	}
}

func TestUnmarshalTruncatedTCP(t *testing.T) {
	// TSH keeps only the first 16 bytes of the TCP header.
	p := samplePacket()
	p.PayloadLen = 300
	var buf [HeaderBytes]byte
	if _, err := p.MarshalHeaders(buf[:]); err != nil {
		t.Fatal(err)
	}
	var q Packet
	if err := q.UnmarshalHeaders(buf[:IPHeaderLen+16]); err != nil {
		t.Fatalf("unmarshal truncated: %v", err)
	}
	if q.SrcPort != p.SrcPort || q.Flags != p.Flags || q.PayloadLen != p.PayloadLen {
		t.Fatalf("truncated decode lost fields: %+v", q)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var p Packet
	if err := p.UnmarshalHeaders(make([]byte, 5)); err == nil {
		t.Fatal("short IP header must error")
	}
	bad := make([]byte, HeaderBytes)
	bad[0] = 0x65 // IPv6 version nibble
	if err := p.UnmarshalHeaders(bad); err == nil {
		t.Fatal("non-IPv4 must error")
	}
	badIHL := make([]byte, HeaderBytes)
	badIHL[0] = 0x41 // IHL = 4 words < 20 bytes
	if err := p.UnmarshalHeaders(badIHL); err == nil {
		t.Fatal("bad IHL must error")
	}
	short := make([]byte, IPHeaderLen+8)
	short[0] = 0x45
	if err := p.UnmarshalHeaders(short); err == nil {
		t.Fatal("short TCP header must error")
	}
}

func TestVerifyIPChecksumRejectsCorruption(t *testing.T) {
	p := samplePacket()
	var buf [HeaderBytes]byte
	if _, err := p.MarshalHeaders(buf[:]); err != nil {
		t.Fatal(err)
	}
	buf[15] ^= 0xff // corrupt source IP
	if verifyIPChecksum(buf[:]) {
		t.Fatal("corrupted header passed checksum")
	}
	if verifyIPChecksum(buf[:4]) {
		t.Fatal("short buffer cannot verify")
	}
}

// Property: marshal/unmarshal is an inverse for arbitrary header fields.
func TestQuickWireRoundTrip(t *testing.T) {
	f := func(sip, dip uint32, sp, dp uint16, flags uint8, seq, ack uint32, win uint16, ttl uint8, ipid uint16, payload uint16) bool {
		if payload > 1460 {
			payload = payload % 1461
		}
		p := Packet{
			SrcIP: IPv4(sip), DstIP: IPv4(dip),
			SrcPort: sp, DstPort: dp, Proto: ProtoTCP,
			Flags: TCPFlags(flags), Seq: seq, Ack: ack, Window: win,
			TTL: ttl, IPID: ipid, PayloadLen: payload,
		}
		var buf [HeaderBytes]byte
		if _, err := p.MarshalHeaders(buf[:]); err != nil {
			return false
		}
		var q Packet
		if err := q.UnmarshalHeaders(buf[:]); err != nil {
			return false
		}
		return q == p && verifyIPChecksum(buf[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
