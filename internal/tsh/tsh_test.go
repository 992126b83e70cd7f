package tsh

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"

	"flowzip/internal/pkt"
)

func mkPacket(i int) pkt.Packet {
	return pkt.Packet{
		Timestamp:  time.Duration(i) * 123 * time.Microsecond,
		SrcIP:      pkt.Addr(10, 0, byte(i>>8), byte(i)),
		DstIP:      pkt.Addr(192, 168, 1, 80),
		SrcPort:    uint16(1024 + i),
		DstPort:    80,
		Proto:      pkt.ProtoTCP,
		Flags:      pkt.FlagACK,
		Seq:        uint32(i * 1000),
		Ack:        uint32(i * 500),
		Window:     8192,
		TTL:        64,
		IPID:       uint16(i),
		PayloadLen: uint16(i % 1400),
	}
}

func TestRoundTrip(t *testing.T) {
	var packets []pkt.Packet
	for i := 0; i < 100; i++ {
		packets = append(packets, mkPacket(i))
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, packets); err != nil {
		t.Fatal(err)
	}
	if got, want := int64(buf.Len()), Size(100); got != want {
		t.Fatalf("file size = %d, want %d", got, want)
	}
	back, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(packets) {
		t.Fatalf("decoded %d packets, want %d", len(back), len(packets))
	}
	for i := range packets {
		if back[i] != packets[i] {
			t.Fatalf("packet %d mismatch:\n got %+v\nwant %+v", i, back[i], packets[i])
		}
	}
}

func TestRecordIs44Bytes(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	p := mkPacket(1)
	if err := w.WritePacket(&p); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != RecordLen {
		t.Fatalf("record length = %d, want %d", buf.Len(), RecordLen)
	}
}

// TestInterfaceByte: records are written for interface 0, and a record of
// another interface reads back the same packet.
func TestInterfaceByte(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	p := mkPacket(1)
	if err := w.WritePacket(&p); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[4] != 0 {
		t.Fatalf("interface = %d, want 0", buf.Bytes()[4])
	}
	buf.Bytes()[4] = 3
	r := NewReader(&buf)
	var q pkt.Packet
	if err := r.ReadPacket(&q); err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Fatalf("read %+v from interface 3, want %+v", q, p)
	}
}

func TestTimestampMicrosecondResolution(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	p := mkPacket(1)
	p.Timestamp = 5*time.Second + 999999*time.Microsecond
	if err := w.WritePacket(&p); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back[0].Timestamp != p.Timestamp {
		t.Fatalf("timestamp %v, want %v", back[0].Timestamp, p.Timestamp)
	}
}

func TestShortRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	p := mkPacket(1)
	if err := w.WritePacket(&p); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:RecordLen-5]
	_, err := ReadAll(bytes.NewReader(trunc))
	if !errors.Is(err, ErrShortRecord) {
		t.Fatalf("err = %v, want ErrShortRecord", err)
	}
}

func TestEmptyStream(t *testing.T) {
	out, err := ReadAll(bytes.NewReader(nil))
	if err != nil || len(out) != 0 {
		t.Fatalf("empty stream: out=%v err=%v", out, err)
	}
}

func TestReaderEOFThenStable(t *testing.T) {
	var buf bytes.Buffer
	p := mkPacket(0)
	if err := WriteAll(&buf, []pkt.Packet{p}); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	var q pkt.Packet
	if err := r.ReadPacket(&q); err != nil {
		t.Fatal(err)
	}
	if err := r.ReadPacket(&q); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// Property: TSH round trip preserves every field for arbitrary packets.
func TestQuickRoundTrip(t *testing.T) {
	f := func(sip, dip uint32, sp uint16, flags uint8, sec uint16, usec uint32, payload uint16) bool {
		p := pkt.Packet{
			Timestamp: time.Duration(sec)*time.Second + time.Duration(usec%1000000)*time.Microsecond,
			SrcIP:     pkt.IPv4(sip), DstIP: pkt.IPv4(dip),
			SrcPort: sp, DstPort: 80, Proto: pkt.ProtoTCP,
			Flags: pkt.TCPFlags(flags), Seq: 1, Ack: 2, Window: 100,
			TTL: 60, IPID: 9, PayloadLen: payload % 1461,
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, []pkt.Packet{p}); err != nil {
			return false
		}
		back, err := ReadAll(&buf)
		return err == nil && len(back) == 1 && back[0] == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
