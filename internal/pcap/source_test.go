package pcap

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"flowzip/internal/pkt"
)

func sourcePackets(n int) []pkt.Packet {
	out := make([]pkt.Packet, n)
	for i := range out {
		out[i] = pkt.Packet{
			Timestamp: time.Duration(i) * time.Millisecond,
			SrcIP:     pkt.Addr(10, 0, 0, 1),
			DstIP:     pkt.Addr(192, 168, 0, byte(i%250+1)),
			SrcPort:   30000 + uint16(i),
			DstPort:   80,
			Proto:     pkt.ProtoTCP,
			Flags:     pkt.FlagACK,
			TTL:       64,
		}
	}
	return out
}

func TestSourceBatches(t *testing.T) {
	want := sourcePackets(10)
	var buf bytes.Buffer
	if err := WriteAll(&buf, want); err != nil {
		t.Fatal(err)
	}

	s := NewSource(bytes.NewReader(buf.Bytes()), 4)
	var got []pkt.Packet
	sizes := []int{}
	for {
		batch, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(batch))
		got = append(got, batch...)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d packets, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("packet %d differs", i)
		}
	}
	// 10 packets at batch 4 → 4, 4, 2: chunked reads, not whole-file.
	if len(sizes) != 3 || sizes[0] != 4 || sizes[2] != 2 {
		t.Fatalf("batch sizes %v, want [4 4 2]", sizes)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatal("EOF not sticky")
	}
}

// TestSourceMidBatchError checks no decoded packet is lost when the stream
// dies mid-batch: the good packets come out first, the error on the call
// after.
func TestSourceMidBatchError(t *testing.T) {
	want := sourcePackets(6)
	var buf bytes.Buffer
	if err := WriteAll(&buf, want); err != nil {
		t.Fatal(err)
	}
	// Truncate inside the last record.
	trunc := buf.Bytes()[:buf.Len()-7]

	s := NewSource(bytes.NewReader(trunc), 64)
	batch, err := s.Next()
	if err != nil {
		t.Fatalf("first Next: %v", err)
	}
	if len(batch) != 5 {
		t.Fatalf("first batch %d packets, want the 5 intact ones", len(batch))
	}
	if _, err := s.Next(); err == nil || err == io.EOF {
		t.Fatalf("second Next: %v, want decode error", err)
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatal("source not terminal after error")
	}
}

func TestOpenAndClose(t *testing.T) {
	want := sourcePackets(5)
	path := filepath.Join(t.TempDir(), "x.pcap")
	var buf bytes.Buffer
	if err := WriteAll(&buf, want); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		batch, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		total += len(batch)
	}
	if total != len(want) {
		t.Fatalf("decoded %d packets, want %d", total, len(want))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(filepath.Join(t.TempDir(), "missing.pcap"), 2); err == nil {
		t.Fatal("Open on a missing file succeeded")
	}
}
