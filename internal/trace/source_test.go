package trace

import (
	"io"
	"path/filepath"
	"testing"
	"time"

	"flowzip/internal/pkt"
)

func sourceTrace(n int) *Trace {
	tr := New("src")
	for i := 0; i < n; i++ {
		tr.Append(pkt.Packet{
			Timestamp: time.Duration(i) * time.Millisecond,
			SrcIP:     pkt.Addr(10, 0, 0, 1),
			DstIP:     pkt.Addr(20, 0, 0, byte(i%200+1)),
			SrcPort:   40000 + uint16(i),
			DstPort:   80,
			Proto:     pkt.ProtoTCP,
			Flags:     pkt.FlagACK,
			TTL:       64,
		})
	}
	return tr
}

func TestBatches(t *testing.T) {
	tr := sourceTrace(11)
	s := Batches(tr, 4)
	var got []pkt.Packet
	count := 0
	for {
		b, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b...)
		count++
	}
	if len(got) != tr.Len() || count != 3 {
		t.Fatalf("got %d packets in %d batches, want 11 in 3", len(got), count)
	}
	for i := range got {
		if got[i] != tr.Packets[i] {
			t.Fatalf("packet %d differs", i)
		}
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatal("EOF not sticky")
	}

	// Empty trace: immediate EOF.
	if _, err := Batches(New("empty"), 4).Next(); err != io.EOF {
		t.Fatal("empty trace did not EOF")
	}
}

// TestOpenStreamFormats streams both on-disk formats and checks the decoded
// packets match a whole-file load.
func TestOpenStreamFormats(t *testing.T) {
	tr := sourceTrace(9)
	dir := t.TempDir()
	for _, name := range []string{"t.tsh", "t.pcap"} {
		path := filepath.Join(dir, name)
		if err := tr.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		want, err := LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		s, err := OpenStream(path, 4)
		if err != nil {
			t.Fatal(err)
		}
		var got []pkt.Packet
		for {
			b, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			// The batch buffer is reused: copy before the next call.
			got = append(got, b...)
		}
		if len(got) != want.Len() {
			t.Fatalf("%s: streamed %d packets, loaded %d", name, len(got), want.Len())
		}
		for i := range got {
			if got[i] != want.Packets[i] {
				t.Fatalf("%s: packet %d differs", name, i)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := OpenStream(filepath.Join(dir, "missing.tsh"), 4); err == nil {
		t.Fatal("OpenStream on a missing file succeeded")
	}
}
