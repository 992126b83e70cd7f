package flowgen

import (
	"fmt"
	"io"
	"testing"
	"time"

	"flowzip/internal/pkt"
)

// drain pulls every batch from the source.
func drain(t *testing.T, s *WebSource) []pkt.Packet {
	t.Helper()
	var out []pkt.Packet
	for {
		batch, err := s.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			t.Fatal("empty batch without EOF")
		}
		out = append(out, batch...)
	}
}

// TestWebSourceMatchesWeb pins the streaming generator and Web, which is its
// drain, to the generate-then-sort reference: identical packets in identical
// order, for several batch sizes including one that never aligns with
// conversation boundaries and one larger than the trace.
func TestWebSourceMatchesWeb(t *testing.T) {
	cfg := DefaultWebConfig()
	cfg.Seed = 11
	cfg.Flows = 500
	cfg.Duration = 5 * time.Second
	want := reference(newWebModel(cfg))

	samePackets(t, "Web", Web(cfg).Packets, want)
	for _, batch := range []int{1, 3, 256, 1 << 20} {
		samePackets(t, fmt.Sprintf("batch %d", batch), drain(t, NewWebSource(cfg, batch)), want)
	}
}

func TestWebSourceEmptyConfig(t *testing.T) {
	cfg := DefaultWebConfig()
	cfg.Flows = 0
	s := NewWebSource(cfg, 64)
	if batch, err := s.Next(); err != io.EOF {
		t.Fatalf("empty config: batch %d packets, err %v; want io.EOF", len(batch), err)
	}
	// EOF must be sticky.
	if _, err := s.Next(); err != io.EOF {
		t.Fatal("EOF not sticky")
	}
}

// TestWebSourceSorted checks the streamed sequence is timestamp sorted on
// its own terms (not just relative to Web).
func TestWebSourceSorted(t *testing.T) {
	cfg := DefaultWebConfig()
	cfg.Seed = 2
	cfg.Flows = 300
	cfg.Duration = 2 * time.Second
	pkts := drain(t, NewWebSource(cfg, 128))
	for i := 1; i < len(pkts); i++ {
		if pkts[i].Timestamp < pkts[i-1].Timestamp {
			t.Fatalf("packet %d out of order", i)
		}
	}
}
