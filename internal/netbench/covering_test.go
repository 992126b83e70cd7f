package netbench

import (
	"slices"
	"testing"
	"time"

	"flowzip/internal/flowgen"
	"flowzip/internal/pkt"
	"flowzip/internal/trace"
)

// coveringFixture builds a trace where one destination /24 receives traffic
// from many sources (a server) and another from a single source (a heavy
// client).
func coveringFixture() *trace.Trace {
	tr := trace.New("fixture")
	server := pkt.Addr(100, 1, 2, 3)
	client := pkt.Addr(10, 0, 0, 1)
	// 10 distinct sources contact the server.
	for i := 0; i < 10; i++ {
		tr.Append(pkt.Packet{
			Timestamp: time.Duration(i) * time.Millisecond,
			SrcIP:     pkt.Addr(10, 0, 0, byte(10+i)),
			DstIP:     server,
			SrcPort:   uint16(2000 + i), DstPort: 80, Proto: pkt.ProtoTCP,
		})
	}
	// The heavy client receives 50 packets, all from one server.
	for i := 0; i < 50; i++ {
		tr.Append(pkt.Packet{
			Timestamp: time.Duration(i) * time.Millisecond,
			SrcIP:     server,
			DstIP:     client,
			SrcPort:   80, DstPort: 2000, Proto: pkt.ProtoTCP,
		})
	}
	return tr
}

func TestCoveringTableQualifiesByDistinctSources(t *testing.T) {
	tr := coveringFixture()
	routes := CoveringTable(tr, 5, 0, 1)
	serverPrefix := uint32(pkt.Addr(100, 1, 2, 0))
	clientPrefix := uint32(pkt.Addr(10, 0, 0, 0))
	var hasServer, hasClient bool
	for _, r := range routes {
		if r.Plen == 24 && r.Prefix == serverPrefix {
			hasServer = true
		}
		if r.Plen == 24 && r.Prefix == clientPrefix {
			hasClient = true
		}
	}
	if !hasServer {
		t.Fatal("server /24 (10 distinct sources) must be covered")
	}
	if hasClient {
		t.Fatal("heavy client /24 (1 source, 50 packets) must NOT be covered")
	}
}

func TestCoveringTableThreshold(t *testing.T) {
	tr := coveringFixture()
	// Threshold above the server's 10 sources: nothing covered.
	routes := CoveringTable(tr, 11, 0, 1)
	if len(routes) != 0 {
		t.Fatalf("threshold 11 should cover nothing, got %d routes", len(routes))
	}
}

func TestCoveringTableIncludesBackground(t *testing.T) {
	tr := coveringFixture()
	routes := CoveringTable(tr, 5, 500, 2)
	if len(routes) < 500 {
		t.Fatalf("background routes missing: %d", len(routes))
	}
	// Deterministic for a fixed seed.
	routes2 := CoveringTable(tr, 5, 500, 2)
	if len(routes) != len(routes2) {
		t.Fatal("covering table not deterministic")
	}
	for i := range routes {
		if routes[i] != routes2[i] {
			t.Fatal("covering table not deterministic")
		}
	}
}

func TestCoveringTableNoDuplicates(t *testing.T) {
	tr := coveringFixture()
	routes := CoveringTable(tr, 5, 2000, 3)
	seen := map[uint64]bool{}
	for _, r := range routes {
		key := uint64(r.Prefix)<<6 | uint64(r.Plen)
		if seen[key] {
			t.Fatalf("duplicate route %08x/%d", r.Prefix, r.Plen)
		}
		seen[key] = true
	}
}

func TestCoveringTableEmptyTrace(t *testing.T) {
	routes := CoveringTable(trace.New("empty"), 5, 100, 4)
	if len(routes) != 100 {
		t.Fatalf("empty trace should yield only background: %d", len(routes))
	}
}

// TestCoveringTableDeterministic: the table is a function of its arguments.
// The covered /24s take their next hops by position, so they must come in an
// order that does not depend on map iteration; a Web trace covers a few
// thousand of them.
func TestCoveringTableDeterministic(t *testing.T) {
	cfg := flowgen.DefaultWebConfig()
	cfg.Flows = 20000
	tr := flowgen.Web(cfg)
	want := CoveringTable(tr, 3, 1000, 1)
	if len(want) < 1100 {
		t.Fatalf("%d routes: the trace covers too few /24s to tell an order", len(want))
	}
	for i := 0; i < 5; i++ {
		if got := CoveringTable(tr, 3, 1000, 1); !slices.Equal(got, want) {
			t.Fatalf("build %d: the table differs from the first build", i+2)
		}
	}
}
