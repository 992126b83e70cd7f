package netbench

import (
	"maps"
	"slices"
	"testing"
	"time"

	"flowzip/internal/flowgen"
	"flowzip/internal/pkt"
	"flowzip/internal/radix"
	"flowzip/internal/stats"
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

// covering is CoveringTable over an in-memory trace.
func covering(t *testing.T, tr *trace.Trace, minSources, background int, seed uint64) []radix.Route {
	t.Helper()
	routes, err := CoveringTable(trace.Batches(tr, 0), minSources, background, seed)
	if err != nil {
		t.Fatal(err)
	}
	return routes
}

func TestCoveringTableQualifiesByDistinctSources(t *testing.T) {
	tr := coveringFixture()
	routes := covering(t, tr, 5, 0, 1)
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
	routes := covering(t, tr, 11, 0, 1)
	if len(routes) != 0 {
		t.Fatalf("threshold 11 should cover nothing, got %d routes", len(routes))
	}
}

func TestCoveringTableIncludesBackground(t *testing.T) {
	tr := coveringFixture()
	routes := covering(t, tr, 5, 500, 2)
	if len(routes) < 500 {
		t.Fatalf("background routes missing: %d", len(routes))
	}
	// Deterministic for a fixed seed.
	routes2 := covering(t, tr, 5, 500, 2)
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
	routes := covering(t, tr, 5, 2000, 3)
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
	routes := covering(t, trace.New("empty"), 5, 100, 4)
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
	want := covering(t, tr, 3, 1000, 1)
	if len(want) < 1100 {
		t.Fatalf("%d routes: the trace covers too few /24s to tell an order", len(want))
	}
	for i := 0; i < 5; i++ {
		if got := covering(t, tr, 3, 1000, 1); !slices.Equal(got, want) {
			t.Fatalf("build %d: the table differs from the first build", i+2)
		}
	}
}

// TestCoveringTableMatchesSourceSets holds the streamed pair list to a set of
// sources per destination /24, whatever the batches: the covered prefixes,
// in address order after the background, are the ones with minSources
// distinct sources or more.
func TestCoveringTableMatchesSourceSets(t *testing.T) {
	cfg := flowgen.DefaultWebConfig()
	cfg.Flows = 5000
	tr := flowgen.Web(cfg)
	sources := map[uint32]map[uint32]bool{}
	for _, p := range tr.Packets {
		prefix := uint32(p.DstIP) & 0xFFFFFF00
		if sources[prefix] == nil {
			sources[prefix] = map[uint32]bool{}
		}
		sources[prefix][uint32(p.SrcIP)] = true
	}
	for _, minSources := range []int{1, 3, 5} {
		want := radix.GenerateTable(stats.NewRNG(7), 300)
		seen := map[uint64]bool{}
		for _, r := range want {
			seen[uint64(r.Prefix)<<6|uint64(r.Plen)] = true
		}
		for _, prefix := range slices.Sorted(maps.Keys(sources)) {
			if len(sources[prefix]) >= minSources && !seen[uint64(prefix)<<6|24] {
				want = append(want, radix.Route{Prefix: prefix, Plen: 24, NextHop: uint32(len(want)%256 + 1)})
			}
		}
		for _, batch := range []int{1, 7, 0} {
			got, err := CoveringTable(trace.Batches(tr, batch), minSources, 300, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("minSources %d, batches of %d: %d routes, the source sets give %d", minSources, batch, len(got), len(want))
			}
		}
	}
}
