package flowgen

import (
	"testing"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/stats"
	"flowzip/internal/trace"
)

func smallP2P(seed uint64, flows int) P2PConfig {
	cfg := DefaultP2PConfig()
	cfg.Seed = seed
	cfg.Flows = flows
	cfg.Duration = 10 * time.Second
	return cfg
}

func TestP2PDeterministic(t *testing.T) {
	a := P2P(smallP2P(1, 200))
	b := P2P(smallP2P(1, 200))
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Packets {
		if a.Packets[i] != b.Packets[i] {
			t.Fatalf("packet %d differs", i)
		}
	}
}

func TestP2PSortedAndNonEmpty(t *testing.T) {
	tr := P2P(smallP2P(2, 300))
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	if !tr.IsSorted() {
		t.Fatal("trace not sorted")
	}
	if P2P(P2PConfig{}).Len() != 0 {
		t.Fatal("zero flows must give empty trace")
	}
}

func TestP2PBidirectionalData(t *testing.T) {
	// The defining P2P property: payload-bearing packets flow both ways
	// within a conversation.
	tr := P2P(smallP2P(3, 400))
	type conversation struct {
		packets        int
		dataLo, dataHi bool
	}
	convs := map[pkt.FlowKey]*conversation{}
	for i := range tr.Packets {
		p := &tr.Packets[i]
		key, fromLo := p.KeyDir()
		c := convs[key]
		if c == nil {
			c = &conversation{}
			convs[key] = c
		}
		c.packets++
		if p.PayloadLen > 0 {
			if fromLo {
				c.dataLo = true
			} else {
				c.dataHi = true
			}
		}
	}
	bidir := 0
	candidates := 0
	for _, c := range convs {
		if c.packets < 10 {
			continue
		}
		candidates++
		if c.dataLo && c.dataHi {
			bidir++
		}
	}
	if candidates == 0 {
		t.Skip("no long flows in sample")
	}
	if bidir < candidates/2 {
		t.Fatalf("only %d/%d long flows carry data both ways", bidir, candidates)
	}
}

func TestP2PEphemeralPorts(t *testing.T) {
	tr := P2P(smallP2P(4, 200))
	port80 := 0
	for i := range tr.Packets {
		p := &tr.Packets[i]
		if p.SrcPort < 1024 || p.DstPort < 1024 {
			t.Fatalf("well-known port in P2P trace: %v", p.Tuple())
		}
		if p.DstPort == 80 || p.SrcPort == 80 {
			port80++
		}
	}
	// Port 80 can occur only by random collision — it must be rare.
	if port80 > tr.Len()/100 {
		t.Fatalf("too many port-80 packets: %d", port80)
	}
}

func TestP2PHeavierTailThanWeb(t *testing.T) {
	web := Web(smallWeb(5, 2000))
	p2p := P2P(smallP2P(5, 2000))
	dw := flow.MeasureLengths(web.Packets)
	dp := flow.MeasureLengths(p2p.Packets)
	if dp.MeanLength() <= dw.MeanLength() {
		t.Fatalf("P2P mean length %v not above Web %v", dp.MeanLength(), dw.MeanLength())
	}
	// P2P has a smaller share of sub-51-packet flows than Web.
	if dp.FlowFracBelow(51) >= dw.FlowFracBelow(51) {
		t.Fatalf("P2P short-flow share %v not below Web %v",
			dp.FlowFracBelow(51), dw.FlowFracBelow(51))
	}
}

func TestP2PFlowsStartWithSYN(t *testing.T) {
	tr := P2P(smallP2P(6, 150))
	for _, f := range flow.Assemble(tr.Packets) {
		if first, _, _ := flow.DefaultWeights.Decompose(int(f.Vector(flow.DefaultWeights)[0])); first != flow.FlagClassSYN {
			t.Fatalf("flow starts with class %d", first)
		}
	}
}

func TestP2PExactFlowLengths(t *testing.T) {
	// The builder must emit exactly n packets for every n.
	for _, n := range []int{2, 3, 4, 5, 6, 10, 20, 60} {
		cfg := smallP2P(uint64(n), 1)
		cfg.MaxLength = n
		cfg.LengthAlpha = 50 // force min = n... not quite; use direct emit
		tr := traceWithOneP2PFlow(n)
		if tr.Len() != n {
			t.Fatalf("n=%d emitted %d packets", n, tr.Len())
		}
	}
}

func traceWithOneP2PFlow(n int) *trace.Trace {
	rng := stats.NewRNG(uint64(n))
	return &trace.Trace{Name: "one", Packets: emitP2PFlow(nil, rng, pkt.Addr(10, 0, 0, 1), pkt.Addr(10, 0, 0, 2), 5000, 6000, 0, 40*time.Millisecond, n)}
}
