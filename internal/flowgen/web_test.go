package flowgen

import (
	"testing"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/stats"
	"flowzip/internal/trace"
)

func smallWeb(seed uint64, flows int) WebConfig {
	cfg := DefaultWebConfig()
	cfg.Seed = seed
	cfg.Flows = flows
	cfg.Duration = 10 * time.Second
	return cfg
}

func TestWebDeterministic(t *testing.T) {
	a := Web(smallWeb(42, 200))
	b := Web(smallWeb(42, 200))
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Packets {
		if a.Packets[i] != b.Packets[i] {
			t.Fatalf("packet %d differs", i)
		}
	}
}

func TestWebSeedsDiffer(t *testing.T) {
	a := Web(smallWeb(1, 100))
	b := Web(smallWeb(2, 100))
	if a.Len() == b.Len() {
		same := true
		for i := range a.Packets {
			if a.Packets[i] != b.Packets[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestWebSorted(t *testing.T) {
	tr := Web(smallWeb(3, 300))
	if !tr.IsSorted() {
		t.Fatal("web trace must be timestamp sorted")
	}
}

func TestWebFlowCount(t *testing.T) {
	tr := Web(smallWeb(4, 500))
	flows := flow.Assemble(tr.Packets)
	// Client ports are random, so a tiny number of 5-tuple collisions can
	// merge flows; allow 1% slack.
	if len(flows) < 495 || len(flows) > 500 {
		t.Fatalf("assembled %d flows, want ~500", len(flows))
	}
}

func TestWebFlowLengthDistributionMatchesPaper(t *testing.T) {
	tr := Web(smallWeb(5, 4000))
	d := flow.MeasureLengths(tr.Packets)
	frac := d.FlowFracBelow(51)
	// Paper: 98% of flows below 51 packets.
	if frac < 0.95 || frac > 1.0 {
		t.Fatalf("flow frac below 51 = %v, want ~0.98", frac)
	}
	// Paper: those flows carry ~75% of packets and ~80% of bytes. The shape
	// (majority but not all) is what matters.
	pf := d.PacketFracBelow(51)
	if pf < 0.5 || pf > 0.95 {
		t.Fatalf("packet frac below 51 = %v, want ~0.75", pf)
	}
}

func TestWebConversationStructure(t *testing.T) {
	tr := Web(smallWeb(6, 300))
	flows := flow.Assemble(tr.Packets)
	for _, f := range flows {
		if f.Len() < 2 {
			t.Fatalf("flow with %d packets", f.Len())
		}
		// First packet of every conversation is the client SYN.
		if first, _, _ := flow.DefaultWeights.Decompose(int(f.Vector(flow.DefaultWeights)[0])); first != flow.FlagClassSYN {
			t.Fatalf("flow starts with class %d, want SYN", first)
		}
		// The SYN goes to the server (ServerIP, the first packet's
		// destination): port 80.
		port := f.Key.LoPort
		if f.ServerIP() == f.Key.HiIP {
			port = f.Key.HiPort
		}
		if port != 80 {
			t.Fatalf("server port = %d, want 80", port)
		}
	}
}

func TestWebHandshakeTiming(t *testing.T) {
	cfg := smallWeb(7, 200)
	cfg.RTTMedian = 80 * time.Millisecond
	cfg.RTTSigma = 0.1
	tr := Web(cfg)
	flows := flow.Assemble(tr.Packets)
	var est []time.Duration
	for _, f := range flows {
		if r := f.EstimateRTT(); r > 0 {
			est = append(est, r)
		}
	}
	if len(est) == 0 {
		t.Fatal("no RTT estimates")
	}
	// Median estimate should be near the configured RTT.
	sortDur(est)
	med := est[len(est)/2]
	if med < 60*time.Millisecond || med > 110*time.Millisecond {
		t.Fatalf("median RTT estimate %v, want ~80ms", med)
	}
}

func sortDur(d []time.Duration) {
	for i := 1; i < len(d); i++ {
		for j := i; j > 0 && d[j] < d[j-1]; j-- {
			d[j], d[j-1] = d[j-1], d[j]
		}
	}
}

func TestWebEmptyConfig(t *testing.T) {
	tr := Web(WebConfig{})
	if tr.Len() != 0 {
		t.Fatal("zero flows must give empty trace")
	}
}

func TestWebServerReuse(t *testing.T) {
	cfg := smallWeb(8, 1000)
	cfg.Servers = 50
	tr := Web(cfg)
	s := tr.ComputeStats()
	// Destinations include servers (client->server) and clients
	// (server->client); server destinations must be capped by the pool.
	servers := map[pkt.IPv4]bool{}
	for _, p := range tr.Packets {
		if p.DstPort == 80 {
			servers[p.DstIP] = true
		}
	}
	if len(servers) > 50 {
		t.Fatalf("server pool leaked: %d distinct servers", len(servers))
	}
	if s.Packets == 0 {
		t.Fatal("empty trace")
	}
}

func TestWebExactFlowLengths(t *testing.T) {
	// Verify the conversation builder emits exactly n packets for each n.
	for n := 2; n <= 80; n++ {
		tr := traceWithOneFlow(n)
		if tr.Len() != n {
			t.Fatalf("conversation n=%d emitted %d packets", n, tr.Len())
		}
		flows := flow.Assemble(tr.Packets)
		if len(flows) != 1 {
			t.Fatalf("n=%d assembled into %d flows", n, len(flows))
		}
	}
}

func traceWithOneFlow(n int) *trace.Trace {
	rng := stats.NewRNG(uint64(n))
	return &trace.Trace{Name: "one", Packets: emitConversation(nil, rng, pkt.Addr(10, 0, 0, 1), pkt.Addr(20, 0, 0, 1), 5000, 0, 50*time.Millisecond, n)}
}
