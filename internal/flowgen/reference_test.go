package flowgen

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"

	"flowzip/internal/pkt"
	"flowzip/internal/trace"
)

// reference is the generators' former body, kept as the naive oracle:
// generate every conversation in arrival order, end to end, then stable-sort
// the packets by timestamp. The run merge must reproduce it packet for
// packet.
func reference(m model) []pkt.Packet {
	var all []pkt.Packet
	for m.remaining() > 0 {
		all = m.generate(all)
	}
	slices.SortStableFunc(all, func(a, b pkt.Packet) int { return cmp.Compare(a.Timestamp, b.Timestamp) })
	return all
}

// samePackets fails the test at the first packet where got departs from want.
func samePackets(t *testing.T, what string, got, want []pkt.Packet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d packets, the reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: packet %d is %+v, the reference has %+v", what, i, got[i], want[i])
		}
	}
}

// genCase is one configuration every entry point is held to the reference on.
type genCase struct {
	name     string
	seed     uint64
	flows    int
	duration time.Duration
}

// generatorCases covers flow counts around the empty and single-run edges and
// up to a bench-like size, five seeds each, plus the shapes that stress the
// merge's admission rule: every conversation starting at once, thousands
// starting in the same millisecond (so quantized first packets tie across
// conversations), and a negative span, which newArrivals takes as zero.
func generatorCases() []genCase {
	var cases []genCase
	for seed := uint64(1); seed <= 5; seed++ {
		for _, flows := range []int{0, 1, 2, 1000, 20000} {
			if raceEnabled && flows > 1000 && seed > 1 {
				continue // the detector makes the reference's sort slow: one seed at this size
			}
			// 6 ms between arrivals, as the benchmark's web workload.
			cases = append(cases, genCase{fmt.Sprintf("seed%d/flows%d", seed, flows), seed, flows, time.Duration(flows) * 6 * time.Millisecond})
		}
		cases = append(cases,
			genCase{fmt.Sprintf("seed%d/together", seed), seed, 3000, 0},
			genCase{fmt.Sprintf("seed%d/dense", seed), seed, 5000, time.Millisecond},
			genCase{fmt.Sprintf("seed%d/negative", seed), seed, 3000, -time.Second},
		)
	}
	return cases
}

// TestWebMatchesReference holds Web, and WebSource at batch sizes that split
// conversations anywhere, to the generate-then-sort reference.
func TestWebMatchesReference(t *testing.T) {
	for _, tc := range generatorCases() {
		cfg := DefaultWebConfig()
		cfg.Seed, cfg.Flows, cfg.Duration = tc.seed, tc.flows, tc.duration
		want := reference(newWebModel(cfg))
		samePackets(t, tc.name+": Web", Web(cfg).Packets, want)
		for _, batch := range []int{1, 7, trace.DefaultBatch} {
			var got []pkt.Packet
			if err := trace.Each(WebSource(cfg, batch), func(b []pkt.Packet) { got = append(got, b...) }); err != nil {
				t.Fatal(err)
			}
			samePackets(t, fmt.Sprintf("%s: WebSource in batches of %d", tc.name, batch), got, want)
		}
	}
}

// TestP2PMatchesReference holds P2P to the same reference over its own model.
func TestP2PMatchesReference(t *testing.T) {
	for _, tc := range generatorCases() {
		cfg := DefaultP2PConfig()
		cfg.Seed, cfg.Flows, cfg.Duration = tc.seed, tc.flows, tc.duration
		samePackets(t, tc.name+": P2P", P2P(cfg).Packets, reference(newP2PModel(cfg)))
	}
}

// TestTiesAcrossConversations checks that the tie configurations above do
// what they are there for: packets of different conversations share a
// timestamp, so the order among them is the tie rule's to decide.
func TestTiesAcrossConversations(t *testing.T) {
	cfg := DefaultWebConfig()
	cfg.Flows, cfg.Duration = 5000, time.Millisecond
	tr := Web(cfg)
	ties := 0
	for i := 1; i < tr.Len(); i++ {
		if a, b := &tr.Packets[i-1], &tr.Packets[i]; a.Timestamp == b.Timestamp && a.Key() != b.Key() {
			ties++
		}
	}
	if ties < 100 {
		t.Fatalf("%d timestamp ties across conversations in %d packets, want hundreds", ties, tr.Len())
	}
}
