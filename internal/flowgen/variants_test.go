package flowgen

import (
	"fmt"
	"testing"
	"time"

	"flowzip/internal/pkt"
	"flowzip/internal/trace"
)

func TestRandomizeAddressesPreservesTiming(t *testing.T) {
	base := Web(smallWeb(11, 200))
	rnd := RandomizeAddresses(base, 99)
	if rnd.Len() != base.Len() {
		t.Fatalf("length changed: %d vs %d", rnd.Len(), base.Len())
	}
	for i := range base.Packets {
		if rnd.Packets[i].Timestamp != base.Packets[i].Timestamp {
			t.Fatal("timestamps must be preserved")
		}
		if rnd.Packets[i].SrcIP != base.Packets[i].SrcIP {
			t.Fatal("source addresses must be preserved")
		}
		if rnd.Packets[i].PayloadLen != base.Packets[i].PayloadLen {
			t.Fatal("sizes must be preserved")
		}
	}
	// Destinations must actually change for (almost) all packets.
	changed := 0
	for i := range base.Packets {
		if rnd.Packets[i].DstIP != base.Packets[i].DstIP {
			changed++
		}
	}
	if changed < base.Len()*9/10 {
		t.Fatalf("only %d/%d destinations changed", changed, base.Len())
	}
}

func TestRandomizeDoesNotMutateBase(t *testing.T) {
	base := Web(smallWeb(12, 50))
	before := append([]pkt.Packet(nil), base.Packets...)
	RandomizeAddresses(base, 5)
	for i := range before {
		if base.Packets[i] != before[i] {
			t.Fatal("base trace mutated")
		}
	}
}

func TestRandomizeDestinationSpread(t *testing.T) {
	base := Web(smallWeb(13, 500))
	rnd := RandomizeAddresses(base, 7)
	dsts := map[pkt.IPv4]bool{}
	for _, p := range rnd.Packets {
		dsts[p.DstIP] = true
	}
	// Uniform random destinations: nearly every packet gets a unique one.
	if len(dsts) < rnd.Len()*9/10 {
		t.Fatalf("random trace reuses destinations too much: %d unique of %d", len(dsts), rnd.Len())
	}
}

func TestFractalDeterministic(t *testing.T) {
	cfg := DefaultFractalConfig()
	cfg.Packets = 2000
	a := Fractal(cfg)
	b := Fractal(cfg)
	for i := range a.Packets {
		if a.Packets[i] != b.Packets[i] {
			t.Fatalf("packet %d differs", i)
		}
	}
}

func TestFractalLocality(t *testing.T) {
	cfg := DefaultFractalConfig()
	cfg.Packets = 20000
	tr := Fractal(cfg)
	dsts := map[pkt.IPv4]int{}
	for _, p := range tr.Packets {
		dsts[p.DstIP]++
	}
	// LRU reuse must concentrate references: far fewer unique destinations
	// than packets.
	if len(dsts) > tr.Len()/2 {
		t.Fatalf("fractal trace has no locality: %d unique of %d", len(dsts), tr.Len())
	}
	// And some destination must be heavily reused.
	maxCount := 0
	for _, c := range dsts {
		if c > maxCount {
			maxCount = c
		}
	}
	// Uniform random destinations would give ~1 reference per address.
	if maxCount < 30 {
		t.Fatalf("max reuse = %d, want heavy reuse", maxCount)
	}
}

func TestFractalExponentialGaps(t *testing.T) {
	cfg := DefaultFractalConfig()
	cfg.Packets = 20000
	cfg.MeanGap = 200 * time.Microsecond
	tr := Fractal(cfg)
	if !tr.IsSorted() {
		t.Fatal("fractal trace must be sorted")
	}
	var sum time.Duration
	for i := 1; i < tr.Len(); i++ {
		sum += tr.Packets[i].Timestamp - tr.Packets[i-1].Timestamp
	}
	mean := sum / time.Duration(tr.Len()-1)
	if mean < 150*time.Microsecond || mean > 250*time.Microsecond {
		t.Fatalf("mean gap = %v, want ~200µs", mean)
	}
}

func TestFractalEmpty(t *testing.T) {
	if tr := Fractal(FractalConfig{}); tr.Len() != 0 {
		t.Fatal("zero packets must give empty trace")
	}
}

func TestFractalBiasedBits(t *testing.T) {
	cfg := DefaultFractalConfig()
	cfg.Packets = 30000
	cfg.ReuseProb = 0 // pure cascade draws
	tr := Fractal(cfg)
	// Under the multiplicative process each bit position is strongly biased
	// one way; count ones per bit and check skew.
	skewed := 0
	for bit := 0; bit < 32; bit++ {
		ones := 0
		for _, p := range tr.Packets {
			if uint32(p.DstIP)&(1<<uint(31-bit)) != 0 {
				ones++
			}
		}
		frac := float64(ones) / float64(tr.Len())
		if frac < 0.35 || frac > 0.65 {
			skewed++
		}
	}
	if skewed < 24 {
		t.Fatalf("only %d/32 bit positions skewed; cascade not biased", skewed)
	}
}

// TestVariantSourcesMatchDrains holds the streamed random-address and
// fractal traces, at batch sizes that split the stream anywhere, to the
// whole traces RandomizeAddresses and Fractal return.
func TestVariantSourcesMatchDrains(t *testing.T) {
	wcfg := DefaultWebConfig()
	wcfg.Flows = 500
	base := Web(wcfg)
	fcfg := DefaultFractalConfig()
	fcfg.Packets = 20000
	for _, batch := range []int{1, 7, trace.DefaultBatch} {
		for _, tc := range []struct {
			name string
			src  trace.Source
			want *trace.Trace
		}{
			{"RandomizeSource", RandomizeSource(trace.Batches(base, batch), 5), RandomizeAddresses(base, 5)},
			{"FractalSource", FractalSource(fcfg, batch), Fractal(fcfg)},
		} {
			var got []pkt.Packet
			if err := trace.Each(tc.src, func(b []pkt.Packet) { got = append(got, b...) }); err != nil {
				t.Fatal(err)
			}
			samePackets(t, fmt.Sprintf("%s in batches of %d", tc.name, batch), got, tc.want.Packets)
		}
	}
}
