package analytic

import (
	"math"
	"testing"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/flowgen"
)

func TestRVJKnownValues(t *testing.T) {
	m := PaperModel()
	// n=1: full record only: 50/50 = 1.
	if r := m.rVJ(1); math.Abs(r-1) > 1e-12 {
		t.Fatalf("r_vj(1) = %v", r)
	}
	// n=2: (50+6)/100 = 0.56.
	if r := m.rVJ(2); math.Abs(r-0.56) > 1e-12 {
		t.Fatalf("r_vj(2) = %v", r)
	}
	// n→∞ tends to 6/50 = 0.12.
	if r := m.rVJ(100000); math.Abs(r-0.12) > 1e-3 {
		t.Fatalf("r_vj(inf) = %v", r)
	}
	if m.rVJ(0) != 0 {
		t.Fatal("r_vj(0) must be 0")
	}
}

func TestRProposedKnownValues(t *testing.T) {
	m := PaperModel()
	// n=2: 8/100 = 0.08; n=8: 8/400 = 0.02.
	if r := m.rProposed(2); math.Abs(r-0.08) > 1e-12 {
		t.Fatalf("r(2) = %v", r)
	}
	if r := m.rProposed(8); math.Abs(r-0.02) > 1e-12 {
		t.Fatalf("r(8) = %v", r)
	}
}

func TestRatiosOnSyntheticDistribution(t *testing.T) {
	// A mice-heavy distribution like the paper's: check the headline
	// numbers' regime (VJ ~30%, proposed ~3%).
	d := TableDist{2: 0.35, 3: 0.20, 4: 0.12, 6: 0.10, 10: 0.10, 20: 0.08, 50: 0.04, 200: 0.01}
	if err := Validate(d); err != nil {
		t.Fatal(err)
	}
	m := PaperModel()
	vj := m.RatioVJ(d)
	if vj < 0.20 || vj > 0.45 {
		t.Fatalf("R_vj = %v, want ~0.3", vj)
	}
	prop := m.RatioProposed(d)
	if prop < 0.01 || prop > 0.06 {
		t.Fatalf("R_prop = %v, want ~0.03", prop)
	}
	// Factor-10 separation is the paper's headline.
	if vj/prop < 5 {
		t.Fatalf("VJ/proposed separation = %v, want >= 5", vj/prop)
	}
}

func TestRatiosOnMeasuredDistribution(t *testing.T) {
	cfg := flowgen.DefaultWebConfig()
	cfg.Seed = 3
	cfg.Flows = 4000
	cfg.Duration = 30 * time.Second
	tr := flowgen.Web(cfg)
	d := flow.MeasureLengths(tr.Packets)
	adapter := LengthDistAdapter{D: d}
	if err := Validate(adapter); err != nil {
		t.Fatal(err)
	}
	m := PaperModel()
	vj := m.RatioVJ(adapter)
	prop := m.RatioProposed(adapter)
	if vj < 0.15 || vj > 0.60 {
		t.Fatalf("measured R_vj = %v", vj)
	}
	if prop < 0.005 || prop > 0.08 {
		t.Fatalf("measured R_prop = %v", prop)
	}
	if prop >= vj {
		t.Fatal("proposed must beat VJ")
	}
}

func TestAggregateWeighting(t *testing.T) {
	m := PaperModel()
	// With many short flows and one huge flow, the byte-weighted aggregate
	// must be far below the flow-weighted mean for VJ (long flows compress
	// to ~12%).
	d := TableDist{2: 0.99, 10000: 0.01}
	flowWeighted := m.RatioVJ(d)
	aggregate := m.AggregateVJ(d)
	if aggregate >= flowWeighted {
		t.Fatalf("aggregate %v must be < flow-weighted %v", aggregate, flowWeighted)
	}
	if empty := (TableDist{}); m.AggregateVJ(empty) != 0 || m.AggregateProposed(empty) != 0 {
		t.Fatal("empty distribution aggregates must be 0")
	}
}

func TestAggregateProposedSmall(t *testing.T) {
	m := PaperModel()
	d := TableDist{2: 0.5, 10: 0.3, 100: 0.2}
	agg := m.AggregateProposed(d)
	// 8 bytes per flow over >= 2*50 bytes of packets: always under 8%.
	if agg <= 0 || agg > 0.08 {
		t.Fatalf("aggregate proposed = %v", agg)
	}
}

func TestValidateRejectsBadDist(t *testing.T) {
	if err := Validate(TableDist{2: 0.5}); err == nil {
		t.Fatal("half-weight distribution must fail validation")
	}
}

func TestTableDistLengthsSorted(t *testing.T) {
	d := TableDist{9: 0.2, 2: 0.5, 5: 0.3}
	l := d.Lengths()
	if len(l) != 3 || l[0] != 2 || l[1] != 5 || l[2] != 9 {
		t.Fatalf("lengths = %v", l)
	}
}

func TestModelMonotoneInN(t *testing.T) {
	m := PaperModel()
	for n := 2; n < 500; n++ {
		if m.rVJ(n) < m.rVJ(n+1) {
			t.Fatalf("r_vj not monotone at n=%d", n)
		}
		if m.rProposed(n) < m.rProposed(n+1) {
			t.Fatalf("r_prop not monotone at n=%d", n)
		}
		if m.rProposed(n) >= m.rVJ(n) {
			t.Fatalf("r_prop must beat r_vj at n=%d", n)
		}
	}
}
