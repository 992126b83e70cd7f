package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUniformRange(t *testing.T) {
	r := NewRNG(1)
	u := Uniform{Lo: 10, Hi: 20}
	for i := 0; i < 10000; i++ {
		x := u.Sample(r)
		if x < 10 || x >= 20 {
			t.Fatalf("uniform out of range: %v", x)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(2)
	e := Exponential{Mean: 42}
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += e.Sample(r)
	}
	if mean := sum / n; math.Abs(mean-42) > 1 {
		t.Fatalf("exponential mean = %v, want ~42", mean)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRNG(3)
	l := LogNormal{Median: 50, Sigma: 0.5}
	xs := make([]float64, 0, 50000)
	for i := 0; i < 50000; i++ {
		xs = append(xs, l.Sample(r))
	}
	s := Summarize(sampleOf(xs...))
	if math.Abs(s.P50-50) > 2 {
		t.Fatalf("lognormal median = %v, want ~50", s.P50)
	}
	if s.Min <= 0 {
		t.Fatalf("lognormal produced non-positive value %v", s.Min)
	}
}

func TestParetoLowerBound(t *testing.T) {
	r := NewRNG(4)
	p := Pareto{Xm: 2, Alpha: 1.5}
	for i := 0; i < 10000; i++ {
		if x := p.Sample(r); x < 2 {
			t.Fatalf("pareto below scale: %v", x)
		}
	}
}

func TestBoundedParetoSupport(t *testing.T) {
	r := NewRNG(5)
	p := BoundedPareto{Xm: 2, Max: 100, Alpha: 1.2}
	for i := 0; i < 20000; i++ {
		x := p.Sample(r)
		if x < 2 || x > 100 {
			t.Fatalf("bounded pareto out of support: %v", x)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(6)
	z := NewZipf(1000, 1.0)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.SampleInt(r)]++
	}
	// Rank 0 should dominate rank 99 by roughly 100x under s=1.
	if counts[0] < counts[99]*20 {
		t.Fatalf("zipf not skewed: rank0=%d rank99=%d", counts[0], counts[99])
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := NewRNG(7)
	z := NewZipf(10, 0)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[z.SampleInt(r)]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("s=0 zipf rank %d freq %v, want ~0.1", i, frac)
		}
	}
}

func TestDiscretePowerLawSupport(t *testing.T) {
	r := NewRNG(8)
	d := NewDiscretePowerLaw(2, 5000, 2.4)
	for i := 0; i < 20000; i++ {
		n := d.SampleInt(r)
		if n < 2 || n > 5000 {
			t.Fatalf("power law out of support: %d", n)
		}
	}
}

func TestDiscretePowerLawCDFMatchesPaperShape(t *testing.T) {
	// The generator default (alpha=2.4, min 2) must put ~98% of flows below
	// 51 packets — the statistic the paper's compressor design rests on.
	d := NewDiscretePowerLaw(2, 5000, 2.4)
	cdf50 := d.cdf[50-d.Min]
	if cdf50 < 0.95 || cdf50 > 0.999 {
		t.Fatalf("CDF(50) = %v, want ~0.98", cdf50)
	}
}

func TestDiscretePowerLawMean(t *testing.T) {
	d := NewDiscretePowerLaw(2, 5000, 2.4)
	var mass, moment float64
	for n := 2; n <= 5000; n++ {
		p := math.Pow(float64(n), -2.4)
		mass += p
		moment += float64(n) * p
	}
	analytic := moment / mass
	r := NewRNG(9)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(d.SampleInt(r))
	}
	empirical := sum / n
	if math.Abs(empirical-analytic)/analytic > 0.05 {
		t.Fatalf("empirical mean %v vs analytic %v", empirical, analytic)
	}
}

func TestDiscreteSampler(t *testing.T) {
	r := NewRNG(10)
	d := NewDiscrete([]int{40, 576, 1500}, []float64{0.5, 0.3, 0.2})
	counts := map[int]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[d.SampleInt(r)]++
	}
	if frac := float64(counts[40]) / n; math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("value 40 freq %v, want ~0.5", frac)
	}
	if frac := float64(counts[1500]) / n; math.Abs(frac-0.2) > 0.01 {
		t.Fatalf("value 1500 freq %v, want ~0.2", frac)
	}
}

// Property: CDF is monotone and bounded for arbitrary alpha in (0.5, 4).
func TestQuickPowerLawCDFMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		alpha := 0.5 + float64(seed%350)/100.0
		d := NewDiscretePowerLaw(2, 200, alpha)
		prev := 0.0
		for n := 2; n <= 200; n++ {
			c := d.cdf[n-d.Min]
			if c < prev-1e-12 || c > 1+1e-12 {
				return false
			}
			prev = c
		}
		return math.Abs(prev-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
