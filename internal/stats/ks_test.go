package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKSIdenticalSamples(t *testing.T) {
	a := sampleOf(1, 2, 3, 4, 5)
	if d := KSDistance(a, a); d != 0 {
		t.Fatalf("identical samples KS = %v", d)
	}
}

func TestKSDisjointSamples(t *testing.T) {
	a := sampleOf(1, 2, 3)
	b := sampleOf(10, 11, 12)
	if d := KSDistance(a, b); math.Abs(d-1) > 1e-12 {
		t.Fatalf("disjoint samples KS = %v, want 1", d)
	}
}

func TestKSKnownValue(t *testing.T) {
	// F_a jumps to 1 at 1; F_b jumps 0.5 at 1 and 1.0 at 2: sup diff = 0.5.
	a := sampleOf(1, 1)
	b := sampleOf(1, 2)
	if d := KSDistance(a, b); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("KS = %v, want 0.5", d)
	}
}

func TestKSEmpty(t *testing.T) {
	if d := KSDistance(nil, nil); d != 0 {
		t.Fatalf("both empty KS = %v", d)
	}
	if d := KSDistance(sampleOf(1), nil); d != 1 {
		t.Fatalf("one empty KS = %v", d)
	}
}

func TestKSSymmetric(t *testing.T) {
	r := NewRNG(1)
	a := make([]float64, 100)
	b := make([]float64, 150)
	for i := range a {
		a[i] = r.Float64()
	}
	for i := range b {
		b[i] = r.Float64() * 1.2
	}
	if d1, d2 := KSDistance(sampleOf(a...), sampleOf(b...)), KSDistance(sampleOf(b...), sampleOf(a...)); math.Abs(d1-d2) > 1e-12 {
		t.Fatalf("asymmetric: %v vs %v", d1, d2)
	}
}

func TestKSSameDistributionSmall(t *testing.T) {
	// Two large samples of the same distribution: KS should be small.
	r := NewRNG(2)
	a := make([]float64, 5000)
	b := make([]float64, 5000)
	for i := range a {
		a[i] = r.normFloat64()
		b[i] = r.normFloat64()
	}
	if d := KSDistance(sampleOf(a...), sampleOf(b...)); d > 0.05 {
		t.Fatalf("same-distribution KS = %v, want < 0.05", d)
	}
	// Shifted distribution: clearly larger.
	for i := range b {
		b[i] += 1
	}
	if d := KSDistance(sampleOf(a...), sampleOf(b...)); d < 0.3 {
		t.Fatalf("shifted KS = %v, want > 0.3", d)
	}
}

// Property: KS is in [0,1], symmetric, and zero against itself.
func TestQuickKSProperties(t *testing.T) {
	f := func(rawA, rawB []uint16) bool {
		a := make([]float64, len(rawA))
		for i, v := range rawA {
			a[i] = float64(v)
		}
		b := make([]float64, len(rawB))
		for i, v := range rawB {
			b[i] = float64(v)
		}
		sa, sb := sampleOf(a...), sampleOf(b...)
		d := KSDistance(sa, sb)
		if d < 0 || d > 1 {
			return false
		}
		if math.Abs(d-KSDistance(sb, sa)) > 1e-12 {
			return false
		}
		return KSDistance(sa, sa) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
