package flow

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// Property: DistanceWithin agrees with thresholding the full Distance for
// arbitrary vectors and limits, and distanceUnder returns the exact distance
// whenever it reports ok.
func TestQuickDistanceWithinAgrees(t *testing.T) {
	f := func(raw [][2][6]uint8, lims []int16) bool {
		for i, pair := range raw {
			a, b := Vector(pair[0][:]), Vector(pair[1][:])
			d := Distance(a, b)
			lim := 0
			if len(lims) > 0 {
				lim = int(lims[i%len(lims)])
			}
			if DistanceWithin(a, b, lim) != (d < lim) {
				return false
			}
			if got, ok := distanceUnder(a, b, lim); ok && got != d {
				return false
			}
			// Boundary: a limit of exactly d must not match (strict <), one
			// above must.
			if DistanceWithin(a, b, d) {
				return false
			}
			if !DistanceWithin(a, b, d+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceWithinBoundaries(t *testing.T) {
	// Zero-length vectors: distance 0, so any positive limit matches and
	// zero/negative limits never do.
	if !DistanceWithin(Vector{}, Vector{}, 1) {
		t.Fatal("empty vectors are at distance 0 < 1")
	}
	if DistanceWithin(Vector{}, Vector{}, 0) {
		t.Fatal("limit 0 admits nothing, even empty vectors")
	}
	if DistanceWithin(Vector{1, 2}, Vector{1, 2}, -3) {
		t.Fatal("negative limit admits nothing")
	}

	// Equal sum, different shape: the early-exit walk must still find the
	// true distance, not be fooled by the zero sum difference.
	a, b := Vector{10, 0, 5, 5}, Vector{0, 10, 5, 5}
	if d := Distance(a, b); d != 20 {
		t.Fatalf("distance = %d, want 20", d)
	}
	if DistanceWithin(a, b, 20) {
		t.Fatal("limit exactly met must not match")
	}
	if !DistanceWithin(a, b, 21) {
		t.Fatal("limit just above the distance must match")
	}

	// The early exit may abort mid-walk; ok=false only promises d >= cap.
	if d, ok := distanceUnder(a, b, 5); ok || d < 5 {
		t.Fatalf("distanceUnder = (%d, %v), want partial >= 5 and !ok", d, ok)
	}
}

func TestDistanceUnderPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	distanceUnder(Vector{1}, Vector{1, 2}, 10)
}

// Property: Sum is a valid L1 lower bound — |Sum(a)-Sum(b)| <= Distance(a,b)
// — which is the invariant the store's O(1) candidate rejection rests on.
func TestQuickSumLowerBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 2000; i++ {
		n := rng.IntN(60)
		a, b := make(Vector, n), make(Vector, n)
		for j := 0; j < n; j++ {
			a[j], b[j] = uint8(rng.UintN(256)), uint8(rng.UintN(256))
		}
		ds := Sum(a) - Sum(b)
		if ds < 0 {
			ds = -ds
		}
		if d := Distance(a, b); ds > d {
			t.Fatalf("|sum diff| %d exceeds distance %d", ds, d)
		}
	}
}
