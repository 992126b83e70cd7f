package flow

import (
	"bytes"
	"testing"
)

// FuzzDistanceKernels pins the word-at-a-time kernels to the scalar byte-loop
// reference across the shapes that break SWAR code: empty and one-element
// vectors, lengths straddling the 8-byte word boundary, equal-sum adversarial
// pairs (which defeat the sum prune but not the kernel), and limits exactly
// met (the strict-inequality boundary).
func FuzzDistanceKernels(f *testing.F) {
	f.Add([]byte{}, 1)
	f.Add([]byte{7, 7}, 1)                   // length-1 pair
	f.Add([]byte{0, 10, 10, 0}, 21)          // equal-sum adversarial, d=20
	f.Add([]byte{0, 10, 10, 0}, 20)          // limit exactly met: no match
	f.Add(bytes.Repeat([]byte{9}, 14), 1)    // length 7: scalar-only path
	f.Add(bytes.Repeat([]byte{1}, 16), 9)    // length 8: exactly one word
	f.Add(bytes.Repeat([]byte{255}, 18), 3)  // length 9: word + 1-byte tail
	f.Add(bytes.Repeat([]byte{128}, 46), 50) // length 23: words + 7-byte tail
	f.Fuzz(func(t *testing.T, data []byte, lim int) {
		n := len(data) / 2
		a, b := Vector(data[:n]), Vector(data[n:2*n])

		want := 0
		for i := range a {
			if a[i] > b[i] {
				want += int(a[i] - b[i])
			} else {
				want += int(b[i] - a[i])
			}
		}
		if got := Distance(a, b); got != want {
			t.Fatalf("Distance=%d, scalar=%d (n=%d)", got, want, n)
		}
		if got := Distance(b, a); got != want {
			t.Fatalf("Distance not symmetric: %d vs %d", got, want)
		}

		// Probe the early-exit kernels at the fuzzed limit and at every
		// boundary around the true distance.
		for _, c := range []int{lim, want - 1, want, want + 1, 0, 1} {
			wantOK := c > 0 && want < c
			d, ok := distanceUnder(a, b, c)
			if ok != wantOK {
				t.Fatalf("distanceUnder(cap=%d)=(%d,%v), want ok=%v (d=%d)", c, d, ok, wantOK, want)
			}
			if ok && d != want {
				t.Fatalf("distanceUnder(cap=%d) distance %d, want %d", c, d, want)
			}
			if !ok && c > 0 && d < c {
				t.Fatalf("distanceUnder(cap=%d) rejected with partial %d < cap", c, d)
			}
			if DistanceWithin(a, b, c) != wantOK {
				t.Fatalf("DistanceWithin(lim=%d)=%v, want %v", c, !wantOK, wantOK)
			}
		}

		// Batch kernel: the fuzz payload doubles as an arena of count
		// vectors of length n matched against a. First-fit must agree with
		// the per-candidate scalar walk at every interesting limit.
		if n == 0 {
			return
		}
		count := len(data) / n
		arena := data[:count*n]
		for _, c := range []int{lim, want, want + 1, 0, 1} {
			wantIdx := -1
			if c > 0 {
				for i := 0; i < count; i++ {
					cand := Vector(arena[i*n : (i+1)*n])
					d := 0
					for j := range cand {
						if cand[j] > a[j] {
							d += int(cand[j] - a[j])
						} else {
							d += int(a[j] - cand[j])
						}
					}
					if d < c {
						wantIdx = i
						break
					}
				}
			}
			if got := DistanceWithinBatch(arena, count, a, c); got != wantIdx {
				t.Fatalf("DistanceWithinBatch(count=%d,n=%d,lim=%d)=%d, want %d", count, n, c, got, wantIdx)
			}
		}
	})
}

// TestDistanceBatchZeroLength pins the zero-length contract: every candidate
// is at distance 0, so any positive limit matches the first one.
func TestDistanceBatchZeroLength(t *testing.T) {
	if got := DistanceWithinBatch(nil, 3, nil, 1); got != 0 {
		t.Fatalf("zero-length positive limit: got %d, want 0", got)
	}
	if got := DistanceWithinBatch(nil, 3, nil, 0); got != -1 {
		t.Fatalf("zero-length zero limit: got %d, want -1", got)
	}
	if got := DistanceWithinBatch(nil, 0, nil, 1); got != -1 {
		t.Fatalf("empty arena: got %d, want -1", got)
	}
}
