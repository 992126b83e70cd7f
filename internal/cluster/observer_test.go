package cluster

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"flowzip/internal/flow"
)

// smallAlphabetVectors draws count vectors of 4 to 7 elements from a small
// alphabet, so matches, prune rejects and memo hits all happen.
func smallAlphabetVectors(rng *rand.Rand, count int) []flow.Vector {
	vecs := make([]flow.Vector, count)
	for i := range vecs {
		v := make(flow.Vector, 4+rng.IntN(4))
		for j := range v {
			v[j] = uint8(rng.IntN(32))
		}
		vecs[i] = v
	}
	return vecs
}

// TestObserverTransparent drives the same vector stream through an
// observed and an unobserved store and requires identical decisions: the
// byte-identity invariant of the whole pipeline rests on attaching an
// observer changing nothing but the counters.
func TestObserverTransparent(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 42))
	vecs := smallAlphabetVectors(rng, 3000)

	plain := NewStore()
	obs := &StoreObserver{}
	observed := NewStore().Observe(obs)
	for i, v := range vecs {
		pt, pc := plain.Match(v)
		ot, oc := observed.Match(v)
		if pc != oc || pt.ID != ot.ID {
			t.Fatalf("vector %d: plain (id=%d created=%v) != observed (id=%d created=%v)",
				i, pt.ID, pc, ot.ID, oc)
		}
	}
	if plain.Len() != observed.Len() {
		t.Fatalf("template counts diverge: %d vs %d", plain.Len(), observed.Len())
	}

	// The counters must be internally consistent with what happened.
	matches, creates := obs.Matches.Load(), obs.Creates.Load()
	if matches+creates != int64(len(vecs)) {
		t.Errorf("matches %d + creates %d != %d Match calls", matches, creates, len(vecs))
	}
	if creates != int64(observed.Len()) {
		t.Errorf("creates = %d, want %d (store length)", creates, observed.Len())
	}
	if obs.Lookups.Load() == 0 {
		t.Error("no lookups sampled")
	}
	if obs.DistCalls.Load() == 0 {
		t.Error("no distance calls sampled (alphabet too sparse?)")
	}
	if obs.SumRejects.Load()+obs.SigRejects.Load() == 0 {
		t.Error("prune bounds never fired")
	}
	// Memo hits are a subset of matches, and every non-memo Match call
	// took a walk.
	if obs.MemoHits.Load() > matches {
		t.Errorf("memo hits %d exceed matches %d", obs.MemoHits.Load(), matches)
	}
	if want := int64(len(vecs)) - obs.MemoHits.Load(); obs.Lookups.Load() != want {
		t.Errorf("lookups = %d, want %d (calls minus memo hits)", obs.Lookups.Load(), want)
	}

	// Detaching restores the unobserved walk; decisions keep agreeing.
	observed.Observe(nil)
	before := obs.Lookups.Load()
	for i := 0; i < 100; i++ {
		v := make(flow.Vector, 5)
		for j := range v {
			v[j] = uint8(rng.IntN(32))
		}
		pt, pc := plain.Match(v)
		ot, oc := observed.Match(v)
		if pc != oc || pt.ID != ot.ID {
			t.Fatalf("after detach, vector %d diverged", i)
		}
	}
	if obs.Lookups.Load() != before {
		t.Error("detached observer still counted lookups")
	}
}

// TestObserverCountsSequentialWalk pins the observer's walk counters to the
// naive reference's slot-by-slot counts. The store screens candidates in
// runs and hands each run to the batch kernel, yet must report the rejects
// and distance calls of a walk that visits one slot at a time and stops at
// the first fit.
func TestObserverCountsSequentialWalk(t *testing.T) {
	populations := map[string][]flow.Vector{
		"random": smallAlphabetVectors(rand.New(rand.NewPCG(41, 42)), 3000),
	}
	for _, length := range []int{1, 2, 5, 8, 16, 33} {
		populations[fmt.Sprintf("adversarial/%d", length)] = adversarialVectors(uint64(length), 400, length)
	}
	limits := map[string]func(int) int{
		"paper": flow.DistanceLimit,
		"exact": func(int) int { return 1 },
		"zero":  func(int) int { return 0 },
	}
	for pop, vecs := range populations {
		for name, lim := range limits {
			for _, memo := range []bool{false, true} {
				ref := newNaiveStore(lim)
				o := &StoreObserver{}
				s := NewStoreLimit(lim).Observe(o)
				if memo {
					ref.memo = map[string]int{}
					s.EnableMemo()
				}
				for i, v := range vecs {
					wantID, wantCreated := ref.match(v)
					if tpl, created := s.Match(v); tpl.ID != wantID || created != wantCreated {
						t.Fatalf("%s %s memo=%v vec %d: Match = (%d,%v), naive (%d,%v)",
							pop, name, memo, i, tpl.ID, created, wantID, wantCreated)
					}
				}
				for _, c := range []struct {
					what      string
					got, want int64
				}{
					{"lookups", o.Lookups.Load(), ref.lookups},
					{"sum rejects", o.SumRejects.Load(), ref.sumRejects},
					{"sig rejects", o.SigRejects.Load(), ref.sigRejects},
					{"distance calls", o.DistCalls.Load(), ref.distCalls},
					{"memo hits", o.MemoHits.Load(), ref.memoHits},
				} {
					if c.got != c.want {
						t.Errorf("%s %s memo=%v: %s = %d, slot-by-slot walk %d", pop, name, memo, c.what, c.got, c.want)
					}
				}
			}
		}
	}
}
