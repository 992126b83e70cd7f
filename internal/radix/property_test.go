package radix

import (
	"testing"
	"testing/quick"

	"flowzip/internal/stats"
)

// Property: inserting routes in any order yields the same lookup results.
func TestQuickInsertOrderIndependent(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		routes := GenerateTable(rng, 40)
		t1, err := BuildTable(routes, nil)
		if err != nil {
			return false
		}
		shuffled := append([]Route(nil), routes...)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		t2, err := BuildTable(shuffled, nil)
		if err != nil {
			return false
		}
		for i := 0; i < 200; i++ {
			addr := rng.Uint32()
			h1, ok1 := t1.Lookup(addr)
			h2, ok2 := t2.Lookup(addr)
			if ok1 != ok2 || (ok1 && h1 != h2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: Walk output size always equals Len, and every walked entry
// looks itself up correctly.
func TestQuickWalkConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		tr, err := BuildTable(GenerateTable(rng, 50), nil)
		if err != nil {
			return false
		}
		count := 0
		ok := true
		tr.Walk(func(prefix uint32, plen int, hop uint32) {
			count++
			// An address inside the prefix must resolve to some route at
			// least as specific.
			gotHop, found := tr.Lookup(prefix)
			if !found {
				ok = false
			}
			_ = gotHop
		})
		return ok && count == tr.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
