package memsim

import (
	"testing"
	"testing/quick"
)

// Cross-validation between the two locality models: the stack-distance
// profile's predicted hit rate at capacity k blocks must exactly equal the
// measured hit rate of a fully-associative LRU cache with k lines over the
// same stream. This pins both implementations to the textbook LRU
// semantics.
func TestStackDistMatchesFullyAssociativeCache(t *testing.T) {
	const block = 32
	for _, blocks := range []int{1, 2, 4, 8, 16} {
		cache := MustCache(CacheConfig{TotalBytes: blocks * block, BlockBytes: block, Ways: blocks})
		sd := newStackDist(block)
		// A stream with reuse at several scales.
		addrs := []uint64{0, 32, 64, 0, 96, 32, 128, 0, 160, 192, 64, 0}
		hits := 0
		for _, a := range addrs {
			if cache.Access(a) {
				hits++
			}
			sd.Access(a)
		}
		measured := float64(hits) / float64(len(addrs))
		predicted := sd.hitRateAt(blocks)
		if measured != predicted {
			t.Fatalf("blocks=%d: cache hit rate %v != stack-distance prediction %v",
				blocks, measured, predicted)
		}
	}
}

// Property: the equivalence holds for arbitrary streams and capacities.
func TestQuickStackDistCacheEquivalence(t *testing.T) {
	const block = 64
	f := func(raw []uint16, capRaw uint8) bool {
		blocks := 1 << (capRaw % 6) // 1..32 lines, power of two
		cache := MustCache(CacheConfig{TotalBytes: blocks * block, BlockBytes: block, Ways: blocks})
		sd := newStackDist(block)
		hits := 0
		for _, v := range raw {
			addr := uint64(v%512) * 8 // bounded working set with reuse
			if cache.Access(addr) {
				hits++
			}
			sd.Access(addr)
		}
		if len(raw) == 0 {
			return true
		}
		measured := float64(hits) / float64(len(raw))
		return measured == sd.hitRateAt(blocks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
