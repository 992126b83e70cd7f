package cluster

import "sync/atomic"

// StoreObserver samples the store's match machinery: how often the O(1)
// sum bound rejects a candidate before the distance computation runs, how
// often the exact-vector memo short-circuits a walk entirely, and how the
// SoA arenas and the batch entry point are being used.
//
// The observer is attached with Store.Observe. There is one walk, find:
// it counts rejects and distance calls in locals and hands them over once
// per walk, so an unobserved store pays one nil check per walk and none per
// candidate, and the counts equal what a slot-by-slot walk would report
// (TestObserverCountsSequentialWalk). Counters are atomics because shard
// compressors may share one observer across pipeline workers.
type StoreObserver struct {
	Lookups    atomic.Int64 // first-fit walks taken
	SumRejects atomic.Int64 // candidates rejected by the element-sum bound
	DistCalls  atomic.Int64 // candidates that reached the full distance computation
	MemoHits   atomic.Int64 // Match calls resolved by the exact-vector memo
	Matches    atomic.Int64 // Match calls that reused a template
	Creates    atomic.Int64 // templates created (Match misses)
	ArenaBytes atomic.Int64 // vector bytes held in bucket arenas (occupancy)
	BatchCalls atomic.Int64 // MatchBatch invocations
	BatchSize  atomic.Int64 // vectors submitted through MatchBatch (fan-in)
}

// Observe attaches o to the store (nil detaches) and returns the store.
// Arena occupancy accumulated before the attach is folded into the
// observer, so ArenaBytes always reflects the full arenas of every store
// the observer is attached to.
func (s *Store) Observe(o *StoreObserver) *Store {
	if o != nil && s.obs != o {
		o.ArenaBytes.Add(s.arenaBytes)
	}
	s.obs = o
	return s
}
