// Package cluster implements the flow-clustering machinery of the paper:
// the template store the compressor uses to group similar short flows
// (Section 3) and the concentration report of the Section 2.1
// flow-diversity study.
//
// # The template store
//
// Store holds cluster centers (Templates) bucketed by flow length — the
// paper only compares flows with identical packet counts — and answers
// Match with first-fit semantics under the L1 distance and the d_lim(n)
// threshold: the first existing template within the limit is reused,
// otherwise the queried vector becomes a new template. First-fit makes the
// store order-sensitive, which is exactly what the parallel and streaming
// pipelines exploit: replaying flows in serial order against a fresh store
// reproduces serial template numbering bit for bit.
//
// The bucket walk is pruned: a precomputed element sum per template
// lower-bounds the L1 distance, rejecting candidates in O(1) before an
// early-exit distance computation sees the rest. The bound never exceeds the
// true distance and candidates are still visited in insertion order, so the
// pruned walk returns exactly the naive scan's first fit — the property tests
// pin it against an independent naive reference.
//
// EnableMemo adds an exact-vector cache in front of the pruned bucket scan.
// Because buckets are append-only and the limit function is fixed, the
// first-fit answer for a given vector never changes once computed, so the
// memo is exact, not heuristic. Traffic repeats a small set of flow shapes
// constantly; the shard workers and the merge replay both lean on the
// resulting hit rate. Its slots are 16 bytes with no pointer: a key is a
// template, by index, or a matched vector copied into one byte arena the
// memo owns, so a hit allocates nothing and a new key at most grows the
// arena.
//
// Every array the store and its memo keep grows by doubling, and templates
// are carved from slabs, so a store that founds a template per flow
// allocates at most twice what it ends up holding.
//
// # Flow diversity
//
// Diversity clusters a set of same-length vectors with the store's own
// threshold method and reports how concentrated the clusters are, the
// Section 2.1 observation that a few clusters hold almost every Web flow.
package cluster
