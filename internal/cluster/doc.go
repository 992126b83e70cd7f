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
// constantly; the compressor, serial and merging alike, leans on the
// resulting hit rate. It holds only vectors that matched a template (a repeat
// of a template's own vector first-fits it after one walk), each copied into
// one byte arena the memo owns, behind a 16-byte slot with no pointer: a hit
// is one hash and one compare and allocates nothing, and a store whose
// shapes never repeat keeps an empty memo.
//
// A bucket is a list of pages, each written once at its capacity: 4 slots
// at first, then as many as the bucket already holds, up to 256. Templates
// live in a directory of fixed 256-Template pages. Nothing the store writes
// is moved or copied again, so a template's Vector aliases its slot for the
// store's life; only the memo's arrays grow, by doubling.
//
// # Flow diversity
//
// Diversity clusters a set of same-length vectors with the store's own
// threshold method and reports how concentrated the clusters are, the
// Section 2.1 observation that a few clusters hold almost every Web flow.
package cluster
