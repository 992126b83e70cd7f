// Package flow implements the paper's Section 2: assembling packets into
// bidirectional TCP flows and mapping each packet to the characterization
// integer f(p) = w1·P1 + w2·P2 + w3·P3, producing per-flow F vectors.
//
// The three per-packet parameters are:
//
//	P1 — TCP flag class: SYN, SYN+ACK, ACK (data or pure ack), FIN/RST.
//	P2 — acknowledgment dependence: whether the packet was sent in response
//	     to a packet from the opposite endpoint.
//	P3 — payload-size class: empty, small (<=500 B), large (>500 B).
//
// With the paper's weights (16, 4, 1) similar flows land on nearby integer
// vectors, which is what makes clustering effective.
//
// # Flow assembly
//
// Table routes packets into flows keyed by the canonical 5-tuple (both
// directions of a conversation share one key) and finalizes a flow on RST,
// on the second FIN, or at the end-of-trace Flush. Flush order is
// deterministic — first-packet timestamp, then key hash — which every
// pipeline relies on for reproducible archives. A flow keeps one packed word
// per packet (PacketInfo: classes, direction, gap to the previous packet).
// Open flows are index-addressed: they live in 256-flow slabs that never
// move, and the hash table over them is an array of pointer-free 8-byte
// words, a 32-bit hash tag and a flow index each. They are also on the
// paper's list of flow nodes, linked through two indices on the flow in the
// order they opened — first-timestamp order, since packets arrive sorted —
// so Flush is a walk of that list that sorts only the flows sharing a first
// timestamp, and recycled flows wait on a free list through the same link.
//
// # Partitioning
//
// Partition assigns packets to shards by the FNV hash of the canonical
// 5-tuple (ShardOf, one packet at a time), the seam beneath every
// core.Pipeline run of two or more workers: a flow's packets all land in one
// shard, so shards can be assembled by independent Tables and merged
// afterwards. MaxShards bounds the fan-out so
// a shard id always fits in a byte.
//
// # Distances
//
// Vector carries the per-flow F values; Distance is the L1 metric and
// DistanceLimit / DistanceLimitPct the d_lim(n) thresholds of equation 4,
// shared by the compressor's template store and the clustering studies.
package flow
