package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"flowzip/internal/cluster"
	"flowzip/internal/flow"
	"flowzip/internal/pkt"
)

// The sharded parallel pipeline splits compression into three phases:
//
//  1. Partition: every packet is assigned a shard by the FNV hash of its
//     canonical 5-tuple (flow.Partition), so both directions of a
//     conversation land in the same shard and shards are independent.
//  2. Shard compression: one worker per shard assembles flows with a private
//     flow.Table and deduplicates short-flow vectors in a private
//     exact-match cluster.Store. Each finalized flow is captured as a
//     shardFlow — vector, timing and the global index of the packet that
//     closed it — so the merge never has to touch packets again. With
//     SharedTemplates on, workers first consult a run-global
//     cluster.SharedStore snapshot and only fall back to the private store
//     (the overflow store) for vectors the snapshot cannot resolve.
//  3. Merge: shard results are interleaved back into the exact order the
//     serial compressor would have finalized them (closing-packet order,
//     then flush order), shard-local templates are re-clustered into one
//     global store, and template/address indices are renumbered as the
//     replay proceeds. The time-seq dataset is ordered by the same
//     timeSeqBuilder as in Compressor.Finish.
//
// Because the merge replays finalization in serial order against a store
// with serial first-fit semantics (see Store.EnableMemo), the resulting
// Archive is byte-for-byte identical to the serial Compress output — same
// template numbering, same address numbering, same Ratio.

// DefaultWorkers is the worker count a Pipeline configured with Workers 0
// runs: one per usable CPU, capped at flow.MaxShards — the partition bound,
// which a large host's GOMAXPROCS can exceed.
func DefaultWorkers() int { return min(runtime.GOMAXPROCS(0), flow.MaxShards) }

// flushMark orders flows finalized by the end-of-trace flush after every
// flow closed by a FIN/RST pair, mirroring the serial compressor.
const flushMark = int64(math.MaxInt64)

// maxParallelPackets bounds the in-memory parallel pipeline: packet indices
// are bucketed as int32, so a larger trace must go through the int64-indexed
// Pipeline.Compress instead of silently wrapping.
const maxParallelPackets = math.MaxInt32

// TooManyPacketsError reports a trace too large for CompressTrace's int32
// packet-index bucketing at two or more workers. Streams of any length are
// still compressible through Pipeline.Compress, which indexes packets with
// int64.
type TooManyPacketsError struct {
	Packets int64
}

func (e *TooManyPacketsError) Error() string {
	return fmt.Sprintf("core: trace has %d packets, beyond the %d-packet bound of the in-memory parallel pipeline (stream it through Pipeline.Compress)",
		e.Packets, int64(maxParallelPackets))
}

// checkParallelPackets rejects traces whose packet indices would overflow
// the int32 bucketing. It takes int64 so the bound itself is expressible on
// 32-bit platforms (where a larger in-memory trace cannot exist anyway).
func checkParallelPackets(n int64) error {
	if n > maxParallelPackets {
		return &TooManyPacketsError{Packets: n}
	}
	return nil
}

// ShardFlow is one finalized flow as captured by a shard worker: everything
// the merge needs to replay the serial finalize step. The fields are exported
// so the distributed pipeline (internal/dist) can serialize shard results and
// ship them between machines.
type ShardFlow struct {
	CloseIdx int64 // global index of the closing packet; flushMark when flushed
	FirstTS  time.Duration
	Hash     uint64
	Server   pkt.IPv4
	Long     bool
	Shared   bool // short flows: Template is a shared-store global id, not a shard-store id
	Shard    uint16
	Template int32           // short flows: shard-store template id, or shared global id when Shared
	RTT      time.Duration   // short flows
	LongF    flow.Vector     // long flows
	Gaps     []time.Duration // long flows
}

// shardState is the output of one shard worker.
type shardState struct {
	flows []ShardFlow
	store *cluster.Store // exact-duplicate short-vector store (the overflow store)
	// Snapshot traffic, counted here (single-threaded per worker) so the
	// SharedStore's lock-free read path carries no shared counters.
	sharedLookups int64
	sharedHits    int64
}

// exactLimit makes a cluster.Store group only identical vectors: the L1
// distance must be strictly below 1, i.e. zero. Shard stores use it so the
// lossy similarity decision is deferred to the deterministic merge.
func exactLimit(int) int { return 1 }

// shardCompressor runs one shard of the pipeline: it assembles flows with a
// private flow.Table, deduplicates short-flow vectors in a private
// exact-match store and captures every finalized flow as a shardFlow. Both
// the in-memory path (Pipeline.CompressTrace) and the streaming workers
// (Pipeline.Compress) drive it, so the two finalize flows identically.
//
// When shared is non-nil, every short-flow vector is first resolved against
// the shared snapshot (lock-free); only snapshot misses touch the private
// overflow store, and vectors new to the shard are proposed for future
// epochs so other shards start hitting them. A snapshot hit is an exact
// match, so the flow carries the same vector either way and the merge
// output is byte-identical — sharing only changes how much state ships and
// how much Match work the merge repeats.
type shardCompressor struct {
	st     *shardState
	table  *flow.Table
	shared *cluster.SharedStore
	cur    int64        // global index of the packet being added
	vbuf   flow.Vector  // reusable characterization scratch
	mb     matchBatcher // pending overflow vectors awaiting MatchBatch
}

func newShardCompressor(opts Options, sid uint16, shared *cluster.SharedStore) *shardCompressor {
	c := &shardCompressor{
		st:     &shardState{store: cluster.NewStoreLimit(exactLimit).EnableMemo()},
		shared: shared,
	}
	c.table = flow.AcquireTable(func(f *flow.Flow) {
		sf := ShardFlow{
			CloseIdx: c.cur,
			FirstTS:  f.FirstTimestamp(),
			Hash:     f.Key.Hash(),
			Server:   f.ServerIP(),
			Shard:    sid,
		}
		// The scratch vector is recycled per flow; every consumer below
		// (shared Lookup/Propose, the store's Match, the LongF copy) either
		// only reads it or interns its own copy.
		v := f.AppendVector(c.vbuf[:0], opts.Weights)
		c.vbuf = v
		if f.Len() <= opts.ShortMax {
			sf.RTT = f.EstimateRTT()
			if gid, ok := c.sharedLookup(v); ok {
				sf.Shared = true
				sf.Template = gid
			} else {
				// Snapshot miss: stage the vector for the next MatchBatch
				// against the private overflow store and backfill Template
				// when the batch resolves. Deferring the match (and the
				// Propose of created vectors) only shifts when work happens:
				// the overflow store is mutated exclusively by these matches
				// in finalize order, and shared-store publication timing
				// never affects archive bytes (see SharedStore).
				c.st.flows = append(c.st.flows, sf)
				c.mb.add(v, len(c.st.flows)-1)
				if c.mb.full() {
					c.flushMatches()
				}
				c.table.Recycle(f)
				return
			}
		} else {
			sf.Long = true
			sf.LongF = append(flow.Vector(nil), v...)
			sf.Gaps = f.InterPacketTimes()
		}
		c.st.flows = append(c.st.flows, sf)
		c.table.Recycle(f)
	})
	return c
}

// flushMatches resolves the staged overflow vectors against the private
// store, backfills their ShardFlow template ids and proposes freshly created
// vectors to the shared store.
func (c *shardCompressor) flushMatches() {
	c.mb.flush(c.st.store, func(idx int, t *cluster.Template, created bool) {
		c.st.flows[idx].Template = int32(t.ID)
		if created && c.shared != nil {
			c.shared.Propose(t.Vector)
		}
	})
}

// sharedLookup consults the shared snapshot, when one is attached, and
// keeps the worker-local hit statistics.
func (c *shardCompressor) sharedLookup(v flow.Vector) (int32, bool) {
	if c.shared == nil {
		return 0, false
	}
	gid, ok := c.shared.Lookup(v)
	c.st.sharedLookups++
	if ok {
		c.st.sharedHits++
	}
	return gid, ok
}

// add feeds one packet, recording its global (timestamp-order) index so a
// flow closed by this packet replays in the serial finalize position.
func (c *shardCompressor) add(globalIdx int64, p *pkt.Packet) {
	c.cur = globalIdx
	c.table.Add(p)
}

// finish flushes still-open flows (marked with flushMark, after every closed
// flow) and returns the shard result.
func (c *shardCompressor) finish() *shardState {
	c.cur = flushMark
	// One ShardFlow per open flow follows: reserve them once.
	c.st.flows = slices.Grow(c.st.flows, c.table.ActiveCount())
	c.table.Flush()
	c.flushMatches()
	// All emitted flows were recycled (LongF/Gaps are copies), so the table
	// holds nothing the shard state references and can go back to the pool.
	c.table.Release()
	c.table = nil
	return c.st
}

// ParallelStats reports what the sharded pipelines actually did — the
// observable difference SharedTemplates makes (the archive bytes never
// change).
type ParallelStats struct {
	Workers int // shard count after defaulting

	// MergeMatchCalls counts global-store Match invocations during the
	// merge replay: one per short flow without a shared store, one per
	// overflow flow plus one per distinct shared vector with it.
	MergeMatchCalls int64
	// SharedFlows and OverflowFlows split the short flows by how the shard
	// workers resolved them: against a published snapshot, or against the
	// shard's private overflow store. Without SharedTemplates every short
	// flow is an overflow flow.
	SharedFlows   int64
	OverflowFlows int64

	// Shared-store counters (zero without SharedTemplates).
	SharedLookups   int64 // snapshot consultations by shard workers
	SharedHits      int64 // lookups resolved by a published snapshot
	SharedTemplates int   // distinct vectors interned in the shared store
	SharedEpochs    int   // snapshots published during the run
}

// mergeShards interleaves shard results into serial finalize order and
// replays them against a global template store, renumbering template and
// address indices. It shares replayMerge with the distributed pipeline
// (MergeShardResults), so in-process and cross-machine merges cannot diverge.
func mergeShards(packets int, opts Options, shards []*shardState, shared *cluster.SharedStore, stats *ParallelStats, so *cluster.StoreObserver) (*Archive, error) {
	flows := make([][]ShardFlow, len(shards))
	tpls := make([][]flow.Vector, len(shards))
	for i, s := range shards {
		flows[i] = s.flows
		tpls[i] = storeVectors(s.store)
	}
	arch, err := replayMerge(int64(packets), opts, flows, tpls, shared, stats, so)
	if err == nil && stats != nil {
		for _, s := range shards {
			stats.SharedLookups += s.sharedLookups
			stats.SharedHits += s.sharedHits
		}
	}
	return arch, err
}
