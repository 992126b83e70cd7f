package core

import (
	"cmp"
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
//     closed it — so the merge never has to touch packets again.
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

// defaultWorkers is the worker count a Pipeline configured with Workers 0
// runs: one per usable CPU, capped at flow.MaxShards — the partition bound,
// which a large host's GOMAXPROCS can exceed.
func defaultWorkers() int { return min(runtime.GOMAXPROCS(0), flow.MaxShards) }

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

// shardFlow is one finalized flow as captured by a shard worker: everything
// the merge needs to replay the serial finalize step.
type shardFlow struct {
	CloseIdx int64 // global index of the closing packet; flushMark when flushed
	FirstTS  time.Duration
	Hash     uint64
	Server   pkt.IPv4
	Long     bool
	Shard    uint16
	Template int32           // short flows: shard-store template id
	RTT      time.Duration   // short flows
	LongF    flow.Vector     // long flows
	Gaps     []time.Duration // long flows
}

// shardState is the output of one shard worker.
type shardState struct {
	flows []shardFlow
	store *cluster.Store // exact-duplicate short-vector store
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
type shardCompressor struct {
	st    *shardState
	table *flow.Table
	cur   int64        // global index of the packet being added
	vbuf  flow.Vector  // reusable characterization scratch
	mb    matchBatcher // pending short-flow vectors awaiting MatchBatch
}

func newShardCompressor(opts Options, sid uint16) *shardCompressor {
	c := &shardCompressor{
		st: &shardState{store: cluster.NewStoreLimit(exactLimit).EnableMemo()},
	}
	c.table = flow.AcquireTable(func(f *flow.Flow) {
		sf := shardFlow{
			CloseIdx: c.cur,
			FirstTS:  f.FirstTimestamp(),
			Hash:     f.Key.Hash(),
			Server:   f.ServerIP(),
			Shard:    sid,
		}
		// The scratch vector is recycled per flow; both consumers below (the
		// match batcher, the LongF copy) intern their own copy.
		v := f.AppendVector(c.vbuf[:0], opts.Weights)
		c.vbuf = v
		if f.Len() <= opts.ShortMax {
			// Stage the vector for the next MatchBatch against the private
			// store and backfill Template when the batch resolves. Deferring
			// the match only shifts when work happens: the store is mutated
			// exclusively by these matches, in finalize order.
			sf.RTT = f.EstimateRTT()
			c.st.flows = append(c.st.flows, sf)
			c.mb.add(v, len(c.st.flows)-1)
			if c.mb.full() {
				c.flushMatches()
			}
			c.table.Recycle(f)
			return
		}
		sf.Long = true
		sf.LongF = append(flow.Vector(nil), v...)
		sf.Gaps = f.InterPacketTimes()
		c.st.flows = append(c.st.flows, sf)
		c.table.Recycle(f)
	})
	return c
}

// flushMatches resolves the staged vectors against the private store and
// backfills their shardFlow template ids.
func (c *shardCompressor) flushMatches() {
	c.mb.flush(c.st.store, func(idx int, t *cluster.Template) {
		c.st.flows[idx].Template = int32(t.ID)
	})
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
	// One shardFlow per open flow follows: reserve them once.
	c.st.flows = slices.Grow(c.st.flows, c.table.ActiveCount())
	c.table.Flush()
	c.flushMatches()
	// All emitted flows were recycled (LongF/Gaps are copies), so the table
	// holds nothing the shard state references and can go back to the pool.
	c.table.Release()
	c.table = nil
	return c.st
}

// mergeShards interleaves shard results into serial finalize order and
// replays them against a global template store, renumbering template and
// address indices as the serial Compressor numbers them, and ends where it
// does, in newArchive. Pipeline.Compress and CompressTrace both merge here.
// m, when non-nil, observes the merge store and counts its Match calls.
func mergeShards(packets int, opts Options, shards []*shardState, m *PipelineMetrics) *Archive {
	tpls := make([][]flow.Vector, len(shards))
	total := 0
	for i, s := range shards {
		tpls[i] = storeVectors(s.store)
		total += len(s.flows)
	}
	merged := make([]*shardFlow, 0, total)
	for _, s := range shards {
		for i := range s.flows {
			merged = append(merged, &s.flows[i])
		}
	}
	// Serial finalize order: flows close at their closing packet (unique
	// global index), then the flush emits the remainder by (first timestamp,
	// hash) — the same comparator as flow.Table.Flush.
	slices.SortFunc(merged, func(a, b *shardFlow) int {
		if c := cmp.Compare(a.CloseIdx, b.CloseIdx); c != 0 {
			return c
		}
		if c := cmp.Compare(a.FirstTS, b.FirstTS); c != 0 {
			return c
		}
		return cmp.Compare(a.Hash, b.Hash)
	})

	store := cluster.NewStoreLimit(opts.limit()).EnableMemo().Observe(m.storeObserver())
	var addrs addrTab
	var long []LongTemplate
	// merged puts every flush-emitted flow (CloseIdx == flushMark) after every
	// closed one, ordered by (FirstTS, Hash) — the sequence timeSeqBuilder
	// takes, exactly like Compressor.Finish.
	var recs timeSeqBuilder
	for i, sf := range merged {
		if sf.CloseIdx == flushMark && (i == 0 || merged[i-1].CloseIdx != flushMark) {
			recs.beginFlush(total - i)
		}
		rec := TimeSeqRecord{FirstTS: sf.FirstTS, Addr: addrs.index(sf.Server)}
		if sf.Long {
			rec.Long = true
			rec.Template = uint32(len(long))
			long = append(long, LongTemplate{F: sf.LongF, Gaps: sf.Gaps})
		} else {
			t, _ := store.Match(tpls[sf.Shard][sf.Template])
			rec.Template = uint32(t.ID)
			rec.RTT = sf.RTT
		}
		recs.add(rec)
	}

	if m != nil {
		// One Match per short flow of the replay.
		st := store.Stats()
		m.MergeMatchCalls.Add(st.Matched + st.Created)
	}
	return newArchive(opts, int64(packets), store, long, &addrs, &recs)
}

// storeVectors extracts a store's template vectors in creation order.
func storeVectors(s *cluster.Store) []flow.Vector {
	vs := make([]flow.Vector, s.Len())
	for i := range vs {
		vs[i] = s.Template(i).Vector
	}
	return vs
}
