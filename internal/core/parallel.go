package core

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/pkt"
)

// The sharded parallel pipeline splits compression into three phases:
//
//  1. Partition: every packet is assigned a shard by the FNV hash of its
//     canonical 5-tuple (flow.ShardOf), so both directions of a
//     conversation land in the same shard and shards are independent.
//  2. Shard compression: one worker per shard assembles flows with a private
//     flow.Table and captures each finalized flow as a shardFlow — vector,
//     timing and the global index of the packet that closed it — so the
//     merge never has to touch packets again. Workers match nothing.
//  3. Merge: shard results are interleaved back into the exact order the
//     serial compressor would have finalized them (closing-packet order,
//     then flush order) and fed, in that order, to the recorder the serial
//     compressor records with.
//
// Because the merge makes the serial compressor's sequence of record calls,
// the resulting Archive is byte-for-byte identical to the serial Compress
// output — same template numbering, same address numbering, same Ratio.

// defaultWorkers is the worker count a Pipeline configured with Workers 0
// runs: one per usable CPU, capped at flow.MaxShards — the bound that keeps a
// shard id within a byte, which a large host's GOMAXPROCS can exceed.
func defaultWorkers() int { return min(runtime.GOMAXPROCS(0), flow.MaxShards) }

// flushMark orders flows finalized by the end-of-trace flush after every
// flow closed by a FIN/RST pair, mirroring the serial compressor.
const flushMark = int64(math.MaxInt64)

// shardFlow is one finalized flow as captured by a shard worker: everything
// the merge needs to record it.
type shardFlow struct {
	CloseIdx int64 // global index of the closing packet; flushMark when flushed
	FirstTS  time.Duration
	Hash     uint64
	Server   pkt.IPv4
	Long     bool
	RTT      time.Duration // short flows
	F        flow.Vector   // short flows: a slice of the shard's arena; long: the flow's own copy
	Gaps     []byte        // long flows: packed, in F's allocation (newLongTemplate)
}

// A shard carves short vectors from chunks that are never moved or regrown:
// the first holds 4 KiB, each later one twice the last, up to arenaChunk, so
// a shard with few flows does not hold a full chunk. A vector longer than a
// chunk gets a chunk of its own size.
const arenaChunk = 64 << 10

// shardCompressor runs one shard of the pipeline: it assembles flows with a
// private flow.Table and captures every finalized flow as a shardFlow, its
// short vector copied into the shard's arena. Both the in-memory path
// (Pipeline.CompressTrace) and the streaming workers (Pipeline.Compress)
// drive it, so the two finalize flows identically.
type shardCompressor struct {
	flows []shardFlow
	table *flow.Table
	cur   int64  // global index of the packet being added
	arena []byte // the chunk short vectors are carved from
	buf   []byte // where a long flow is characterized before its copy (characterizeLong)
}

func newShardCompressor(opts Options) *shardCompressor {
	c := &shardCompressor{}
	c.table = flow.AcquireTable(func(f *flow.Flow) {
		sf := shardFlow{
			CloseIdx: c.cur,
			FirstTS:  f.FirstTimestamp(),
			Hash:     f.Key.Hash(),
			Server:   f.ServerIP(),
		}
		if n := f.Len(); n <= opts.ShortMax {
			if n > cap(c.arena)-len(c.arena) {
				c.arena = make([]byte, 0, max(min(2*cap(c.arena), arenaChunk), 4<<10, n))
			}
			off := len(c.arena)
			c.arena = f.AppendVector(c.arena, opts.Weights)
			sf.F = c.arena[off:len(c.arena):len(c.arena)]
			sf.RTT = f.EstimateRTT()
		} else {
			t := characterizeLong(f, opts.Weights, &c.buf)
			sf.Long, sf.F, sf.Gaps = true, t.F, t.Gaps
		}
		c.flows = append(c.flows, sf)
		c.table.Recycle(f)
	})
	return c
}

// add feeds one packet, recording its global (timestamp-order) index so a
// flow closed by this packet replays in the serial finalize position.
func (c *shardCompressor) add(globalIdx int64, p *pkt.Packet) {
	c.cur = globalIdx
	c.table.Add(p)
}

// finish flushes still-open flows (marked with flushMark, after every closed
// flow) and returns the shard's flows.
func (c *shardCompressor) finish() []shardFlow {
	c.cur = flushMark
	// One shardFlow per open flow follows: reserve them once.
	c.flows = slices.Grow(c.flows, c.table.ActiveCount())
	c.table.Flush()
	// All emitted flows were recycled (F and Gaps are copies), so the table
	// holds nothing the flows reference and can go back to the pool.
	c.table.Release()
	c.table = nil
	return c.flows
}

// mergeShards interleaves shard results into serial finalize order and
// records them in that order, as the serial compressor records its flows,
// beginning the flush at the first flow the shards' flushes emitted.
// Pipeline.Compress and CompressTrace both merge here. m, when non-nil,
// observes the recorder's store and counts its Match calls.
func mergeShards(packets int64, opts Options, shards [][]shardFlow, m *PipelineMetrics) *Archive {
	total := 0
	for _, s := range shards {
		total += len(s)
	}
	merged := make([]*shardFlow, 0, total)
	for _, s := range shards {
		for i := range s {
			merged = append(merged, &s[i])
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

	r := newRecorder(opts)
	r.store.Observe(m.storeObserver())
	// merged puts every flush-emitted flow (CloseIdx == flushMark) after every
	// closed one, ordered by (FirstTS, Hash) — the sequence timeSeqBuilder
	// takes, exactly like compressor.finish.
	for i, sf := range merged {
		if sf.CloseIdx == flushMark && (i == 0 || merged[i-1].CloseIdx != flushMark) {
			r.timeSeq.beginFlush(total - i)
		}
		if sf.Long {
			r.addLong(sf.FirstTS, sf.Server, LongTemplate{F: sf.F, Gaps: sf.Gaps})
		} else {
			r.addShort(sf.FirstTS, sf.Server, sf.F, sf.RTT)
		}
	}
	if m != nil {
		// One Match per short flow of the replay.
		st := r.store.Stats()
		m.MergeMatchCalls.Add(st.Matched + st.Created)
	}
	return r.archive(packets)
}
