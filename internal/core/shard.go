package core

import (
	"cmp"
	"fmt"
	"slices"

	"flowzip/internal/cluster"
	"flowzip/internal/flow"
	"flowzip/internal/pkt"
)

// This file is the exported shard seam of the parallel pipeline: the unit of
// work the distributed compressor (internal/dist) serializes, ships between
// machines and merges on a coordinator. CompressShardSource produces exactly
// the state a shardCompressor produces in-process, and MergeShardResults
// replays the same deterministic merge Pipeline.Compress and CompressTrace
// use, so an archive assembled from shard results — whether they crossed a
// channel, a file or a TCP connection — is byte-for-byte identical to the
// serial Compress output.

// ShardResult is one shard's compression output in exportable form.
type ShardResult struct {
	// Index is this shard's position in [0, Count); Count is the total
	// number of partitions the stream was split into.
	Index int
	Count int
	// Packets is the length of the full packet stream, not just this
	// shard's slice of it — every worker scans the whole stream to assign
	// global indices, so all shards of a run agree on it.
	Packets int64
	// Opts are the codec options the shard was compressed with. Shards
	// compressed under different options must never be merged.
	Opts Options
	// Flows are the shard's finalized flows in local finalize order.
	Flows []ShardFlow
	// Templates is the shard's exact-duplicate short-vector store in
	// creation order; short ShardFlows index into it.
	Templates []flow.Vector
}

// CompressShardSource compresses partition index of count over the full
// packet stream src: every packet is scanned (to assign global timestamp
// order indices and verify sortedness), but only packets whose 5-tuple
// hashes into the shard are compressed. Merging the results of all count
// partitions with MergeShardResults yields the archive serial Compress
// would produce.
func CompressShardSource(src PacketSource, opts Options, index, count int) (*ShardResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if count < 1 || count > flow.MaxShards {
		return nil, fmt.Errorf("core: shard count %d outside [1,%d]", count, flow.MaxShards)
	}
	if index < 0 || index >= count {
		return nil, fmt.Errorf("core: shard index %d outside [0,%d)", index, count)
	}
	sc := newShardCompressor(opts, uint16(index))
	packets, err := scan(src, func(base int64, batch []pkt.Packet) {
		for i := range batch {
			if flow.ShardOf(&batch[i], count) == index {
				sc.add(base+int64(i), &batch[i])
			}
		}
	})
	if err != nil {
		return nil, err
	}
	st := sc.finish()
	return &ShardResult{
		Index:     index,
		Count:     count,
		Packets:   packets,
		Opts:      opts,
		Flows:     st.flows,
		Templates: storeVectors(st.store),
	}, nil
}

// MergeShardResults validates that results form one complete, consistent
// partition set and replays the deterministic merge over them. Order of the
// slice does not matter; each result's Index does. The archive is
// byte-for-byte identical to serial Compress over the same stream.
func MergeShardResults(results []*ShardResult) (*Archive, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("core: merge of zero shard results")
	}
	count := results[0].Count
	packets := results[0].Packets
	opts := results[0].Opts
	if len(results) != count {
		return nil, fmt.Errorf("core: merge has %d shard results for a %d-shard run", len(results), count)
	}
	byIndex := make([]*ShardResult, count)
	for _, r := range results {
		if r.Count != count {
			return nil, fmt.Errorf("core: shard %d belongs to a %d-shard run, not %d", r.Index, r.Count, count)
		}
		if r.Index < 0 || r.Index >= count {
			return nil, fmt.Errorf("core: shard index %d outside [0,%d)", r.Index, count)
		}
		if byIndex[r.Index] != nil {
			return nil, fmt.Errorf("core: duplicate shard index %d", r.Index)
		}
		if r.Packets != packets {
			return nil, fmt.Errorf("core: shard %d scanned %d packets, shard %d scanned %d — different streams",
				r.Index, r.Packets, results[0].Index, packets)
		}
		// Compare the structs directly — Options is all scalars, and unlike
		// the wire header's compact fingerprint this cannot collide.
		if r.Opts != opts {
			return nil, fmt.Errorf("core: shard %d was compressed with different options (%+v) than shard %d (%+v)",
				r.Index, r.Opts, results[0].Index, opts)
		}
		byIndex[r.Index] = r
	}
	flows := make([][]ShardFlow, count)
	tpls := make([][]flow.Vector, count)
	for i, r := range byIndex {
		// The Shard stamp is positional and must already match the
		// result's Index — CompressShardSource and the wire decoder both
		// guarantee it. Validating (rather than silently re-stamping)
		// keeps the inputs immutable, so concurrent merges over shared
		// results are safe and hand-built inconsistencies surface.
		for j := range r.Flows {
			f := &r.Flows[j]
			if f.Shard != uint16(i) {
				return nil, fmt.Errorf("core: shard %d flow %d is stamped for shard %d",
					i, j, f.Shard)
			}
			if !f.Long && (f.Template < 0 || int(f.Template) >= len(r.Templates)) {
				return nil, fmt.Errorf("core: shard %d flow %d references template %d of %d",
					i, j, f.Template, len(r.Templates))
			}
		}
		flows[i] = r.Flows
		tpls[i] = r.Templates
	}
	return replayMerge(packets, opts, flows, tpls, nil, nil), nil
}

// storeVectors extracts a store's template vectors in creation order.
func storeVectors(s *cluster.Store) []flow.Vector {
	vs := make([]flow.Vector, s.Len())
	for i, t := range s.Templates() {
		vs[i] = t.Vector
	}
	return vs
}

// replayMerge interleaves shard flows into serial finalize order and replays
// them against a global template store, renumbering template and address
// indices as the serial Compressor numbers them, and ends where it does, in
// newArchive. flows[s] and tpls[s] are shard s's finalized flows and
// exact-duplicate template vectors; each ShardFlow's Shard field must index
// tpls. This single implementation backs the in-process merge (Pipeline) and
// the distributed one (MergeShardResults).
func replayMerge(packets int64, opts Options, flows [][]ShardFlow, tpls [][]flow.Vector, stats *ParallelStats, so *cluster.StoreObserver) *Archive {
	total := 0
	for _, fs := range flows {
		total += len(fs)
	}
	merged := make([]*ShardFlow, 0, total)
	for _, fs := range flows {
		for i := range fs {
			merged = append(merged, &fs[i])
		}
	}
	// Serial finalize order: flows close at their closing packet (unique
	// global index), then the flush emits the remainder by (first timestamp,
	// hash) — the same comparator as flow.Table.Flush.
	slices.SortFunc(merged, func(a, b *ShardFlow) int {
		if c := cmp.Compare(a.CloseIdx, b.CloseIdx); c != 0 {
			return c
		}
		if c := cmp.Compare(a.FirstTS, b.FirstTS); c != 0 {
			return c
		}
		return cmp.Compare(a.Hash, b.Hash)
	})

	store := cluster.NewStoreLimit(opts.limit()).EnableMemo().Observe(so)
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

	if stats != nil {
		st := store.Stats()
		stats.MergeMatchCalls = st.Matched + st.Created
	}
	return newArchive(opts, packets, store, long, &addrs, &recs)
}
