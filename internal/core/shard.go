package core

import (
	"cmp"
	"fmt"
	"slices"

	"flowzip/internal/cluster"
	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/tsh"
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
	// creation order; short ShardFlows without the Shared flag index into
	// it. With a shared store attached this is overflow-only state: vectors
	// the snapshot could not resolve when the shard saw them.
	Templates []flow.Vector
	// SharedGen identifies the cluster.SharedStore the shard consulted
	// (zero when it ran without one). Flows with the Shared flag carry
	// global ids from that store's id space, so a merge must be handed the
	// same store instance; the generation stamp turns a mismatch into an
	// error instead of silently resolving ids against foreign vectors.
	SharedGen uint64
}

// CompressShardSource compresses partition index of count over the full
// packet stream src: every packet is scanned (to assign global timestamp
// order indices and verify sortedness), but only packets whose 5-tuple
// hashes into the shard are compressed. Merging the results of all count
// partitions with MergeShardResults yields the archive serial Compress
// would produce.
func CompressShardSource(src PacketSource, opts Options, index, count int) (*ShardResult, error) {
	return CompressShardSourceShared(src, opts, index, count, nil)
}

// CompressShardSourceShared is CompressShardSource with a run-global
// template store attached: short-flow vectors the store's snapshot resolves
// are recorded as global ids instead of entering the shard's private
// template table, so the result ships overflow-only state. Every shard of a
// run must consult the same store instance, and the merge must be handed it
// (MergeShardResultsShared) — the result's SharedGen stamp enforces that.
// The store only lives in one process, so this variant serves in-process
// distributed runs (dist.CompressDistributed); cross-machine workers use
// the plain entry point.
func CompressShardSourceShared(src PacketSource, opts Options, index, count int, shared *cluster.SharedStore) (*ShardResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if count < 1 || count > flow.MaxShards {
		return nil, fmt.Errorf("core: shard count %d outside [1,%d]", count, flow.MaxShards)
	}
	if index < 0 || index >= count {
		return nil, fmt.Errorf("core: shard index %d outside [0,%d)", index, count)
	}
	sc := newShardCompressor(opts, uint16(index), shared)
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
	r := &ShardResult{
		Index:     index,
		Count:     count,
		Packets:   packets,
		Opts:      opts,
		Flows:     st.flows,
		Templates: storeVectors(st.store),
	}
	if shared != nil {
		r.SharedGen = shared.Gen()
	}
	return r, nil
}

// MergeShardResults validates that results form one complete, consistent
// partition set and replays the deterministic merge over them. Order of the
// slice does not matter; each result's Index does. The archive is
// byte-for-byte identical to serial Compress over the same stream. Results
// that reference a shared template store must go through
// MergeShardResultsShared instead.
func MergeShardResults(results []*ShardResult) (*Archive, error) {
	return MergeShardResultsShared(results, nil)
}

// MergeShardResultsShared merges results whose shards consulted shared, the
// run-global template store the Shared-flagged flows' global ids resolve
// against. A nil store merges plain results exactly like MergeShardResults;
// results stamped with a different store generation, or shared references
// with no store at all, are rejected.
func MergeShardResultsShared(results []*ShardResult, shared *cluster.SharedStore) (*Archive, error) {
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
	// The store only grows, so its length taken once bounds every id a
	// shard can legitimately reference (and taking it once keeps the store
	// mutex out of the per-flow validation loop).
	sharedLen := 0
	if shared != nil {
		sharedLen = shared.Len()
	}
	for i, r := range byIndex {
		if r.SharedGen != 0 {
			if shared == nil {
				return nil, fmt.Errorf("core: shard %d was compressed against shared store %016x but the merge has none",
					i, r.SharedGen)
			}
			if r.SharedGen != shared.Gen() {
				return nil, fmt.Errorf("core: shard %d was compressed against shared store %016x, the merge store is %016x",
					i, r.SharedGen, shared.Gen())
			}
		}
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
			switch {
			case f.Long:
			case f.Shared:
				if r.SharedGen == 0 {
					return nil, fmt.Errorf("core: shard %d flow %d references a shared template but the shard carries no store generation",
						i, j)
				}
				if f.Template < 0 || int(f.Template) >= sharedLen {
					return nil, fmt.Errorf("core: shard %d flow %d references shared template %d of %d",
						i, j, f.Template, sharedLen)
				}
			default:
				if f.Template < 0 || int(f.Template) >= len(r.Templates) {
					return nil, fmt.Errorf("core: shard %d flow %d references template %d of %d",
						i, j, f.Template, len(r.Templates))
				}
			}
		}
		flows[i] = r.Flows
		tpls[i] = r.Templates
	}
	return replayMerge(packets, opts, flows, tpls, shared, nil, nil)
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
// indices. flows[s] and tpls[s] are shard s's finalized flows and
// exact-duplicate template vectors; each ShardFlow's Shard field must index
// tpls. This single implementation backs the in-process merge (Pipeline) and
// the distributed one (MergeShardResults).
//
// Flows carrying a shared-store global id resolve through shared: the first
// occurrence of each id in replay order pays the one first-fit Match serial
// Compress would make there, and every later occurrence reuses that answer
// (sound because the store's buckets are append-only, so the first-fit
// result for a fixed vector never changes — the Store.EnableMemo argument).
// Overflow flows replay exactly as before. Template creation therefore
// happens at identical points with identical vectors, and the archive stays
// byte-for-byte identical to serial Compress; only the Match-call count
// drops, which stats reports.
func replayMerge(packets int64, opts Options, flows [][]ShardFlow, tpls [][]flow.Vector, shared *cluster.SharedStore, stats *ParallelStats, so *cluster.StoreObserver) (*Archive, error) {
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
	var resolved []*cluster.Template // shared global id -> merge-store template
	if shared != nil {
		resolved = make([]*cluster.Template, shared.Len())
	}
	var addrs addrTab
	var long []LongTemplate
	var sharedFlows, overflowFlows int64
	// merged puts every flush-emitted flow (CloseIdx == flushMark) after every
	// closed one, ordered by (FirstTS, Hash) — the sequence timeSeqBuilder
	// takes, exactly like Compressor.Finish.
	var recs timeSeqBuilder
	for i, sf := range merged {
		if sf.CloseIdx == flushMark && (i == 0 || merged[i-1].CloseIdx != flushMark) {
			recs.beginFlush(total - i)
		}
		rec := TimeSeqRecord{FirstTS: sf.FirstTS, Addr: addrs.index(sf.Server)}
		switch {
		case sf.Long:
			rec.Long = true
			rec.Template = uint32(len(long))
			long = append(long, LongTemplate{F: sf.LongF, Gaps: sf.Gaps})
		case sf.Shared:
			// A nil shared store leaves resolved empty, so dangling
			// references fail here rather than panicking.
			if int(sf.Template) >= len(resolved) || sf.Template < 0 {
				return nil, fmt.Errorf("core: merge flow references shared template %d of %d",
					sf.Template, len(resolved))
			}
			t := resolved[sf.Template]
			if t == nil {
				v, ok := shared.Vector(sf.Template)
				if !ok {
					return nil, fmt.Errorf("core: shared template %d is not registered", sf.Template)
				}
				// The shared store fixed the vector's prune keys at Propose
				// time, so the one Match this id ever pays skips recomputing
				// them.
				vsum, vsig, _ := shared.Keys(sf.Template)
				t, _ = store.MatchPrecomputed(v, vsum, vsig)
				resolved[sf.Template] = t
			} else {
				t.Members++ // keep Members equal to the serial replay's
			}
			rec.Template = uint32(t.ID)
			rec.RTT = sf.RTT
			sharedFlows++
		default:
			t, _ := store.Match(tpls[sf.Shard][sf.Template])
			rec.Template = uint32(t.ID)
			rec.RTT = sf.RTT
			overflowFlows++
		}
		recs.add(rec)
	}

	shorts := make([]flow.Vector, store.Len())
	for i, t := range store.Templates() {
		shorts[i] = t.Vector
	}
	if stats != nil {
		st := store.Stats()
		stats.MergeMatchCalls = st.Matched + st.Created
		stats.SharedFlows = sharedFlows
		stats.OverflowFlows = overflowFlows
		if shared != nil {
			ss := shared.Stats()
			stats.SharedTemplates = ss.Templates
			stats.SharedEpochs = ss.Epochs
		}
	}

	return &Archive{
		ShortTemplates: shorts,
		LongTemplates:  long,
		Addresses:      addrs.addresses(),
		TimeSeq:        recs.finish(),
		Opts:           opts,
		SourcePackets:  packets,
		SourceTSHBytes: tsh.Size(int(packets)),
	}, nil
}
