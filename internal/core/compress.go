package core

import (
	"cmp"
	"fmt"
	"slices"

	"flowzip/internal/cluster"
	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/trace"
	"flowzip/internal/tsh"
)

// Compressor consumes packets in timestamp order and produces an Archive.
// It implements the paper's Section 3 pipeline: the flow table keyed by the
// 5-tuple hash, template matching for short flows on FIN/RST, unconditional
// template creation for long flows.
type Compressor struct {
	opts    Options
	table   *flow.Table
	store   *cluster.Store
	long    []LongTemplate
	addrs   addrTab
	timeSeq []TimeSeqRecord
	stats   CompressStats
	packets int64
	vbuf    flow.Vector  // reusable characterization scratch (finalizeFlow)
	mb      matchBatcher // pending short-flow vectors awaiting MatchBatch
}

// matchBatchSize is how many short-flow vectors a pipeline accumulates
// before resolving them in one Store.MatchBatch call. The value only trades
// latency-to-resolution against per-call amortization; results are
// independent of it (MatchBatch is defined as the equivalent sequence of
// Match calls).
const matchBatchSize = 64

// matchBatcher defers short-flow template matching so vectors resolve in
// batches through Store.MatchBatch instead of one call per finalized flow.
// Pending vectors are copied back to back into an owned arena — the
// finalize scratch they arrive in is recycled per flow — together with the
// caller's record index to backfill once the batch resolves. Deferral is
// invisible in the output: the store is only ever mutated by these Match
// calls, flushing preserves their order, and record indices are stable
// (records append before their match resolves).
type matchBatcher struct {
	arena   []byte // pending vector bytes, back to back
	ends    []int  // end offset of each pending vector in arena
	idxs    []int  // caller record index per pending vector
	vs      []flow.Vector
	tpls    []*cluster.Template
	created []bool
}

// add stages one vector (copied) tagged with the caller's record index.
func (b *matchBatcher) add(v flow.Vector, idx int) {
	b.arena = append(b.arena, v...)
	b.ends = append(b.ends, len(b.arena))
	b.idxs = append(b.idxs, idx)
}

// full reports whether the batch reached matchBatchSize.
func (b *matchBatcher) full() bool { return len(b.idxs) >= matchBatchSize }

// flush resolves every pending vector through one MatchBatch call and hands
// each result, in staging order, to emit along with its record index.
func (b *matchBatcher) flush(s *cluster.Store, emit func(idx int, t *cluster.Template, created bool)) {
	n := len(b.idxs)
	if n == 0 {
		return
	}
	b.vs = b.vs[:0]
	start := 0
	for _, end := range b.ends {
		b.vs = append(b.vs, flow.Vector(b.arena[start:end]))
		start = end
	}
	if cap(b.tpls) < n {
		b.tpls = make([]*cluster.Template, n)
		b.created = make([]bool, n)
	}
	tpls, created := b.tpls[:n], b.created[:n]
	s.MatchBatch(b.vs, tpls, created)
	for i := 0; i < n; i++ {
		emit(b.idxs[i], tpls[i], created[i])
	}
	b.arena = b.arena[:0]
	b.ends = b.ends[:0]
	b.idxs = b.idxs[:0]
}

// CompressStats counts compressor activity for reporting.
type CompressStats struct {
	Packets        int64
	Flows          int64
	ShortFlows     int64
	LongFlows      int64
	ShortTemplates int64 // clusters created
	ShortMatched   int64 // flows that reused a cluster
	Addresses      int64
}

// NewCompressor validates opts and returns a streaming compressor.
func NewCompressor(opts Options) (*Compressor, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	// The memo is semantically transparent (property-tested against the
	// plain store), so the serial pipeline — the byte-identity baseline of
	// every other mode — gets the exact-duplicate fast path too.
	c := &Compressor{
		opts:  opts,
		store: cluster.NewStoreLimit(opts.limit()).EnableMemo(),
	}
	c.table = flow.AcquireTable(c.finalizeFlow)
	return c, nil
}

// Add feeds one packet. Packets must arrive in timestamp order.
func (c *Compressor) Add(p *pkt.Packet) {
	c.packets++
	c.table.Add(p)
}

// finalizeFlow converts a finished flow into dataset entries. The flow and
// the scratch characterization vector are both recycled on return, so the
// steady-state finalize path allocates only what the archive retains
// (long-flow copies, new templates, time-seq growth).
func (c *Compressor) finalizeFlow(f *flow.Flow) {
	v := f.AppendVector(c.vbuf[:0], c.opts.Weights)
	c.vbuf = v
	c.stats.Flows++

	rec := TimeSeqRecord{
		FirstTS: f.FirstTimestamp(),
		Addr:    c.addrs.index(f.ServerIP()),
	}
	if f.Len() <= c.opts.ShortMax {
		// Short flow: search for an identical-or-similar template. The
		// search is deferred — the vector is staged for the next MatchBatch
		// and the record's Template backfilled when it resolves — which
		// changes nothing but the call timing: the store is only mutated by
		// these matches, and the batch replays them in finalize order.
		rec.RTT = f.EstimateRTT()
		c.stats.ShortFlows++
		c.timeSeq = append(c.timeSeq, rec)
		c.mb.add(v, len(c.timeSeq)-1)
		if c.mb.full() {
			c.flushMatches()
		}
		c.table.Recycle(f)
		return
	}
	// Long flow: always a fresh template with measured gaps.
	rec.Long = true
	rec.Template = uint32(len(c.long))
	c.long = append(c.long, LongTemplate{
		F:    append(flow.Vector(nil), v...),
		Gaps: f.InterPacketTimes(),
	})
	c.stats.LongFlows++
	c.timeSeq = append(c.timeSeq, rec)
	c.table.Recycle(f)
}

// flushMatches resolves the staged short-flow vectors and backfills their
// time-seq records and the short-flow counters.
func (c *Compressor) flushMatches() {
	c.mb.flush(c.store, func(idx int, t *cluster.Template, created bool) {
		c.timeSeq[idx].Template = uint32(t.ID)
		if created {
			c.stats.ShortTemplates++
		} else {
			c.stats.ShortMatched++
		}
	})
}

// addrTab interns server addresses to dense indices in first-seen order: a
// flat open-addressed table over packed (ip, index) words. One probe per
// finalized flow made the generic map the costlier choice. Slot encoding is
// ip<<32 | index+1, so the zero word doubles as the empty marker even for
// address 0.0.0.0. The words are the only copy of the addresses — the list an
// archive carries is read back off them once, at the end of the run. The zero
// value is ready to use.
type addrTab struct {
	slots []uint64
	mask  uint64
	n     int
}

// index returns ip's index, numbering an address not seen before with the
// count of those that were.
func (t *addrTab) index(ip pkt.IPv4) uint32 {
	if t.slots == nil {
		t.grow()
	}
	h := addrHash(ip)
	i := h & t.mask
	for ; t.slots[i] != 0; i = (i + 1) & t.mask {
		if s := t.slots[i]; uint32(s>>32) == uint32(ip) {
			return uint32(s) - 1
		}
	}
	if uint64(t.n+1)*8 > (t.mask+1)*7 {
		t.grow()
		i = h & t.mask
		for t.slots[i] != 0 {
			i = (i + 1) & t.mask
		}
	}
	idx := uint32(t.n)
	t.slots[i] = uint64(ip)<<32 | uint64(idx) + 1
	t.n++
	return idx
}

// addresses lists the interned addresses in index order — Archive.Addresses —
// in one allocation of exactly their number.
func (t *addrTab) addresses() []pkt.IPv4 {
	out := make([]pkt.IPv4, t.n)
	for _, s := range t.slots {
		if s != 0 {
			out[uint32(s)-1] = pkt.IPv4(s >> 32)
		}
	}
	return out
}

func (t *addrTab) grow() {
	old := t.slots
	size := uint64(256)
	if t.slots != nil {
		size = (t.mask + 1) * 2
	}
	t.slots = make([]uint64, size)
	t.mask = size - 1
	for _, s := range old {
		if s == 0 {
			continue
		}
		j := addrHash(pkt.IPv4(s>>32)) & t.mask
		for t.slots[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.slots[j] = s
	}
}

// addrHash spreads an IPv4 address over the table (splitmix64 finalizer).
func addrHash(ip pkt.IPv4) uint64 {
	x := uint64(ip)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Finish flushes open flows and assembles the archive. The compressor must
// not be used afterwards.
func (c *Compressor) Finish() *Archive {
	closed := len(c.timeSeq) // records from here on are flush-emitted
	// The flush appends one record per open flow — on most traces the bulk of
	// the dataset — so reserve them once instead of doubling through it.
	c.timeSeq = slices.Grow(c.timeSeq, c.table.ActiveCount())
	c.table.Flush()
	c.flushMatches()
	// Every finalized flow was recycled (finalizeFlow unconditionally hands
	// the flow back), so nothing the archive holds aliases table storage and
	// the table can recirculate to the next compressor.
	c.table.Release()
	c.table = nil
	c.stats.Packets = c.packets

	// The short-template store returns templates in creation order, so the
	// time-seq template indices are already correct.
	shorts := make([]flow.Vector, c.store.Len())
	for i, t := range c.store.Templates() {
		shorts[i] = t.Vector
	}
	recs := mergeTimeSeq(c.timeSeq, closed)

	return &Archive{
		ShortTemplates: shorts,
		LongTemplates:  c.long,
		Addresses:      c.addrs.addresses(),
		TimeSeq:        recs,
		Opts:           c.opts,
		SourcePackets:  c.packets,
		SourceTSHBytes: tsh.Size(int(c.packets)),
	}
}

// mergeTimeSeq produces the FirstTS-sorted time-seq dataset exactly as a
// stable sort of the whole slice would, exploiting that recs[closed:] — the
// records emitted by the end-of-trace flush — is already sorted: the flush
// finalizes flows by (first timestamp, hash), so the suffix is FirstTS-sorted
// with equal keys in their original relative order. Only the prefix of
// FIN/RST-closed flows pays for a sort; the stable two-way merge with
// prefix-wins-ties then reproduces the whole-slice stable sort exactly
// (every prefix record precedes every suffix record in the original order).
// Traces leave most flows open, so this removes the bulk of the final sort.
func mergeTimeSeq(recs []TimeSeqRecord, closed int) []TimeSeqRecord {
	sortTimeSeqPrefix(recs[:closed])
	if closed == 0 || closed == len(recs) {
		return recs
	}
	// Merge in place: only the (small) prefix moves to scratch; the write
	// position k never catches up with the unread suffix position j, since
	// k = i + (j - closed) < j exactly while prefix records remain.
	prefix := append(make([]TimeSeqRecord, 0, closed), recs[:closed]...)
	i, j, k := 0, closed, 0
	for i < closed && j < len(recs) {
		if prefix[i].FirstTS <= recs[j].FirstTS {
			recs[k] = prefix[i]
			i++
		} else {
			recs[k] = recs[j]
			j++
		}
		k++
	}
	copy(recs[k:], prefix[i:])
	copy(recs[k+(closed-i):], recs[j:])
	return recs
}

// sortTimeSeqPrefix stably sorts records by FirstTS. Small slices use the
// stdlib stable sort; larger ones hoist (sortable key, original index) pairs
// and LSD-radix them — counting passes are stable, so equal timestamps keep
// their original relative order, exactly as SortStableFunc leaves them — then
// apply the permutation with cycle-following. A comparison sort here moves
// 32-byte records O(n log n) times; the radix moves 16-byte pairs in eight
// (usually fewer — constant bytes skip) linear passes and each record once.
func sortTimeSeqPrefix(recs []TimeSeqRecord) {
	if len(recs) < 128 {
		slices.SortStableFunc(recs, func(a, b TimeSeqRecord) int { return cmp.Compare(a.FirstTS, b.FirstTS) })
		return
	}
	type pair struct {
		key uint64 // FirstTS, sign-flipped so unsigned byte order matches int64 order
		idx int32
	}
	src := make([]pair, len(recs))
	for i := range recs {
		src[i] = pair{uint64(recs[i].FirstTS) ^ (1 << 63), int32(i)}
	}
	dst := make([]pair, len(recs))
	for shift := 0; shift < 64; shift += 8 {
		var cnt [257]int
		for i := range src {
			cnt[int(byte(src[i].key>>shift))+1]++
		}
		if cnt[int(byte(src[0].key>>shift))+1] == len(src) {
			continue // every key shares this byte: the pass is the identity
		}
		for i := 1; i < 256; i++ {
			cnt[i] += cnt[i-1]
		}
		for i := range src {
			b := src[i].key >> shift & 0xff
			dst[cnt[b]] = src[i]
			cnt[b]++
		}
		src, dst = dst, src
	}
	// src[pos].idx is the original position of the record ranked pos; apply
	// in place by following cycles, marking applied slots with idx -1.
	for i := range src {
		if src[i].idx < 0 {
			continue
		}
		tmp, j := recs[i], i
		for {
			k := int(src[j].idx)
			src[j].idx = -1
			if k == i {
				recs[j] = tmp
				break
			}
			recs[j] = recs[k]
			j = k
		}
	}
}

// Stats returns the counters accumulated so far, resolving any still-staged
// short-flow matches first so the template counters are exact.
func (c *Compressor) Stats() CompressStats {
	c.flushMatches()
	c.stats.Addresses = int64(c.addrs.n)
	return c.stats
}

// abandon gives up on a run that failed mid-stream: the table goes back to
// the pool, which takes its open flows back unemitted. The compressor must
// not be used afterwards.
func (c *Compressor) abandon() {
	c.table.Release()
	c.table = nil
}

// Compress runs the serial Compressor over a trace — the reference every
// other worker count and input shape reproduces byte for byte. It is
// Pipeline.Compress at one worker over trace.Batches(tr, 0), so sortedness
// is validated while the packets stream through, not in a separate pre-pass
// over the trace.
func Compress(tr *trace.Trace, opts Options) (*Archive, error) {
	p, err := NewPipeline(opts, PipelineConfig{Workers: 1})
	if err != nil {
		return nil, err
	}
	return p.Compress(trace.Batches(tr, 0))
}

// Ratio returns the archive's compression ratio against the original TSH
// file size (encoded bytes / original bytes).
func (a *Archive) Ratio() (float64, error) {
	if a.SourceTSHBytes == 0 {
		return 0, fmt.Errorf("core: archive has no source size recorded")
	}
	sz, err := a.EncodedSize()
	if err != nil {
		return 0, err
	}
	return float64(sz) / float64(a.SourceTSHBytes), nil
}
