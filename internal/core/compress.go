package core

import (
	"fmt"
	"math"
	"time"

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
	timeSeq timeSeqBuilder
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
// caller's handle on the record to backfill once the batch resolves. Deferral
// is invisible in the output: the store is only ever mutated by these Match
// calls, flushing preserves their order, and the handles stay valid (records
// are staged before their match resolves).
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
func (b *matchBatcher) flush(s *cluster.Store, emit func(idx int, t *cluster.Template)) {
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
		emit(b.idxs[i], tpls[i])
	}
	b.arena = b.arena[:0]
	b.ends = b.ends[:0]
	b.idxs = b.idxs[:0]
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
		c.mb.add(v, c.timeSeq.add(rec))
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
	c.timeSeq.add(rec)
	c.table.Recycle(f)
}

// flushMatches resolves the staged short-flow vectors and backfills their
// time-seq records.
func (c *Compressor) flushMatches() {
	c.mb.flush(c.store, func(idx int, t *cluster.Template) {
		c.timeSeq.at(idx).Template = uint32(t.ID)
	})
}

// addrTab interns server addresses to dense indices in the order it is first
// asked for each (the order the first flow to each completes): a flat
// open-addressed table over packed (ip, index) words. One probe per finalized
// flow made the generic map the costlier choice. Slot encoding is
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
	// The closed records are complete once their matches resolve; the flush
	// then emits one record per open flow — on most traces the bulk of the
	// dataset — in FirstTS order, each written once, where it stays.
	c.flushMatches()
	c.timeSeq.beginFlush(c.table.ActiveCount())
	c.table.Flush()
	c.flushMatches()
	// Every finalized flow was recycled (finalizeFlow unconditionally hands
	// the flow back), so nothing the archive holds aliases table storage and
	// the table can recirculate to the next compressor.
	c.table.Release()
	c.table = nil
	return newArchive(c.opts, c.packets, c.store, c.long, &c.addrs, &c.timeSeq)
}

// newArchive is where every compress path ends — Compressor.Finish, and
// mergeShards under the sharded, streaming and daemon ones — once
// matching is over: the archive of the store's short templates, the long
// templates, the interned addresses and the time-seq recs orders, with the
// templates numbered by first use. The store's ids, which the records carry
// until then, are creation order.
func newArchive(opts Options, packets int64, store *cluster.Store, long []LongTemplate, addrs *addrTab, recs *timeSeqBuilder) *Archive {
	a := &Archive{
		ShortTemplates: storeVectors(store),
		LongTemplates:  long,
		Addresses:      addrs.addresses(),
		TimeSeq:        recs.finish(),
		Opts:           opts,
		SourcePackets:  packets,
		SourceTSHBytes: tsh.Size(int(packets)),
	}
	a.numberTemplatesByFirstUse()
	return a
}

// timeSeqBuilder orders the time-seq dataset — by FirstTS, flows that share
// one in finalize order — without ever holding it unordered in one slice.
// The finalize sequence is every FIN/RST-closed flow in close order, then
// the end-of-trace flush in FirstTS order (flow.Table.Flush), so only the
// closed records need sorting, and once they are sorted the size of the
// dataset and the place of every flushed record in it are known:
//
//   - add before beginFlush stages a closed record in fixed chunks (no
//     regrowth, nothing copied when one fills);
//   - beginFlush(open) stably sorts (FirstTS, index) pairs of the staged
//     records and makes the dataset, exactly closed + open records;
//   - add after it writes the closed records that start no later than the
//     flushed one (closed wins ties: it was finalized first), then the flushed
//     record itself, each straight into its final position;
//   - finish writes the closed records that start after every flushed one.
//
// A handle from add is good for at until beginFlush (a staged record) or for
// good (a flushed one), so a match can resolve after its record is placed.
type timeSeqBuilder struct {
	chunks []*[timeSeqChunk]TimeSeqRecord // closed records in close order
	closed int
	order  []timeSeqKey    // closed records by FirstTS; order[next:] not yet written
	out    []TimeSeqRecord // the dataset; out[:n] written. Nil until beginFlush
	next   int
	n      int
}

const (
	timeSeqChunkShift = 8
	timeSeqChunk      = 1 << timeSeqChunkShift // 8 KiB of records
)

// timeSeqKey is one staged record as beginFlush sorts it: FirstTS with the
// sign bit flipped (int64 order as unsigned) and the record's index.
type timeSeqKey struct {
	ts  uint64
	idx uint32
}

func sortKey(ts time.Duration) uint64 { return uint64(ts) ^ 1<<63 }

func (b *timeSeqBuilder) add(rec TimeSeqRecord) int {
	if b.out == nil {
		if b.closed == len(b.chunks)<<timeSeqChunkShift {
			b.chunks = append(b.chunks, new([timeSeqChunk]TimeSeqRecord))
		}
		b.closed++
		*b.staged(b.closed - 1) = rec
		return b.closed - 1
	}
	b.place(sortKey(rec.FirstTS))
	b.out[b.n] = rec
	b.n++
	return b.n - 1
}

// at returns the record behind a handle.
func (b *timeSeqBuilder) at(h int) *TimeSeqRecord {
	if b.out == nil {
		return b.staged(h)
	}
	return &b.out[h]
}

// staged returns the i-th closed record.
func (b *timeSeqBuilder) staged(i int) *TimeSeqRecord {
	return &b.chunks[i>>timeSeqChunkShift][i&(timeSeqChunk-1)]
}

// place writes the staged records whose key is at most upTo.
func (b *timeSeqBuilder) place(upTo uint64) {
	for ; b.next < len(b.order) && b.order[b.next].ts <= upTo; b.next++ {
		b.out[b.n] = *b.staged(int(b.order[b.next].idx))
		b.n++
	}
}

// beginFlush ends the staging: every staged record must be complete, and
// open records, in FirstTS order, may follow. The sort is LSD radix over the
// hoisted pairs — counting passes are stable, so equal timestamps keep close
// order, exactly as SortStableFunc over the records would leave them — and
// skips the byte positions that never vary, which for sub-minute traces
// leaves three or four passes.
func (b *timeSeqBuilder) beginFlush(open int) {
	src, dst := make([]timeSeqKey, b.closed), make([]timeSeqKey, b.closed)
	for i := range src {
		src[i] = timeSeqKey{sortKey(b.staged(i).FirstTS), uint32(i)}
	}
	for shift := 0; shift < 64 && len(src) > 1; shift += 8 {
		var cnt [257]int
		for i := range src {
			cnt[int(byte(src[i].ts>>shift))+1]++
		}
		if cnt[int(byte(src[0].ts>>shift))+1] == len(src) {
			continue // every key shares this byte: the pass is the identity
		}
		for i := 1; i < 256; i++ {
			cnt[i] += cnt[i-1]
		}
		for i := range src {
			c := &cnt[byte(src[i].ts>>shift)]
			dst[*c] = src[i]
			*c++
		}
		src, dst = dst, src
	}
	b.order = src
	b.out = make([]TimeSeqRecord, b.closed+open)
}

// finish returns the dataset.
func (b *timeSeqBuilder) finish() []TimeSeqRecord {
	if b.out == nil {
		b.beginFlush(0)
	}
	b.place(math.MaxUint64)
	return b.out
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
