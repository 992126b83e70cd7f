package core

import (
	"fmt"
	"math/rand/v2"
	"time"

	"flowzip/internal/cluster"
	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/segtab"
	"flowzip/internal/trace"
	"flowzip/internal/tsh"
)

// compressor consumes packets in timestamp order and produces an Archive:
// what Compress, and a Pipeline below two Ps, runs in the calling goroutine.
// It implements the
// paper's Section 3 pipeline: the flow table keyed by the 5-tuple hash,
// template matching for short flows on FIN/RST, unconditional template
// creation for long flows.
type compressor struct {
	recorder
	table   *flow.Table
	packets int64
	vbuf    []byte // reusable characterization scratch (finalizeFlow), at most maxScratch kept
}

// recorder is the record step every compress path ends in: the serial
// compressor feeds it each flow as it finalizes, a two-stage run's record
// stage each flow the table stage finalized, in the same order. A short flow is matched first-fit against the
// templates before it the moment it is recorded; a long flow becomes a
// template of its own. Addresses are interned and time-seq records written in
// the same order, so one sequence of calls makes one archive whoever makes
// them.
type recorder struct {
	opts    Options
	store   *cluster.Store
	long    []LongTemplate
	addrs   addrTab
	timeSeq timeSeqBuilder
}

// newRecorder returns a recorder whose template store has the exact-duplicate
// memo on: the memo is semantically transparent (property-tested against the
// plain store), so every path gets the fast path for repeated shapes.
func newRecorder(opts Options) recorder {
	return recorder{opts: opts, store: cluster.NewStoreLimit(opts.limit()).EnableMemo(), addrs: newAddrTab()}
}

// addShort records a short flow, matching its vector v against the store.
// The store copies what it keeps, so v may be the caller's scratch.
func (r *recorder) addShort(first time.Duration, server pkt.IPv4, v flow.Vector, rtt time.Duration) {
	t, _ := r.store.Match(v)
	r.timeSeq.add(TimeSeqRecord{FirstTS: first, Addr: r.addrs.index(server), Template: uint32(t.ID), RTT: rtt})
}

// addLong records a long flow as a template of its own; the archive keeps t.
func (r *recorder) addLong(first time.Duration, server pkt.IPv4, t LongTemplate) {
	r.timeSeq.add(TimeSeqRecord{FirstTS: first, Addr: r.addrs.index(server), Long: true, Template: uint32(len(r.long))})
	r.long = append(r.long, t)
}

// archive assembles what was recorded: the store's short templates, the long
// templates, the interned addresses and the ordered time-seq dataset, with the
// templates numbered by first use. The store's ids, which the records carry
// until then, are creation order.
func (r *recorder) archive(packets int64) *Archive {
	a := &Archive{
		ShortTemplates: storeVectors(r.store),
		LongTemplates:  r.long,
		Addresses:      r.addrs.addresses(),
		TimeSeq:        r.timeSeq.finish(),
		Opts:           r.opts,
		SourcePackets:  packets,
		SourceTSHBytes: tsh.Size(int(packets)),
	}
	a.numberTemplatesByFirstUse()
	return a
}

// storeVectors extracts a store's template vectors in creation order.
func storeVectors(s *cluster.Store) []flow.Vector {
	vs := make([]flow.Vector, s.Len())
	for i := range vs {
		vs[i] = s.Template(i).Vector
	}
	return vs
}

// newCompressor returns a compressor for opts, which NewPipeline has
// validated.
func newCompressor(opts Options) *compressor {
	c := &compressor{recorder: newRecorder(opts)}
	c.table = flow.AcquireTable(c.finalizeFlow)
	return c
}

// add feeds one packet. Packets must arrive in timestamp order.
func (c *compressor) add(p *pkt.Packet) {
	c.packets++
	c.table.Add(p)
}

// finalizeFlow characterizes a finished flow, records it and recycles it. The
// flow and the scratch buffer are both reused, so the steady-state finalize
// path allocates only what the archive retains (one exact copy of a long
// flow's f values and packed gaps, new templates, time-seq growth).
func (c *compressor) finalizeFlow(f *flow.Flow) {
	if n := f.Len(); n <= c.opts.ShortMax {
		c.vbuf = f.AppendVector(c.vbuf[:0], c.opts.Weights)
		c.addShort(f.FirstTimestamp(), f.ServerIP(), c.vbuf, f.EstimateRTT())
	} else {
		c.addLong(f.FirstTimestamp(), f.ServerIP(), characterizeLong(f, c.opts.Weights, &c.vbuf))
	}
	c.table.Recycle(f)
}

// maxScratch is the most characterization scratch a compressor keeps from
// one flow to the next (characterizeLong).
const maxScratch = 64 << 10

// characterizeLong returns long flow f's template, built in *scratch in one
// walk of its words (Flow.AppendVectorGaps) and copied out exactly
// (newLongTemplate). The scratch grows to about four bytes a packet of the
// longest flow built in it; past maxScratch, a flow of some 16 Ki packets, it
// goes with that flow, so a long-lived compressor (a daemon session, a table
// stage) does not hold several times its longest flow for the rest of its
// life.
func characterizeLong(f *flow.Flow, w flow.Weights, scratch *[]byte) LongTemplate {
	b := f.AppendVectorGaps((*scratch)[:0], w)
	t := newLongTemplate(b, f.Len())
	if cap(b) > maxScratch {
		b = nil
	}
	*scratch = b
	return t
}

// addrTab interns server addresses to dense indices in the order it is first
// asked for each (the order the first flow to each completes), in a
// segtab.Table of tag<<32 | index+1 words: one probe per finalized flow made
// the generic map the costlier choice. The tag is a seeded bijection of the
// address, so it is both the probe hash and the key — the first word under an
// address's tag is the address's — and the words are the only copy of the
// addresses: the list an archive carries is read back off them, unmixed, once,
// at the end of the run. The table grows a 4 KiB segment at a time and never
// rehashes.
//
// The seed is drawn per recorder, so addresses a sender picked to share a
// home slot (n of them cost n²/2 probe steps) or a segment in one table land
// apart in every other. The slot order is never output, so it moves no byte.
type addrTab struct {
	tab segtab.Table
	key uint32 // the recorder's seed
}

func newAddrTab() addrTab { return addrTab{tab: segtab.New(), key: rand.Uint32()} }

// index returns ip's index, numbering an address not seen before with the
// count of those that were.
func (t *addrTab) index(ip pkt.IPv4) uint32 {
	return t.tab.Intern(t.mix(ip), uint32(t.tab.Len())+1) - 1
}

// addresses lists the interned addresses in index order — Archive.Addresses —
// in one allocation of exactly their number.
func (t *addrTab) addresses() []pkt.IPv4 {
	out := make([]pkt.IPv4, t.tab.Len())
	t.tab.Each(func(tag, val uint32) { out[val-1] = t.unmix(tag) })
	return out
}

// mix is ip's tag: lowbias32 of ip keyed by the seed.
func (t *addrTab) mix(ip pkt.IPv4) uint32 { return lowbias32(uint32(ip) ^ t.key) }

// unmix inverts mix.
func (t *addrTab) unmix(tag uint32) pkt.IPv4 { return pkt.IPv4(lowbias32Inv(tag) ^ t.key) }

// lowbias32 is a bijection on 32-bit words that spreads every input bit over
// the output (Wellons' hash-prospector finalizer).
func lowbias32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	return x ^ x>>16
}

// lowbias32Inv inverts lowbias32: each xorshift undone, each multiplier
// replaced by its inverse mod 2^32.
func lowbias32Inv(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x43021123
	x ^= x>>15 ^ x>>30
	x *= 0x1d69e2a5
	return x ^ x>>16
}

// finish flushes open flows and assembles the archive. The compressor must
// not be used afterwards.
func (c *compressor) finish() *Archive {
	// The flush emits one record per open flow — on most traces the bulk of
	// the dataset — in FirstTS order, each written once, where it stays.
	c.timeSeq.beginFlush(c.table.ActiveCount())
	c.table.Flush()
	// Every finalized flow was recycled (finalizeFlow unconditionally hands
	// the flow back), so nothing the archive holds aliases table storage and
	// the table can recirculate to the next compressor.
	c.table.Release()
	c.table = nil
	return c.archive(c.packets)
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
//   - beginFlush(open) makes the dataset, exactly closed + open records, and
//     stably sorts the closed records into its tail, out[open:];
//   - add after it moves the closed records that start no later than the
//     flushed one (closed wins ties: it was finalized first) to the front,
//     then writes the flushed record behind them, so each lands in its final
//     position; the closed records still in the tail after the last flushed
//     one are already there.
//
// The front never overtakes the tail: with m closed and f open records
// written, the write index n is m + f and the read index rd is open + m, and
// f < open until the last open record is written.
//
// A record comes to add complete (recorder matches a short flow before it
// records it), so nothing is written to a record once it is added.
type timeSeqBuilder struct {
	chunks []*[timeSeqChunk]TimeSeqRecord // closed records in close order; nil after beginFlush
	closed int
	out    []TimeSeqRecord // the dataset; out[:n] written. Nil until beginFlush
	rd     int             // out[rd:] is the sorted closed records not yet moved
	n      int
}

const (
	timeSeqChunkShift = 8
	timeSeqChunk      = 1 << timeSeqChunkShift // 8 KiB of records
)

func (b *timeSeqBuilder) add(rec TimeSeqRecord) {
	if b.out == nil {
		if b.closed == len(b.chunks)<<timeSeqChunkShift {
			b.chunks = append(b.chunks, new([timeSeqChunk]TimeSeqRecord))
		}
		b.closed++
		*b.staged(b.closed - 1) = rec
		return
	}
	for ; b.rd < len(b.out) && b.out[b.rd].FirstTS <= rec.FirstTS; b.rd++ {
		b.out[b.n] = b.out[b.rd]
		b.n++
	}
	b.out[b.n] = rec
	b.n++
}

// staged returns the i-th closed record.
func (b *timeSeqBuilder) staged(i int) *TimeSeqRecord {
	return &b.chunks[i>>timeSeqChunkShift][i&(timeSeqChunk-1)]
}

// sortKey orders FirstTS as unsigned: the sign bit flipped.
func sortKey(ts time.Duration) uint64 { return uint64(ts) ^ 1<<63 }

// beginFlush ends the staging: exactly open records, in FirstTS order, follow.
// The sort is LSD radix over the records themselves, scattered from the
// chunks to the tail and back — counting passes are stable, so equal
// timestamps keep close order, exactly as SortStableFunc over the records
// would leave them. One read of the chunks counts every byte position, and
// the positions that never vary are skipped, which for sub-minute traces
// leaves three or four passes; after an even number the records are copied
// to the tail.
func (b *timeSeqBuilder) beginFlush(open int) {
	b.out = make([]TimeSeqRecord, open+b.closed)
	b.rd = open
	tail := b.out[open:]
	var (
		cnt [8][256]int
		k   uint64 // the last key counted, 0 if none
	)
	for i := range b.closed {
		k = sortKey(b.staged(i).FirstTS)
		for p := range cnt {
			cnt[p][byte(k>>(8*p))]++
		}
	}
	inTail := false
	for p := range cnt {
		if cnt[p][byte(k>>(8*p))] == b.closed {
			continue // every key shares this byte: the pass is the identity
		}
		at, sum := &cnt[p], 0
		for d, c := range at {
			at[d], sum = sum, sum+c
		}
		if inTail {
			for i := range tail {
				d := byte(sortKey(tail[i].FirstTS) >> (8 * p))
				*b.staged(at[d]) = tail[i]
				at[d]++
			}
		} else {
			for i := range b.closed {
				r := b.staged(i)
				d := byte(sortKey(r.FirstTS) >> (8 * p))
				tail[at[d]] = *r
				at[d]++
			}
		}
		inTail = !inTail
	}
	if !inTail {
		for i := range tail {
			tail[i] = *b.staged(i)
		}
	}
	b.chunks = nil
}

// finish returns the dataset.
func (b *timeSeqBuilder) finish() []TimeSeqRecord {
	if b.out == nil {
		b.beginFlush(0)
	}
	return b.out
}

// abandon gives up on a run that failed mid-stream: the table goes back to
// the pool, which takes its open flows back unemitted. The compressor must
// not be used afterwards.
func (c *compressor) abandon() {
	c.table.Release()
	c.table = nil
}

// Compress runs the serial compressor over a trace in the calling goroutine,
// whatever GOMAXPROCS — the reference every Pipeline run reproduces byte for
// byte. It is Pipeline.Compress's serial schedule over trace.Batches(tr, 0),
// so sortedness is validated while the packets stream through, not in a
// separate pre-pass over the trace.
func Compress(tr *trace.Trace, opts Options) (*Archive, error) {
	p, err := NewPipeline(opts, PipelineConfig{})
	if err != nil {
		return nil, err
	}
	return p.serial(trace.Batches(tr, 0))
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
