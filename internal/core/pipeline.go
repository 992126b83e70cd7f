package core

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/obs"
	"flowzip/internal/pkt"
)

// PipelineConfig is the compression pipeline's knob set, interpreted the same
// way on every input shape.
type PipelineConfig struct {
	// Deprecated: ignored. The schedule follows GOMAXPROCS (see
	// Pipeline.Compress), and no value is refused.
	Workers int
	// Index is copied to the produced archive: with Enabled, Encode appends
	// the footer index, enabling the OpenReader/ExtractFlows read path. The
	// archive body — and therefore Decode — is identical either way.
	Index IndexConfig
	// Metrics, when non-nil, receives cumulative pipeline counters into an
	// obs registry (see NewPipelineMetrics) and attaches the template-store
	// sampler to every store the run creates. Nil disables all of it at the
	// cost of one branch per observation site.
	Metrics *PipelineMetrics
	// Trace, when non-nil, records each run's spans: compress around the
	// run, then table and record for the two stages, or finalize for the
	// serial compressor's end of input. Nil disables tracing (nil-check-only
	// overhead). The tracer is a per-run sink: share a Pipeline across
	// concurrent runs only when it is nil.
	Trace *obs.Tracer
}

// ErrUnsorted reports input whose timestamps run backwards: every entry
// point refuses it, a stream at the first packet older than the one before
// it. An in-memory trace can be sorted first (trace.Trace.Sort); a stream
// cannot.
var ErrUnsorted = errors.New("core: packets are not timestamp sorted")

// Pipeline is the compression front end: codec options plus pipeline
// configuration validated once. Compress pulls a PacketSource (an in-memory
// trace through trace.Batches). Every run produces an archive byte-for-byte
// identical to the serial Compress over the same packets — GOMAXPROCS only
// changes how the work is scheduled, never the bytes.
//
// A Pipeline is immutable after New and safe for concurrent use by multiple
// goroutines, except for the Trace sink, which is per-run: share a Pipeline
// across concurrent runs only when it is nil. Metrics may be shared:
// concurrent runs add into its instruments.
type Pipeline struct {
	opts Options
	cfg  PipelineConfig
}

// NewPipeline validates opts and cfg and returns a ready Pipeline. It is
// strict: an invalid option or index setting is an error rather than a
// silent clamp.
func NewPipeline(opts Options, cfg PipelineConfig) (*Pipeline, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Index.Validate(); err != nil {
		return nil, err
	}
	return &Pipeline{opts: opts, cfg: cfg}, nil
}

// stamp applies pipeline-level archive settings to a produced archive.
func (p *Pipeline) stamp(a *Archive) *Archive {
	a.Index = p.cfg.Index
	return a
}

// scan is the driver loop under every entry point: it pulls src to io.EOF,
// skips the empty batches a source may yield, rejects a timestamp that runs
// backwards, and hands fn each batch; the batch is the source's and is only
// valid until fn returns. It returns the number of packets handed over.
func scan(src PacketSource, fn func(batch []pkt.Packet)) (int64, error) {
	var (
		n      int64
		lastTS time.Duration
	)
	for {
		batch, err := src.Next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("core: packet source: %w", err)
		}
		for i := range batch {
			if batch[i].Timestamp < lastTS {
				return n, fmt.Errorf("%w: packet %d of the source", ErrUnsorted, n+int64(i))
			}
			lastTS = batch[i].Timestamp
		}
		if len(batch) > 0 {
			fn(batch)
			n += int64(len(batch))
		}
	}
}

// feed is scan timing each batch into the metrics.
func (p *Pipeline) feed(src PacketSource, add func(batch []pkt.Packet)) (int64, error) {
	m := p.cfg.Metrics
	return scan(src, func(batch []pkt.Packet) {
		var start time.Time
		if m != nil {
			start = time.Now()
		}
		add(batch)
		m.observeBatch(start, len(batch))
	})
}

// start opens a run: it names the tracer's rows and returns the enclosing
// span.
func (p *Pipeline) start(stages int) obs.Span {
	tc := p.cfg.Trace
	if tc != nil {
		tc.NameThread(0, "pipeline")
		if stages > 1 {
			tc.NameThread(1, "record")
		}
	}
	return tc.Span(0, "compress").ArgInt("stages", int64(stages))
}

// Compress compresses the packets of src without materializing the input. It
// is the one driver: the package-level Compress is its run over
// trace.Batches.
//
// The schedule follows GOMAXPROCS. Below two, the serial compressor runs in
// the calling goroutine. From two on, the run has two stages: the calling
// goroutine pulls src through the flow table and characterizes each flow as
// it finalizes, and one goroutine records the flows — template match,
// address, time-seq record — in the order they finalized. One table
// finalizes every flow in the serial order, so the archive is the serial one
// byte for byte with nothing sorted or merged. Batches of batchFlows flows,
// at most batchQueue of them waiting, carry the flows between the stages in
// a fixed 576 KiB (batchFlows).
//
// Measured against the serial compressor and the design two stages replaced,
// which hash-partitioned packets into two shard tables, fed through channels
// from a stream or through an array of shard ids from a trace, and
// merge-sorted their flows back into serial order: ns a packet, wall / CPU,
// medians of 8 rounds, alternating in order, at GOMAXPROCS 2 on a 2-vCPU
// host, on the Web and distinct traces of 20 000 flows and the bulk and scan
// traces of the allocation tests. CHANGES.md carries the method, the ranges
// and the heap.
//
//	shape      serial      shards, stream  shards, trace  two stages
//	web        132 / 135   139 / 224       129 / 207      115 / 136
//	distinct   360 / 360   327 / 387       347 / 399      243 / 314
//	bulk        53 /  54    58 / 101        53 /  89       52 /  54
//	scan       224 / 234   348 / 494       357 / 489      174 / 229
//
// Packets must arrive in timestamp order; out-of-order input fails with
// ErrUnsorted.
func (p *Pipeline) Compress(src PacketSource) (*Archive, error) {
	if runtime.GOMAXPROCS(0) < 2 {
		return p.serial(src)
	}
	return p.twoStage(src)
}

// serial runs the serial compressor over src in the calling goroutine.
func (p *Pipeline) serial(src PacketSource) (*Archive, error) {
	defer p.start(1).End()
	c := newCompressor(p.opts)
	c.store.Observe(p.cfg.Metrics.storeObserver())
	packets, err := p.feed(src, func(batch []pkt.Packet) {
		for i := range batch {
			c.add(&batch[i])
		}
	})
	if err != nil {
		c.abandon()
		return nil, err
	}
	fsp := p.cfg.Trace.Span(0, "finalize").ArgInt("packets", packets)
	arch := c.finish()
	fsp.End()
	return p.stamp(arch), nil
}

// Batch geometry of a two-stage run. A run takes a set of batchQueue+2
// batches — one filling, batchQueue waiting for the record stage, one being
// recorded — from the one the previous run left (batchPool), or makes them:
// each a batchFlows-flow record array of 32 bytes a flow and a batchArena
// arena for the short vectors, 576 KiB a set. A batch ships to the record
// stage when it holds batchFlows flows, or when its arena has no room for the
// next short vector; an arena grows only for a short vector longer than
// batchArena (ShortMax raised past it). A long flow's template is an
// allocation of its own, which the archive keeps. In a prototype, at 256
// flows a batch the scan trace's CPU read 1.33x the serial compressor's; at
// 4 096, web and bulk lost 5-8 % of the wall time. Made as they were first
// needed, the batches a run allocated moved with how far the record stage
// lagged; made afresh for every run, with 72-byte records holding slices,
// they took the scan trace's CPU to 1.27x the serial compressor's, against
// 1.05x pooled (the median of the table above).
const (
	batchFlows = 1024
	batchQueue = 4
	batchArena = 64 << 10
)

// flowBatch carries finalized flows from the table stage to the record
// stage, which records them in order and hands the batch back for reuse.
type flowBatch struct {
	flows []stagedFlow
	arena []byte         // the short flows' vectors, back to back
	long  []LongTemplate // the long flows' templates
	// open is -1, or the count of flows open when the end-of-trace flush
	// began, which begins with this batch's first flow.
	open int
}

// reset empties b for the next flows, dropping its hold on the long
// templates, which belong to the archive.
func (b *flowBatch) reset() {
	clear(b.long)
	b.flows, b.arena, b.long, b.open = b.flows[:0], b.arena[:0], b.long[:0], -1
}

// stagedFlow is one characterized flow: everything the recorder takes, with
// no pointer, its vector named by where it lies in the batch.
type stagedFlow struct {
	firstTS time.Duration
	rtt     time.Duration // short flows
	server  pkt.IPv4
	// A short flow's vector is arena[at:at+n]; a long flow's template is
	// long[at].
	at, n uint32
	long  bool
}

// batchSet is the batches of one run.
type batchSet [batchQueue + 2]flowBatch

// batchPool recirculates a run's batches to the next, as flow.AcquireTable
// does its flow table.
var batchPool sync.Pool

// acquireBatches returns a set of empty batches: a released one when one is
// pooled, else a new one.
func acquireBatches() *batchSet {
	if bs, ok := batchPool.Get().(*batchSet); ok {
		return bs
	}
	bs := new(batchSet)
	for i := range bs {
		bs[i] = flowBatch{flows: make([]stagedFlow, 0, batchFlows), arena: make([]byte, 0, batchArena), open: -1}
	}
	return bs
}

// tableStage is the calling goroutine's half of a two-stage run: one flow
// table, whose finalized flows it characterizes into the batch it fills.
type tableStage struct {
	opts  Options
	table *flow.Table
	cur   *flowBatch
	full  chan<- *flowBatch // to the record stage
	free  <-chan *flowBatch // recorded batches, back for reuse
	buf   []byte            // where a long flow is characterized before its copy (characterizeLong)
}

// ship hands the current batch to the record stage and takes the next.
func (s *tableStage) ship() {
	s.full <- s.cur
	s.cur = <-s.free
}

// finalize is the table's onDone: it characterizes f into the current batch
// and recycles it.
func (s *tableStage) finalize(f *flow.Flow) {
	sf := stagedFlow{firstTS: f.FirstTimestamp(), server: f.ServerIP()}
	if n := f.Len(); n <= s.opts.ShortMax {
		sf.at, sf.n = s.carve(f, n), uint32(n)
		sf.rtt = f.EstimateRTT()
	} else {
		sf.at, sf.long = uint32(len(s.cur.long)), true
		s.cur.long = append(s.cur.long, characterizeLong(f, s.opts.Weights, &s.buf))
	}
	s.cur.flows = append(s.cur.flows, sf)
	s.table.Recycle(f)
	if len(s.cur.flows) == batchFlows {
		s.ship()
	}
}

// carve appends short flow f's n-byte vector to the current batch's arena
// and returns where it starts, shipping the batch first when its arena has no
// room left, and growing an empty arena too small for the vector.
func (s *tableStage) carve(f *flow.Flow, n int) uint32 {
	if n > cap(s.cur.arena)-len(s.cur.arena) {
		if len(s.cur.arena) > 0 {
			s.ship()
		}
		if n > cap(s.cur.arena) {
			s.cur.arena = make([]byte, 0, n)
		}
	}
	b := s.cur
	at := len(b.arena)
	b.arena = f.AppendVector(b.arena, s.opts.Weights)
	return uint32(at)
}

// record feeds b's flows to r, beginning the flush where b says it begins.
func (r *recorder) record(b *flowBatch) {
	if b.open >= 0 {
		r.timeSeq.beginFlush(b.open)
	}
	for i := range b.flows {
		sf := &b.flows[i]
		if sf.long {
			r.addLong(sf.firstTS, sf.server, b.long[sf.at])
		} else {
			r.addShort(sf.firstTS, sf.server, b.arena[sf.at:sf.at+sf.n], sf.rtt)
		}
	}
}

// twoStage runs src through the table stage in the calling goroutine and the
// record stage in one more (see Compress). A failed run returns once the
// record stage has exited and the table and the batches are back in their
// pools, and builds no archive.
func (p *Pipeline) twoStage(src PacketSource) (*Archive, error) {
	tc := p.cfg.Trace
	defer p.start(2).End()
	full := make(chan *flowBatch, batchQueue)
	// Every batch of the run fits here, so the record stage never blocks
	// handing one back.
	free := make(chan *flowBatch, batchQueue+2)
	bs := acquireBatches()
	for i := 1; i < len(bs); i++ {
		free <- &bs[i]
	}
	s := &tableStage{opts: p.opts, cur: &bs[0], full: full, free: free}
	s.table = flow.AcquireTable(s.finalize)

	// The record stage reads packets and err once full is closed, which
	// happens after the table stage has written them.
	var (
		packets int64
		err     error
		arch    *Archive
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rsp := tc.Span(1, "record")
		r := newRecorder(p.opts)
		r.store.Observe(p.cfg.Metrics.storeObserver())
		for b := range full {
			r.record(b)
			b.reset()
			free <- b
		}
		if err == nil {
			arch = r.archive(packets)
		}
		rsp.End()
	}()

	tsp := tc.Span(0, "table")
	packets, err = p.feed(src, func(batch []pkt.Packet) {
		for i := range batch {
			s.table.Add(&batch[i])
		}
	})
	if err == nil {
		// The flush begins a batch of its own, so the record stage starts
		// it before that batch's first flow.
		if len(s.cur.flows) > 0 {
			s.ship()
		}
		s.cur.open = s.table.ActiveCount()
		s.table.Flush()
		full <- s.cur
	}
	tsp.ArgInt("packets", packets).End()
	close(full)
	<-done
	// Every flow the table emitted was recycled (the batches hold copies),
	// so it can go back to the pool, open flows and all on a failed run;
	// so can the batches, the one a failed run was filling emptied.
	s.table.Release()
	s.cur.reset()
	batchPool.Put(bs)
	if err != nil {
		return nil, err
	}
	return p.stamp(arch), nil
}
