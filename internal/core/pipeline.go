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
	// run, table around the table stage and, in a two-stage run, record
	// around the record stage. Nil disables tracing (nil-check-only
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
// identical to Compress over the same packets — GOMAXPROCS only
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
// is the one driver: the package-level Compress is its one-stage run over
// trace.Batches.
//
// The calling goroutine pulls src through the flow table and characterizes
// each flow as it finalizes into a batch; the recorder then records the
// batch's flows — template match, address, time-seq record — in the order
// they finalized. One table finalizes every flow in one order, so the
// archive is the same byte for byte on either schedule, with nothing sorted
// or merged. GOMAXPROCS picks the schedule. Below two, the run has one stage:
// the calling goroutine records each batch of oneStageFlows flows itself as
// it fills. From two on, the run has two stages: one more goroutine records
// the batches, batchFlows flows each, at most batchQueue of them waiting, in
// a fixed 576 KiB (batchFlows).
//
// ns a packet, wall / CPU, medians of 8 rounds, each the best of 7 runs, on
// a shared 2-vCPU host whose rounds spread by 10-20 %, on the Web and
// distinct traces of 20 000 flows and the bulk and scan traces of the
// allocation tests; CHANGES.md carries the paired comparison with the
// designs these replaced.
//
//	           GOMAXPROCS 1            GOMAXPROCS 2
//	shape      one stage  two stages   one stage  two stages
//	web        145 / 145  148 / 148    147 / 148  133 / 154
//	distinct   377 / 377  340 / 341    374 / 371  308 / 385
//	bulk        58 /  58   52 /  52     55 /  56   60 /  61
//	scan       221 / 221  210 / 210    216 / 212  185 / 240
//
// Packets must arrive in timestamp order; out-of-order input fails with
// ErrUnsorted.
func (p *Pipeline) Compress(src PacketSource) (*Archive, error) {
	return p.run(src, min(runtime.GOMAXPROCS(0), 2))
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
// flows a batch the scan trace's CPU read 1.33x a one-goroutine run's; at
// 4 096, web and bulk lost 5-8 % of the wall time. Made as they were first
// needed, the batches a run allocated moved with how far the record stage
// lagged; made afresh for every run, with 72-byte records holding slices,
// they took the scan trace's CPU to 1.27x a one-goroutine run's, against
// 1.05x pooled.
const (
	batchFlows = 1024
	batchQueue = 4
	batchArena = 64 << 10
)

// A one-stage run records its one batch in place each time it fills, so the
// batch is made per run and stays small: 2 KiB of records and a 1 KiB arena
// (TestRunAllocBudget). In a prototype, a batch of one flow took 1.14x the
// scan trace's time.
const (
	oneStageFlows = 64
	oneStageArena = 1 << 10
)

// flowBatch carries finalized flows from the table stage to the recorder,
// which records them in order; the batch is then emptied for reuse.
type flowBatch struct {
	flows []stagedFlow
	arena []byte         // the short flows' vectors, back to back
	long  []LongTemplate // the long flows' templates
	// open is -1, or the count of flows open when the end-of-trace flush
	// began, which begins with this batch's first flow.
	open int
}

// newFlowBatch returns an empty batch with room for flows flows and arena
// bytes of short vectors.
func newFlowBatch(flows, arena int) flowBatch {
	return flowBatch{flows: make([]stagedFlow, 0, flows), arena: make([]byte, 0, arena), open: -1}
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

// batchSet is the batches of one two-stage run.
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
		bs[i] = newFlowBatch(batchFlows, batchArena)
	}
	return bs
}

// tableStage is the calling goroutine's part of a run: one flow table, whose
// finalized flows it characterizes into the batch it fills.
type tableStage struct {
	opts  Options
	table *flow.Table
	cur   *flowBatch
	rec   *recorder         // a one-stage run's recorder; nil in two stages
	full  chan<- *flowBatch // to the record stage
	free  <-chan *flowBatch // recorded batches, back for reuse
	buf   []byte            // where a long flow is characterized before its copy (characterizeLong)
}

// ship hands the current batch on: a one-stage run records and empties it
// in place, a two-stage run sends it to the record stage and takes the next.
func (s *tableStage) ship() {
	if s.rec != nil {
		s.rec.record(s.cur)
		s.cur.reset()
		return
	}
	s.full <- s.cur
	s.cur = <-s.free
}

// finalize is the table's onDone: it characterizes f into the current batch
// and recycles it.
func (s *tableStage) finalize(f *flow.Flow) {
	n := f.Len()
	short := n <= s.opts.ShortMax
	var (
		at  uint32
		rtt time.Duration
	)
	if short {
		at, rtt = s.carve(f, n), f.EstimateRTT()
	} else {
		at = uint32(len(s.cur.long))
		s.cur.long = append(s.cur.long, characterizeLong(f, s.opts.Weights, &s.buf))
	}
	// carve may ship, so the flow's slot is taken after it. The slot is
	// written field by field: a stagedFlow built on the stack and copied in
	// was read back with wider loads than its fields were stored with, a
	// store-forwarding stall: some 4 % of a one-stage run on the scan trace.
	b := s.cur
	b.flows = b.flows[:len(b.flows)+1]
	sf := &b.flows[len(b.flows)-1]
	sf.firstTS, sf.rtt, sf.server, sf.at, sf.n, sf.long = f.FirstTimestamp(), rtt, f.ServerIP(), at, uint32(n), !short
	s.table.Recycle(f)
	if len(s.cur.flows) == cap(s.cur.flows) {
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

// flush ends the input: it finalizes the flows still open, in a batch of
// their own that tells the recorder where the end-of-trace flush begins, and
// ships it. Every finalized flow was recycled (the batches hold copies), so
// the table can go back to the pool afterwards.
func (s *tableStage) flush() {
	if len(s.cur.flows) > 0 {
		s.ship()
	}
	s.cur.open = s.table.ActiveCount()
	s.table.Flush()
	s.ship()
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

// run compresses src in one stage or two (see Compress): the table stage in
// the calling goroutine, recording inline or handing its batches to a record
// stage in one more. A failed run returns once the record stage, if any, has
// exited and the table and the batches are back in their pools, and builds
// no archive.
func (p *Pipeline) run(src PacketSource, stages int) (*Archive, error) {
	tc := p.cfg.Trace
	defer p.start(stages).End()
	r := newRecorder(p.opts)
	r.store.Observe(p.cfg.Metrics.storeObserver())
	s := &tableStage{opts: p.opts}
	s.table = flow.AcquireTable(s.finalize)
	var (
		bs   *batchSet
		done chan struct{} // closed when the record stage has exited
	)
	if stages == 1 {
		b := newFlowBatch(oneStageFlows, oneStageArena)
		s.cur, s.rec = &b, &r
	} else {
		full := make(chan *flowBatch, batchQueue)
		// Every batch of the run fits here, so the record stage never
		// blocks handing one back.
		free := make(chan *flowBatch, batchQueue+2)
		bs = acquireBatches()
		for i := 1; i < len(bs); i++ {
			free <- &bs[i]
		}
		s.cur, s.full, s.free = &bs[0], full, free
		done = make(chan struct{})
		go func() {
			defer close(done)
			defer tc.Span(1, "record").End()
			for b := range full {
				r.record(b)
				b.reset()
				free <- b
			}
		}()
	}

	tsp := tc.Span(0, "table")
	packets, err := p.feed(src, func(batch []pkt.Packet) {
		for i := range batch {
			s.table.Add(&batch[i])
		}
	})
	if err == nil {
		s.flush()
	}
	tsp.ArgInt("packets", packets).End()
	if s.full != nil {
		close(s.full)
		<-done
	}
	// The table goes back to the pool, open flows and all on a failed run;
	// so do the batches, the one a failed run was filling emptied.
	s.table.Release()
	if bs != nil {
		s.cur.reset()
		batchPool.Put(bs)
	}
	if err != nil {
		return nil, err
	}
	return p.stamp(r.archive(packets)), nil
}
