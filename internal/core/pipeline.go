package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/obs"
	"flowzip/internal/pkt"
	"flowzip/internal/trace"
)

// PipelineConfig is the single knob set of the compression pipeline: one
// worker count, one metrics sink — interpreted the same way on every input
// shape.
type PipelineConfig struct {
	// Workers is the shard count, in [0, flow.MaxShards]; 0 selects
	// defaultWorkers (one per CPU, capped at flow.MaxShards). NewPipeline
	// rejects counts outside the range. One worker is the serial compressor
	// run in the calling goroutine, on a stream and on a trace alike: nothing
	// is partitioned, queued or merged.
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
	// Trace, when non-nil, records partition / shard-compress / finalize /
	// merge spans for each run. Nil disables tracing (nil-check-only
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
// configuration validated once, then applied to any input shape. Compress
// pulls a PacketSource — into the serial compressor at one worker, through
// bounded shard channels at two or more; CompressTrace does the same for a
// materialized trace, whose packets two or more workers reach through one
// shared array of shard ids instead of streaming. Every combination produces
// an archive byte-for-byte identical to the one-worker run over the same
// packets — the worker count only changes how the work is scheduled, never
// the bytes.
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
// strict: a negative worker count or a count beyond flow.MaxShards is an
// error rather than a silent clamp.
func NewPipeline(opts Options, cfg PipelineConfig) (*Pipeline, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if cfg.Workers < 0 || cfg.Workers > flow.MaxShards {
		return nil, fmt.Errorf("core: pipeline workers %d outside [0,%d]", cfg.Workers, flow.MaxShards)
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

// workers returns the effective shard count: the configured count, or
// defaultWorkers when the configuration left it 0.
func (p *Pipeline) workers() int {
	if p.cfg.Workers <= 0 {
		return defaultWorkers()
	}
	return p.cfg.Workers
}

// scan is the driver loop under every entry point: it pulls src to io.EOF,
// skips the empty batches a source may yield, rejects a timestamp that runs
// backwards, and hands fn each batch together with the global index of its
// first packet; the batch is the source's and is only valid until fn returns.
// It returns the number of packets handed over.
func scan(src PacketSource, fn func(base int64, batch []pkt.Packet)) (int64, error) {
	var (
		gidx   int64
		lastTS time.Duration
	)
	for {
		batch, err := src.Next()
		if errors.Is(err, io.EOF) {
			return gidx, nil
		}
		if err != nil {
			return gidx, fmt.Errorf("core: packet source: %w", err)
		}
		for i := range batch {
			if batch[i].Timestamp < lastTS {
				return gidx, fmt.Errorf("%w: packet %d of the source", ErrUnsorted, gidx+int64(i))
			}
			lastTS = batch[i].Timestamp
		}
		if len(batch) > 0 {
			fn(gidx, batch)
			gidx += int64(len(batch))
		}
	}
}

// start opens a run: it names the tracer's rows and returns the enclosing
// span.
func (p *Pipeline) start(workers int) obs.Span {
	tc := p.cfg.Trace
	if tc != nil {
		tc.NameThread(0, "pipeline")
		if workers > 1 {
			for w := 0; w < workers; w++ {
				tc.NameThread(int64(w)+1, fmt.Sprintf("shard %d", w))
			}
		}
	}
	return tc.Span(0, "compress").ArgInt("workers", int64(workers))
}

// Compress compresses the packets of src without materializing the input. It
// is the one driver: CompressTrace at one worker and the package-level
// Compress are this method over trace.Batches.
//
// One worker feeds the serial compressor in the calling goroutine. Two or
// more route each packet by the 5-tuple hash (flow.ShardOf, under a seed
// drawn for the call) and feed the shard workers through bounded channels,
// so the reader blocks when a shard falls behind (backpressure) and resident
// packets stay bounded by streamWindow, not the stream length; the merge is
// the deterministic replay shared with CompressTrace, so the archive is
// byte-for-byte identical to the one-worker run over the same packets.
//
// Packets must arrive in timestamp order; out-of-order input fails with
// ErrUnsorted.
func (p *Pipeline) Compress(src PacketSource) (*Archive, error) {
	return p.compress(src, rand.Uint64())
}

// compress is Compress with the shard hash keyed by seed.
func (p *Pipeline) compress(src PacketSource, seed uint64) (*Archive, error) {
	workers := p.workers()
	m := p.cfg.Metrics
	tc := p.cfg.Trace
	runSpan := p.start(workers)
	defer runSpan.End()
	// feed drives src through add, timing each batch.
	feed := func(add func(base int64, batch []pkt.Packet)) (int64, error) {
		return scan(src, func(base int64, batch []pkt.Packet) {
			var batchStart time.Time
			if m != nil {
				batchStart = time.Now()
			}
			add(base, batch)
			m.observeBatch(batchStart, len(batch))
		})
	}

	if workers == 1 {
		c := newCompressor(p.opts)
		c.store.Observe(m.storeObserver())
		packets, err := feed(func(_ int64, batch []pkt.Packet) {
			for i := range batch {
				c.add(&batch[i])
			}
		})
		if err != nil {
			c.abandon()
			return nil, err
		}
		fsp := tc.Span(0, "finalize").ArgInt("packets", packets)
		arch := c.finish()
		fsp.End()
		return p.stamp(arch), nil
	}

	// Packets in flight per shard: up to chanDepth chunks queued, one being
	// processed and one pending in the reader — (chanDepth+2) chunks, so
	// workers*(chanDepth+2)*chunk <= streamWindow.
	chunk := streamWindow / (workers * (chanDepth + 2))

	chans := make([]chan []idxPacket, workers)
	for w := range chans {
		chans[w] = make(chan []idxPacket, chanDepth)
	}
	// Drained chunks come back to the reader here. At most (chanDepth+2)
	// chunks per worker exist at once — the reader allocates one only when
	// every chunk so far is queued, in a worker's hands or pending — so the
	// buffer holds them all and a worker's send never blocks.
	drained := make(chan []idxPacket, workers*(chanDepth+2))
	shards := make([][]shardFlow, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := newShardCompressor(p.opts)
			ssp := tc.Span(int64(w)+1, "shard-compress")
			for ck := range chans[w] {
				for i := range ck {
					sc.add(ck[i].idx, &ck[i].p)
				}
				m.addResident(-int64(len(ck)))
				drained <- ck[:0]
			}
			ssp.End()
			fsp := tc.Span(int64(w)+1, "finalize")
			shards[w] = sc.finish()
			fsp.End()
		}(w)
	}

	pend := make([][]idxPacket, workers)
	send := func(w int) {
		if len(pend[w]) == 0 {
			return
		}
		m.addResident(int64(len(pend[w])))
		chans[w] <- pend[w]
		pend[w] = nil
	}
	packets, err := feed(func(base int64, batch []pkt.Packet) {
		for i := range batch {
			w := flow.ShardOf(&batch[i], workers, seed)
			if pend[w] == nil {
				select {
				case pend[w] = <-drained:
				default:
					pend[w] = make([]idxPacket, 0, chunk)
				}
			}
			pend[w] = append(pend[w], idxPacket{idx: base + int64(i), p: batch[i]})
			if len(pend[w]) >= chunk {
				send(w)
			}
		}
	})
	// Closing the channels lets every worker drain and exit, so no goroutine
	// leaks even when the source dies mid-stream; what a failed run left
	// pending is not sent.
	for w := range pend {
		if err == nil {
			send(w)
		}
		close(chans[w])
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	msp := tc.Span(0, "merge").ArgInt("packets", packets)
	arch := mergeShards(packets, p.opts, shards, m)
	msp.End()
	return p.stamp(arch), nil
}

// CompressTrace compresses a materialized trace. One worker is
// Compress(trace.Batches(tr, 0)). Two or more take the shape the input
// allows: no channel, no packet copy. Each worker hashes its 1/W stripe of
// the trace into one shared array of shard ids, waits for the others, then
// skips through the ids to its own packets and compresses them at their
// global index; the deterministic merge replays the results in serial
// finalize order. The archive is byte-for-byte identical to
// Compress(tr, opts).
func (p *Pipeline) CompressTrace(tr *trace.Trace) (*Archive, error) {
	return p.compressTrace(tr, rand.Uint64())
}

// compressTrace is CompressTrace with the shard hash keyed by seed.
func (p *Pipeline) compressTrace(tr *trace.Trace, seed uint64) (*Archive, error) {
	workers := p.workers()
	if workers == 1 {
		return p.compress(trace.Batches(tr, 0), seed)
	}
	if !tr.IsSorted() {
		return nil, fmt.Errorf("%w: trace %q", ErrUnsorted, tr.Name)
	}
	m := p.cfg.Metrics
	tc := p.cfg.Trace
	runSpan := p.start(workers)
	defer runSpan.ArgInt("packets", int64(tr.Len())).End()
	var runStart time.Time
	if m != nil {
		runStart = time.Now()
	}

	// ids[i] is packet i's shard; workers is at most flow.MaxShards, so a
	// shard id fits the byte.
	ids := make([]byte, tr.Len())
	stripe := (len(ids) + workers - 1) / workers
	shards := make([][]shardFlow, workers)
	var hashed, done sync.WaitGroup
	hashed.Add(workers)
	done.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer done.Done()
			lo := min(w*stripe, len(ids))
			hi := min(lo+stripe, len(ids))
			psp := tc.Span(int64(w)+1, "partition").ArgInt("packets", int64(hi-lo))
			for i := lo; i < hi; i++ {
				ids[i] = byte(flow.ShardOf(&tr.Packets[i], workers, seed))
			}
			psp.End()
			hashed.Done()
			hashed.Wait()

			sc := newShardCompressor(p.opts)
			ssp := tc.Span(int64(w)+1, "shard-compress")
			own, n := byte(w), 0
			for i := 0; ; i++ {
				j := bytes.IndexByte(ids[i:], own)
				if j < 0 {
					break
				}
				i += j
				sc.add(int64(i), &tr.Packets[i])
				n++
			}
			ssp.ArgInt("packets", int64(n)).End()
			fsp := tc.Span(int64(w)+1, "finalize")
			shards[w] = sc.finish()
			fsp.End()
		}(w)
	}
	done.Wait()

	msp := tc.Span(0, "merge").ArgInt("packets", int64(tr.Len()))
	arch := mergeShards(int64(tr.Len()), p.opts, shards, m)
	msp.End()
	m.observeBatch(runStart, tr.Len())
	return p.stamp(arch), nil
}
