package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"flowzip/internal/cluster"
	"flowzip/internal/core"
	"flowzip/internal/dist"
	"flowzip/internal/flow"
	"flowzip/internal/obs"
	"flowzip/internal/pcap"
	"flowzip/internal/server"
	"flowzip/internal/trace"
	"flowzip/internal/tsh"
)

// The traced pass runs every layer on its own, one stage at a time, through
// the layer's public API. Each stage is an obs.Tracer span nested in the
// repetition's workload span; spans are recorded here, around the calls, not
// inside the program. A stage's duration is taken at the span's own
// boundaries, so the per-layer numbers and the Perfetto file agree.

// layerRun is the state of one workload's traced pass.
type layerRun struct {
	e      *env
	ref    *reference
	flows  []*flow.Flow  // assembled flows, for the vector stage
	shorts []flow.Vector // short-flow vectors in finalize order, for the match stage
	tracer *obs.Tracer
	tid    int64

	sec         map[string][]float64 // stage or timed quantity -> seconds, one per repetition
	counts      map[string]float64   // quantities that repeat exactly in every repetition
	blockFrac   []float64            // server.send_block_frac, one per repetition
	spans       int                  // spans recorded by stage so far
	passSeconds float64              // wall time of all repetitions
	attempted   int
	failed      int
}

// stage runs fn inside a span and keeps its duration under name. A failed
// stage counts against the run and leaves no sample.
func (l *layerRun) stage(name string, fn func() error) {
	tr := l.tracer
	// The collection between stages is a span of its own, so that a workload
	// span's children account for all of its time.
	gsp := tr.Span(l.tid, "gc")
	settle()
	gsp.End()
	sp := tr.Span(l.tid, name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0).Seconds()
	sp.End()
	l.spans += 2
	l.attempted++
	if err != nil {
		l.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: %s: FAILED: %v\n", l.e.w.name, name, err)
		return
	}
	l.sec[name] = append(l.sec[name], d)
}

func drain(src core.PacketSource, want int) error {
	n := 0
	for {
		b, err := src.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		n += len(b)
	}
	if n != want {
		return fmt.Errorf("parsed %d packets, want %d", n, want)
	}
	return nil
}

// prepare builds what the stages consume; it runs once, outside every span.
func (l *layerRun) prepare() {
	opts := core.DefaultOptions()
	l.flows = flow.Assemble(l.e.tr.Packets)
	var t *flow.Table
	t = flow.AcquireTable(func(f *flow.Flow) {
		if f.Len() <= opts.ShortMax {
			l.shorts = append(l.shorts, f.Vector(opts.Weights))
		}
		t.Recycle(f)
	})
	for i := range l.e.tr.Packets {
		t.Add(&l.e.tr.Packets[i])
	}
	t.Flush()
	t.Release()
}

// repetition runs every stage once under one workload span.
func (l *layerRun) repetition(rep int) {
	e, n := l.e, l.e.packets()
	opts := core.DefaultOptions()

	wsp := l.tracer.Span(l.tid, "workload:"+e.w.name).ArgInt("rep", int64(rep)).ArgInt("packets", int64(n))
	defer wsp.End()

	l.stage("pcap.parse", func() error {
		src, err := pcap.Open(e.pcap, 0)
		if err != nil {
			return err
		}
		defer src.Close()
		return drain(src, n)
	})
	l.stage("tsh.parse", func() error {
		src, err := trace.OpenStream(e.tsh, 0)
		if err != nil {
			return err
		}
		defer src.Close()
		return drain(src, n)
	})

	l.stage("flow.table", func() error {
		flows := 0
		var t *flow.Table
		t = flow.AcquireTable(func(f *flow.Flow) { flows++; t.Recycle(f) })
		for i := range e.tr.Packets {
			t.Add(&e.tr.Packets[i])
		}
		t.Flush()
		t.Release()
		l.counts["flow.table_flows"] = float64(flows)
		if flows != l.ref.flows {
			return fmt.Errorf("%d flows, want %d", flows, l.ref.flows)
		}
		return nil
	})
	l.stage("flow.vector", func() error {
		var buf flow.Vector
		total := 0
		for _, f := range l.flows {
			buf = f.AppendVector(buf[:0], opts.Weights)
			total += len(buf)
		}
		if total != n {
			return fmt.Errorf("vectors cover %d packets, want %d", total, n)
		}
		return nil
	})
	l.stage("cluster.match", func() error {
		// One call: MatchBatch is defined as the same sequence of Match
		// calls, so how the vectors are cut into batches changes no result.
		s := cluster.NewStore().EnableMemo()
		s.MatchBatch(l.shorts, make([]*cluster.Template, len(l.shorts)), make([]bool, len(l.shorts)))
		l.counts["cluster.templates"] = float64(s.Len())
		l.counts["cluster.hit_rate"] = s.HitRate()
		l.counts["cluster.arena_bytes"] = float64(s.ArenaBytes())
		if s.Len() != len(l.ref.arch.ShortTemplates) {
			return fmt.Errorf("%d templates, the serial archive has %d", s.Len(), len(l.ref.arch.ShortTemplates))
		}
		return nil
	})

	l.stage("core.compress", func() error {
		c0 := cpuSeconds()
		a, err := core.Compress(e.tr, opts)
		l.sec["core.compress.cpu"] = append(l.sec["core.compress.cpu"], cpuSeconds()-c0)
		if err == nil && a.Flows() != l.ref.flows {
			err = fmt.Errorf("%d flows, want %d", a.Flows(), l.ref.flows)
		}
		return err
	})
	l.stage("core.stream", func() error {
		p, err := core.NewPipeline(opts, core.PipelineConfig{Workers: pipelineWorkers, Index: core.IndexConfig{Enabled: true}})
		if err != nil {
			return err
		}
		a, err := p.Compress(trace.Batches(e.tr, 0))
		if err == nil && a.Flows() != l.ref.flows {
			err = fmt.Errorf("%d flows, want %d", a.Flows(), l.ref.flows)
		}
		return err
	})
	l.stage("core.encode", func() error {
		sizes, err := l.ref.arch.Encode(io.Discard)
		if err != nil {
			return err
		}
		total := float64(sizes.Total())
		l.counts["core.archive_bytes"] = total
		l.counts["core.bytes_frac.templates"] = float64(sizes.ShortTemplates+sizes.LongTemplates) / total
		l.counts["core.bytes_frac.addresses"] = float64(sizes.Addresses) / total
		l.counts["core.bytes_frac.timeseq"] = float64(sizes.TimeSeq) / total
		l.counts["core.bytes_frac.index"] = float64(sizes.Index) / total
		if sizes.Total() != int64(len(l.ref.fz)) {
			return fmt.Errorf("encoded %d bytes, reference archive has %d", sizes.Total(), len(l.ref.fz))
		}
		return nil
	})
	l.stage("core.write", func() error {
		f, err := os.Create(e.fz)
		if err != nil {
			return err
		}
		if _, err := f.Write(l.ref.fz); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})

	var decoded *core.Archive
	l.stage("core.decode", func() error {
		a, err := decodeFile(e.fz)
		if err == nil && a.Flows() != l.ref.flows {
			err = fmt.Errorf("%d flows, want %d", a.Flows(), l.ref.flows)
		}
		decoded = a
		return err
	})
	if decoded == nil {
		return // nothing to read back; the failure is already counted
	}
	l.stage("core.decompress", func() error {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		out, err := core.Decompress(decoded)
		runtime.ReadMemStats(&m1)
		l.counts["core.decompress_alloc_b_per_pkt"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
		if err == nil && out.Len() != n {
			err = fmt.Errorf("%d packets, want %d", out.Len(), n)
		}
		return err
	})
	l.stage("core.decompress_par2", func() error {
		out, err := core.DecompressParallel(decoded, 2)
		if err == nil && out.Len() != n {
			err = fmt.Errorf("%d packets, want %d", out.Len(), n)
		}
		return err
	})

	var r *core.Reader
	l.stage("core.reader.open", func() error {
		var err error
		if r, err = core.OpenReaderFile(e.fz); err != nil {
			return err
		}
		l.counts["core.reader.open_bytes"] = float64(r.Stats().OpenBytes)
		l.counts["core.reader.groups"] = float64(r.IndexStats().Groups)
		return nil
	})
	if r != nil {
		defer r.Close()
		l.stage("core.reader.queries", func() error {
			lat := make([]float64, 0, len(l.ref.queries))
			for _, addr := range l.ref.queries {
				t0 := time.Now()
				out, err := r.ExtractFlows(core.FlowFilter{Prefix: addr, PrefixLen: 32})
				lat = append(lat, time.Since(t0).Seconds())
				if err != nil {
					return err
				}
				if out.Len() != l.ref.perAddr[addr] {
					return fmt.Errorf("extract %v: %d packets, want %d", addr, out.Len(), l.ref.perAddr[addr])
				}
			}
			st, q := r.Stats(), float64(len(l.ref.queries))
			l.sec["core.reader.query_p99"] = append(l.sec["core.reader.query_p99"], quantile(lat, 0.99))
			l.counts["core.reader.body_bytes_per_query"] = float64(st.BodyBytesRead) / q
			l.counts["core.reader.templates_loaded_per_query"] = float64(st.TemplatesLoaded) / q
			l.counts["core.reader.groups_per_query"] = float64(st.GroupsDecoded) / q
			return nil
		})
		l.stage("core.reader.window", func() error {
			// A window over 1% of the capture, in its middle: the same index
			// queried by its other key.
			first, last := e.tr.Packets[0].Timestamp, e.tr.Packets[n-1].Timestamp
			from := first + (last-first)/2
			_, err := r.ExtractFlows(core.FlowFilter{From: from, To: from + (last-first)/100 + 1})
			return err
		})
	}

	l.stage("dist.frame", l.frameStage)
	l.stage("server.ingest", func() error { return l.ingestStage(e.daemon.Addr().String(), true) })
	l.stage("server.ingest_rtt5", func() error { return l.ingestStage(e.proxy.Addr(), false) })
}

// frameStage is the wire layer alone: a SessionConn pair on loopback whose
// receiving end acks every batch at once and compresses nothing.
func (l *layerRun) frameStage() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	sink := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			sink <- err
			return
		}
		sc := dist.NewSessionConn(conn, dist.NetConfig{})
		defer sc.Close()
		sink <- func() error {
			if _, _, err := sc.Accept(); err != nil {
				return err
			}
			if err := sc.SendOpenOK(1, ingestWindow); err != nil {
				return err
			}
			var seq, packets int64
			for {
				ev, err := sc.Next()
				if err != nil {
					return err
				}
				if ev.Close {
					return sc.SendClosed(dist.SessionSummary{Packets: packets})
				}
				seq++
				packets += int64(len(ev.Batch))
				dist.ReleaseBatch(ev.Batch)
				if err := sc.SendAck(seq, packets); err != nil {
					return err
				}
			}
		}()
	}()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sent, err := l.send(ln.Addr().String(), "frame")
	runtime.ReadMemStats(&m1)
	ln.Close() // unblocks the sink if the client never connected
	if serr := <-sink; err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	l.counts["dist.frame_allocs_per_batch"] = float64(m1.Mallocs-m0.Mallocs) / float64(sent.batches)
	if sent.sum.Packets != int64(l.e.packets()) {
		return fmt.Errorf("sink counted %d packets, sent %d", sent.sum.Packets, l.e.packets())
	}
	return nil
}

// sendStats is what one send observed.
type sendStats struct {
	sum     dist.SessionSummary
	batches int
	blocked float64 // seconds inside the Sends that could wait for credit
	flush   float64 // seconds inside Close: last batch sent -> closing summary
}

// send streams the trace through server.Client, the loop ingest_mpps runs,
// timing every Send and the Close. Until window-1 batches are in flight a
// Send only serializes; from then on it also waits for the daemon's acks, so
// the time inside those Sends is, to within the serializing, the time the
// client was blocked on credit.
func (l *layerRun) send(addr, tenant string) (st sendStats, err error) {
	c, err := server.DialSession(addr, tenant, core.DefaultOptions(), dist.NetConfig{Window: ingestWindow})
	if err != nil {
		return st, err
	}
	p := l.e.tr.Packets
	for off := 0; off < len(p); off += ingestBatch {
		t0 := time.Now()
		if err := c.Send(p[off:min(off+ingestBatch, len(p))]); err != nil {
			c.Abort()
			return st, err
		}
		if st.batches++; st.batches >= c.Window() {
			st.blocked += time.Since(t0).Seconds()
		}
	}
	t0 := time.Now()
	st.sum, err = c.Close()
	st.flush = time.Since(t0).Seconds()
	return st, err
}

// ingestStage streams the trace into the daemon. On the loopback link it
// yields the flush, segment, ack and CPU numbers; behind the 5 ms proxy it
// yields the share of the client's time spent blocked on credit.
func (l *layerRun) ingestStage(addr string, loopback bool) error {
	e := l.e
	tenant := fmt.Sprintf("t%05d", e.tenants)
	e.tenants++
	acks := e.daemon.Metrics().AckSeconds
	ackN, ackSum := acks.Count(), acks.Sum()
	c0, t0 := cpuSeconds(), time.Now()
	sent, err := l.send(addr, tenant)
	wall, cpu := time.Since(t0).Seconds(), cpuSeconds()-c0
	if err != nil {
		return err
	}
	keep := func(name string, v float64) { l.sec[name] = append(l.sec[name], v) }
	if loopback {
		dn := acks.Count() - ackN
		if dn == 0 {
			return errors.New("the daemon's ack histogram did not advance")
		}
		keep("server.ack_mean", (acks.Sum()-ackSum)/float64(dn))
		keep("server.close_flush", sent.flush)
		keep("server.ingest.cpu", cpu)
		l.counts["server.segments"] = float64(sent.sum.Archives)
		l.counts["server.segment_bytes"] = float64(sent.sum.ArchiveBytes)
	} else {
		l.blockFrac = append(l.blockFrac, sent.blocked/wall)
	}
	return e.checkSegments(tenant, sent.sum)
}

// layerResult is one workload's per-layer outcome.
type layerResult struct {
	Workload    string           `json:"workload"`
	Repetitions int              `json:"repetitions"`
	Attempted   int              `json:"ops_attempted"`
	Failed      int              `json:"ops_failed"`
	Metrics     map[string]value `json:"metrics"`
}

// runLayers sets the workload up once and runs cfg.reps repetitions of the
// staged pass, recording spans on tracer under tid.
func runLayers(w workload, cfg runConfig, tracer *obs.Tracer, tid int64) (*layerResult, error) {
	e, _, err := setUp(w, cfg.seed, cfg.scale, filepath.Join(cfg.scratch, w.name+"-layers"))
	if err != nil {
		return nil, err
	}
	defer e.close()
	// Only this pass reads the TSH capture, so set-up does not write it.
	capture, err := encodeCapture(e.tr.Packets, tsh.WriteAll)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(e.tsh, capture, 0o644); err != nil {
		return nil, err
	}
	ref, err := buildReference(e, cfg.seed)
	if err != nil {
		return nil, err
	}
	l := &layerRun{e: e, ref: ref, tracer: tracer, tid: tid, sec: map[string][]float64{}, counts: map[string]float64{}}
	l.prepare()
	tracer.NameThread(tid, w.name)
	start, reps := time.Now(), 0
	for ; reps < cfg.reps && l.failed == 0; reps++ {
		l.repetition(reps)
	}
	l.passSeconds = time.Since(start).Seconds()
	res := &layerResult{Workload: w.name, Repetitions: reps, Attempted: l.attempted, Failed: l.failed}
	if l.failed == 0 {
		res.Metrics = l.metrics()
	}
	return res, nil
}

// metrics turns the stage samples into the staged table's metrics: the
// median over the repetitions.
func (l *layerRun) metrics() map[string]value {
	n, flows := float64(l.e.packets()), float64(l.ref.flows)
	unit := make(map[string]string, len(staged))
	for _, d := range staged {
		unit[d.Name] = d.Unit
	}
	m := make(map[string]value, len(staged))
	// scaled reports a stage's seconds times k.
	scaled := func(name, stage string, k float64) {
		m[name] = summarize(unit[name], l.sec[stage], func(sec float64) float64 { return sec * k })
	}
	one := func(name string, v float64) {
		m[name] = value{Value: v, Unit: unit[name], Q1: v, Q3: v, N: 1}
	}

	scaled("pcap.parse_ns_per_pkt", "pcap.parse", 1e9/n)
	scaled("tsh.parse_ns_per_pkt", "tsh.parse", 1e9/n)
	scaled("flow.table_ns_per_pkt", "flow.table", 1e9/n)
	scaled("flow.vector_ns_per_flow", "flow.vector", 1e9/flows)
	scaled("cluster.match_ns_per_flow", "cluster.match", 1e9/flows)
	scaled("core.compress_ns_per_pkt", "core.compress", 1e9/n)
	scaled("core.compress_cpu_ns_per_pkt", "core.compress.cpu", 1e9/n)
	scaled("core.stream_ns_per_pkt", "core.stream", 1e9/n)
	scaled("core.encode_ns_per_pkt", "core.encode", 1e9/n)
	scaled("core.write_ns_per_pkt", "core.write", 1e9/n)
	scaled("core.decode_ns_per_pkt", "core.decode", 1e9/n)
	scaled("core.decompress_ns_per_pkt", "core.decompress", 1e9/n)
	scaled("core.decompress_par2_ns_per_pkt", "core.decompress_par2", 1e9/n)
	scaled("dist.frame_ns_per_pkt", "dist.frame", 1e9/n)
	scaled("server.ingest_cpu_ns_per_pkt", "server.ingest.cpu", 1e9/n)
	scaled("core.reader.query_p99_us", "core.reader.query_p99", 1e6)
	scaled("core.reader.window_query_us", "core.reader.window", 1e6)
	scaled("server.close_flush_ms", "server.close_flush", 1e3)
	scaled("server.ack_mean_us", "server.ack_mean", 1e6)

	for name, v := range l.counts {
		one(name, v)
	}
	m["server.send_block_frac"] = summarize("ratio", l.blockFrac, func(x float64) float64 { return x })
	compress := median(l.sec["core.compress"])
	// What serial compress spends outside the three stages measured alone.
	self := compress - median(l.sec["flow.table"]) - median(l.sec["flow.vector"]) - median(l.sec["cluster.match"])
	one("core.finalize_self_ns_per_pkt", self*1e9/n)
	one("cluster.match_share", median(l.sec["cluster.match"])/compress)
	one("obs.trace_overhead_frac", float64(l.spans)*spanSeconds()/l.passSeconds)
	return m
}

// spanSeconds measures what recording one span costs, on a tracer of its
// own. The traced pass records spans only here, around the stages, so the
// share of its time spent tracing is its span count times this.
func spanSeconds() float64 {
	const n = 20000
	t := obs.NewTracer("overhead")
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.Span(0, "span").End()
	}
	return time.Since(t0).Seconds() / n
}
