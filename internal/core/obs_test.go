package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"flowzip/internal/obs"
	"flowzip/internal/trace"
)

// TestPipelineMetricsTransparent: attaching metrics must never change a
// single archive byte — the sampled store walk has to mirror the plain
// walk exactly — while the counters actually fill in. The store sampler reads
// the same at every worker count: the merge makes the serial compressor's
// Match calls, one per short flow, and no other store exists. The distinct
// trace founds a template for nearly every flow, so its walks reject by the
// sum bound and reach the distance kernel.
func TestPipelineMetricsTransparent(t *testing.T) {
	for _, tr := range []*trace.Trace{fractalTrace(77, 4000), distinctTrace(7, 600)} {
		var serial [7]int64
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s workers=%d", tr.Name, workers)
			plain, err := pipeTrace(tr, DefaultOptions(), PipelineConfig{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			want := encodeBytes(t, plain)

			reg := obs.NewRegistry()
			m := NewPipelineMetrics(reg, "pipeline")
			p, err := NewPipeline(DefaultOptions(), PipelineConfig{Workers: workers, Metrics: m})
			if err != nil {
				t.Fatal(err)
			}
			arch, err := p.CompressTrace(tr)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeBytes(t, arch), want) {
				t.Errorf("%s: archive differs with metrics attached", name)
			}

			if got := m.Packets.Load(); got != int64(tr.Len()) {
				t.Errorf("%s: packets counter = %d, want %d", name, got, tr.Len())
			}
			if m.Batches.Load() == 0 {
				t.Errorf("%s: batches counter stayed zero", name)
			}
			if m.BatchSeconds.Count() == 0 {
				t.Errorf("%s: batch histogram empty", name)
			}
			if m.Store.Lookups.Load() == 0 {
				t.Errorf("%s: store sampler saw no lookups", name)
			}
			if m.Store.Creates.Load() == 0 {
				t.Errorf("%s: store sampler saw no template creates", name)
			}
			st := m.Store
			counts := [7]int64{st.Lookups.Load(), st.SumRejects.Load(), st.DistCalls.Load(), st.MemoHits.Load(),
				st.Matches.Load(), st.Creates.Load(), st.ArenaBytes.Load()}
			if workers == 1 {
				serial = counts
			} else if counts != serial {
				t.Errorf("%s: store sampler (lookups, sum rejects, dist calls, memo hits, matches, creates, arena bytes) = %v, workers=1 %v",
					name, counts, serial)
			}
			if workers > 1 {
				short := int64(0)
				for _, rec := range arch.TimeSeq {
					if !rec.Long {
						short++
					}
				}
				if got := m.MergeMatchCalls.Load(); got != short {
					t.Errorf("%s: merge match calls = %d, want one per short flow, %d", name, got, short)
				}
			}

			// The registry renders the full series set, strict-lintable.
			var page bytes.Buffer
			if err := reg.Render(&page); err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(page.Bytes(), []byte("pipeline_store_lookups_total")) {
				t.Errorf("%s: sampled store series missing from render", name)
			}
		}
	}
}

// TestPipelineMetricsStream: the streaming entry point feeds the same
// counter set.
func TestPipelineMetricsStream(t *testing.T) {
	tr := fractalTrace(78, 3000)
	reg := obs.NewRegistry()
	m := NewPipelineMetrics(reg, "pipeline")
	p, err := NewPipeline(DefaultOptions(), PipelineConfig{Workers: 4, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Compress(trace.Batches(tr, 256)); err != nil {
		t.Fatal(err)
	}
	if got := m.Packets.Load(); got != int64(tr.Len()) {
		t.Errorf("packets counter = %d, want %d", got, tr.Len())
	}
	if got := m.Batches.Load(); got == 0 {
		t.Error("batches counter stayed zero")
	}
	if m.ResidentPeak.Load() == 0 {
		t.Error("resident peak gauge stayed zero")
	}
}

// TestPipelineMetricsSharedResidency: concurrent runs sharing one metrics
// set (as the daemon's sessions do) add into one residency gauge. Each run
// still produces its serial bytes; once all have finished nothing is
// resident, and the peak is what the runs held together — above zero, at
// most one streamWindow per run, though each run streams more than that.
func TestPipelineMetricsSharedResidency(t *testing.T) {
	const runs = 4
	m := NewPipelineMetrics(obs.NewRegistry(), "pipeline")
	p, err := NewPipeline(DefaultOptions(), PipelineConfig{Workers: 2, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]*trace.Trace, runs)
	want := make([][]byte, runs)
	for i := range traces {
		traces[i] = fractalTrace(uint64(90+i), 2*streamWindow)
		serial, err := Compress(traces[i], DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = encodeBytes(t, serial)
	}
	got := make([][]byte, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range traces {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var arch *Archive
			if arch, errs[i] = p.Compress(trace.Batches(traces[i], 64)); errs[i] == nil {
				var b bytes.Buffer
				_, errs[i] = arch.Encode(&b)
				got[i] = b.Bytes()
			}
		}(i)
	}
	wg.Wait()
	for i := range traces {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("run %d: archive differs from serial", i)
		}
	}
	if r := m.Resident.Load(); r != 0 {
		t.Errorf("resident = %d after every run finished, want 0", r)
	}
	if peak := m.ResidentPeak.Load(); peak <= 0 || peak > runs*streamWindow {
		t.Errorf("resident peak %d outside (0, %d]", peak, runs*streamWindow)
	}
}

type traceDoc struct {
	TraceEvents []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Tid  int64  `json:"tid"`
		Ts   int64  `json:"ts"`
		Dur  int64  `json:"dur"`
	} `json:"traceEvents"`
}

// TestPipelineTraceSpans drives both pipeline entry points with a tracer
// and checks the emitted timeline: the expected span names exist and
// every span on the pipeline thread is contained in the enclosing
// "compress" span (the property that makes the trace readable in
// Perfetto).
func TestPipelineTraceSpans(t *testing.T) {
	tr := fractalTrace(79, 3000)
	for _, mode := range []string{"trace", "stream"} {
		tc := obs.NewTracer("test")
		p, err := NewPipeline(DefaultOptions(), PipelineConfig{Workers: 4, Trace: tc})
		if err != nil {
			t.Fatal(err)
		}
		if mode == "trace" {
			_, err = p.CompressTrace(tr)
		} else {
			_, err = p.Compress(trace.Batches(tr, 256))
		}
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := tc.Write(&b); err != nil {
			t.Fatal(err)
		}
		var doc traceDoc
		if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
			t.Fatalf("%s: trace not valid JSON: %v", mode, err)
		}

		spans := map[string]int{}
		var compressStart, compressEnd int64
		for _, ev := range doc.TraceEvents {
			if ev.Ph != "X" {
				continue
			}
			spans[ev.Name]++
			if ev.Name == "compress" {
				compressStart, compressEnd = ev.Ts, ev.Ts+ev.Dur
			}
		}
		want := []string{"compress", "shard-compress", "finalize", "merge"}
		if mode == "trace" {
			want = append(want, "partition")
		}
		for _, name := range want {
			if spans[name] == 0 {
				t.Errorf("%s: no %q span in trace (have %v)", mode, name, spans)
			}
		}
		if spans["shard-compress"] != 4 || spans["finalize"] != 4 {
			t.Errorf("%s: want 4 shard-compress + 4 finalize spans, have %v", mode, spans)
		}
		for _, ev := range doc.TraceEvents {
			if ev.Ph != "X" || ev.Name == "compress" {
				continue
			}
			if ev.Ts < compressStart || ev.Ts+ev.Dur > compressEnd {
				t.Errorf("%s: span %q [%d,%d] outside compress [%d,%d]",
					mode, ev.Name, ev.Ts, ev.Ts+ev.Dur, compressStart, compressEnd)
			}
		}
	}
}

// TestReaderObservability: the indexed read path counts what it read in
// Stats and emits extract spans, without changing query results.
func TestReaderObservability(t *testing.T) {
	tr := fractalTrace(80, 3000)
	p, err := NewPipeline(DefaultOptions(), PipelineConfig{Workers: 1, Index: IndexConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := p.CompressTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if _, err := arch.Encode(&blob); err != nil {
		t.Fatal(err)
	}

	tc := obs.NewTracer("test")
	r, err := OpenReader(bytes.NewReader(blob.Bytes()), int64(blob.Len()))
	if err != nil {
		t.Fatal(err)
	}
	r.SetTracer(tc)

	got, err := r.ExtractFlows(FlowFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("extract returned %d packets, want %d", got.Len(), tr.Len())
	}
	first := r.Stats()
	if first.GroupsDecoded == 0 || first.BodyBytesRead == 0 {
		t.Errorf("group/body counters stayed zero: %+v", first)
	}
	if first.FlowsMatched == 0 {
		t.Error("flows matched counter stayed zero")
	}
	if first.TemplatesLoaded == 0 {
		t.Error("templates loaded counter stayed zero")
	}

	// A second query hits the per-reader template cache and group memory:
	// nothing is decoded or read again.
	if _, err := r.ExtractFlows(FlowFilter{}); err != nil {
		t.Fatal(err)
	}
	second := r.Stats()
	if second.GroupsDecoded != first.GroupsDecoded || second.BodyBytesRead != first.BodyBytesRead || second.BytesRead != first.BytesRead {
		t.Errorf("second extract read again: %+v -> %+v", first, second)
	}
	if second.TemplatesLoaded != first.TemplatesLoaded {
		t.Errorf("second extract reloaded templates: %d -> %d", first.TemplatesLoaded, second.TemplatesLoaded)
	}
	if second.FlowsMatched != 2*first.FlowsMatched {
		t.Errorf("flows matched %d after two extracts of %d", second.FlowsMatched, first.FlowsMatched)
	}

	var b bytes.Buffer
	if err := tc.Write(&b); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	extracts := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "extract" {
			extracts++
		}
	}
	if extracts != 2 {
		t.Errorf("extract spans = %d, want 2", extracts)
	}
}
