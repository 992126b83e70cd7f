package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"testing"

	"flowzip/internal/obs"
	"flowzip/internal/trace"
)

// TestPipelineMetricsTransparent: attaching metrics must never change a
// single archive byte — the sampled store walk has to mirror the plain
// walk exactly — while the counters actually fill in. The store sampler reads
// the same in one stage and in two: one recorder makes the run's Match calls,
// one per short flow (matches plus creates), and no other store exists. The distinct trace founds a template for nearly every flow, so its
// walks reject by the sum bound and reach the distance kernel.
func TestPipelineMetricsTransparent(t *testing.T) {
	for _, tr := range []*trace.Trace{fractalTrace(77, 4000), distinctTrace(7, 600)} {
		plain, err := Compress(tr, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want := encodeBytes(t, plain)
		short := int64(0)
		for _, rec := range plain.TimeSeq {
			if !rec.Long {
				short++
			}
		}
		var counts [2][7]int64
		for i := range counts {
			stages := i + 1
			name := fmt.Sprintf("%s, %d stages", tr.Name, stages)
			reg := obs.NewRegistry()
			m := NewPipelineMetrics(reg, "pipeline")
			p, err := NewPipeline(DefaultOptions(), PipelineConfig{Metrics: m})
			if err != nil {
				t.Fatal(err)
			}
			arch, err := p.run(trace.Batches(tr, 0), stages)
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
			st := m.Store
			if st.Lookups.Load() == 0 {
				t.Errorf("%s: store sampler saw no lookups", name)
			}
			if st.Creates.Load() == 0 {
				t.Errorf("%s: store sampler saw no template creates", name)
			}
			if got := st.Matches.Load() + st.Creates.Load(); got != short {
				t.Errorf("%s: %d Match calls (matches plus creates), want one per short flow, %d", name, got, short)
			}
			counts[i] = [7]int64{st.Lookups.Load(), st.SumRejects.Load(), st.DistCalls.Load(), st.MemoHits.Load(),
				st.Matches.Load(), st.Creates.Load(), st.ArenaBytes.Load()}

			// The registry renders the full series set, strict-lintable.
			var page bytes.Buffer
			if err := reg.Render(&page); err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(page.Bytes(), []byte("pipeline_store_lookups_total")) {
				t.Errorf("%s: sampled store series missing from render", name)
			}
		}
		if counts[0] != counts[1] {
			t.Errorf("%s: store sampler (lookups, sum rejects, dist calls, memo hits, matches, creates, arena bytes) = %v in two stages, %v in one",
				tr.Name, counts[1], counts[0])
		}
	}
}

// TestPipelineMetricsStream: the streaming entry point feeds the same
// counter set, a batch at a time.
func TestPipelineMetricsStream(t *testing.T) {
	tr := fractalTrace(78, 3000)
	reg := obs.NewRegistry()
	m := NewPipelineMetrics(reg, "pipeline")
	p, err := NewPipeline(DefaultOptions(), PipelineConfig{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Compress(trace.Batches(tr, 256)); err != nil {
		t.Fatal(err)
	}
	if got := m.Packets.Load(); got != int64(tr.Len()) {
		t.Errorf("packets counter = %d, want %d", got, tr.Len())
	}
	if got, want := m.Batches.Load(), int64((tr.Len()+255)/256); got != want {
		t.Errorf("batches counter = %d, want %d", got, want)
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

// TestPipelineTraceSpans runs one stage and two with a tracer and checks the
// emitted timeline: one compress and one table span in either run, one record
// span in a two-stage run, and every other span contained in the compress
// span (the property that makes the trace readable in Perfetto).
func TestPipelineTraceSpans(t *testing.T) {
	tr := fractalTrace(79, 3000)
	for stages := 1; stages <= 2; stages++ {
		schedule := fmt.Sprintf("%d stages", stages)
		tc := obs.NewTracer("test")
		p, err := NewPipeline(DefaultOptions(), PipelineConfig{Trace: tc})
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int{"compress": 1, "table": 1}
		if stages == 2 {
			want["record"] = 1
		}
		if _, err := p.run(trace.Batches(tr, 256), stages); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := tc.Write(&b); err != nil {
			t.Fatal(err)
		}
		var doc traceDoc
		if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
			t.Fatalf("%s: trace not valid JSON: %v", schedule, err)
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
		if !maps.Equal(spans, want) {
			t.Errorf("%s: spans %v, want %v", schedule, spans, want)
		}
		for _, ev := range doc.TraceEvents {
			if ev.Ph != "X" || ev.Name == "compress" {
				continue
			}
			if ev.Ts < compressStart || ev.Ts+ev.Dur > compressEnd {
				t.Errorf("%s: span %q [%d,%d] outside compress [%d,%d]",
					schedule, ev.Name, ev.Ts, ev.Ts+ev.Dur, compressStart, compressEnd)
			}
		}
	}
}

// TestReaderObservability: the indexed read path counts what it read in
// Stats and emits extract spans, without changing query results.
func TestReaderObservability(t *testing.T) {
	tr := fractalTrace(80, 3000)
	p, err := NewPipeline(DefaultOptions(), PipelineConfig{Index: IndexConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := p.Compress(trace.Batches(tr, 0))
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
