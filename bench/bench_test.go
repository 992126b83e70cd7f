package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"flowzip"
	"flowzip/internal/obs"
)

// smokeScale shrinks every workload fifty-fold so the whole suite runs in
// seconds.
const smokeScale = 1.0 / 50

func smokeConfig(t *testing.T, seed uint64) runConfig {
	return runConfig{seed: seed, scale: smokeScale, rounds: 1, reps: 1, scratch: t.TempDir()}
}

// TestGeneratorsPinned pins each generator's output for seeds 1 and 2: the
// packet and flow counts a seed gives must never change, because results are
// only comparable across commits if the inputs are.
func TestGeneratorsPinned(t *testing.T) {
	want := map[string][2][2]int{ // workload -> seed 1, seed 2 -> packets, flows
		"web":      {{4858, 1000}, {4858, 1000}}, // one flow population, relabelled and re-timed by the seed
		"distinct": {{6490, 180}, {6465, 180}},
		"bulk":     {{7089, 2}, {7375, 2}},
		"scan":     {{2000, 2000}, {2000, 2000}},
	}
	for _, w := range workloads {
		for i, seed := range []uint64{1, 2} {
			tr := w.gen(seed, smokeScale)
			if !tr.IsSorted() {
				t.Errorf("%s seed %d: not timestamp-sorted", w.name, seed)
			}
			if again := w.gen(seed, smokeScale); !reflect.DeepEqual(tr.Packets, again.Packets) {
				t.Errorf("%s seed %d: two generations differ", w.name, seed)
			}
			a, err := flowzip.Compress(tr, flowzip.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if err := w.shape(a); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
			if got := [2]int{tr.Len(), a.Flows()}; got != want[w.name][i] {
				t.Errorf("%s seed %d: %d packets in %d flows, pinned %v", w.name, seed, got[0], got[1], want[w.name][i])
			}
		}
	}
	if a, b := genWeb(1, smokeScale), genWeb(2, smokeScale); reflect.DeepEqual(a.Packets, b.Packets) {
		t.Error("web: seeds 1 and 2 give the same trace")
	}
}

// benchmarkJSON is the part of ../BENCHMARK.json the tables in metrics.go and
// workloads.go must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricDef                  `json:"end_to_end"`
	PerLayer  []metricDef                  `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func checkValues(t *testing.T, what string, defs []metricDef, got map[string]value, allowZero map[string]bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(got), len(defs))
	}
	for _, d := range defs {
		v, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s was not emitted", what, d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", what, d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %v", what, d.Name, v.Value)
		case v.Value <= 0 && !allowZero[d.Name]:
			t.Errorf("%s: %s = %v, want a positive value", what, d.Name, v.Value)
		}
	}
}

// TestSmoke runs every workload end to end at 1/50 scale for one round and
// holds what it emits against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from metrics.go:\n%v\n%v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from metrics.go")
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, workloads.go %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, workloads.go %q", i, doc.Workloads[i].Name, w.name)
		}
		res, err := runEndToEnd(w, smokeConfig(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Attempted == 0 || res.Rounds != 1 {
			t.Errorf("%s: %d of %d operations failed in %d rounds", w.name, res.Failed, res.Attempted, res.Rounds)
		}
		checkValues(t, w.name, append(append([]metricDef(nil), endToEnd...), unbounded...), res.Metrics, nil)
	}
}

type traceFile struct {
	TraceEvents []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Tid  int64  `json:"tid"`
		Ts   int64  `json:"ts"`
		Dur  int64  `json:"dur"`
	} `json:"traceEvents"`
}

// TestTracedPass runs the staged per-layer pass on two workloads at 1/50
// scale and checks both its metrics and the trace it writes: the JSON loads,
// every stage span lies inside a workload span of its own thread, and the
// stages account for the workload span's time to within 10%.
func TestTracedPass(t *testing.T) {
	tracer := obs.NewTracer("bench test")
	// Layers that have nothing to do on a workload legitimately read zero.
	allowZero := map[string]bool{
		"cluster.match_ns_per_flow": true, "cluster.templates": true, "cluster.hit_rate": true,
		"cluster.arena_bytes": true, "cluster.match_share": true, "obs.trace_overhead_frac": true,
		"core.finalize_self_ns_per_pkt": true, "server.send_block_frac": true,
	}
	for i, name := range []string{"web", "bulk"} {
		w, _ := workloadByName(name)
		res, err := runLayers(w, smokeConfig(t, 2), tracer, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Repetitions != 1 {
			t.Errorf("%s: %d of %d stages failed in %d repetitions", name, res.Failed, res.Attempted, res.Repetitions)
		}
		checkValues(t, name, staged, res.Metrics, allowZero)
	}

	var buf bytes.Buffer
	if err := tracer.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace does not load: %v", err)
	}
	type span struct{ ts, end, children int64 }
	workloadSpans := map[int64]*span{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" && strings.HasPrefix(ev.Name, "workload:") {
			workloadSpans[ev.Tid] = &span{ts: ev.Ts, end: ev.Ts + ev.Dur}
		}
	}
	if len(workloadSpans) != 2 {
		t.Fatalf("%d workload spans, want one on each of 2 threads", len(workloadSpans))
	}
	stages := 0
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" || strings.HasPrefix(ev.Name, "workload:") {
			continue
		}
		w := workloadSpans[ev.Tid]
		if w == nil || ev.Ts < w.ts || ev.Ts+ev.Dur > w.end {
			t.Errorf("span %s on thread %d lies outside its workload span", ev.Name, ev.Tid)
			continue
		}
		w.children += ev.Dur
		stages++
	}
	if stages < 2*18 {
		t.Errorf("%d stage spans recorded, want at least 18 per workload", stages)
	}
	for tid, w := range workloadSpans {
		if total := w.end - w.ts; float64(w.children) < 0.9*float64(total) || w.children > total {
			t.Errorf("thread %d: stages cover %d us of a %d us workload span", tid, w.children, total)
		}
	}
}

func TestSummarizeReportsTheMedian(t *testing.T) {
	seconds := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	v := summarize("1/s", seconds, func(s float64) float64 { return 1 / s })
	if v.Value != 1.0/5 || v.Q1 != 1.0/7 || v.Q3 != 1.0/3 || v.N != 9 {
		t.Errorf("%+v, want the median 1/5 between the quartiles 1/7 and 1/3 of 9 samples", v)
	}
}

// TestRoundsComeFromSeconds: the amount of work is fixed by -seconds before
// the run starts, so both sides of a comparison do the same.
func TestRoundsComeFromSeconds(t *testing.T) {
	if cfg := newRunConfig(1, 20, ""); cfg.rounds != 10 || cfg.reps != 3 || cfg.scale != 1 {
		t.Errorf("20 seconds give %+v, want 10 rounds and 3 repetitions at full scale", cfg)
	}
	if cfg := newRunConfig(1, 0.5, ""); cfg.rounds != 1 || cfg.reps != 1 {
		t.Errorf("0.5 seconds give %+v, want one round and one repetition", cfg)
	}
}
