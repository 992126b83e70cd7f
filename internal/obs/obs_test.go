package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestObsDisabledZeroAlloc pins the cost of disabled observability: every
// instrument reached through a nil registry or nil tracer must be a branch,
// never an allocation, so hot paths can stay instrumented unconditionally.
func TestObsDisabledZeroAlloc(t *testing.T) {
	var reg *Registry // disabled: nil registry hands out nil instruments
	c := reg.Counter("x_total", "")
	g := reg.Gauge("x", "")
	h := reg.Histogram("x_seconds", "", DefaultLatencyBuckets)
	v := reg.CounterVec("x_by_y_total", "", "y")
	if c != nil || g != nil || h != nil || v != nil {
		t.Fatal("nil registry must return nil instruments")
	}
	var tr *Tracer

	cases := map[string]func(){
		"counter.Add":   func() { c.Add(1) },
		"counter.Inc":   func() { c.Inc() },
		"gauge.Max":     func() { g.Max(42) },
		"hist.Observe":  func() { h.Observe(0.01) },
		"vec.Add":       func() { v.Add("tenant", 1) },
		"span":          func() { tr.Span(0, "work").ArgInt("n", 1).ArgStr("k", "v").End() },
		"instant":       func() { tr.Instant(0, "mark") },
		"registry.Fn":   func() { reg.CounterFunc("f_total", "", func() float64 { return 0 }) },
		"tracer.Thread": func() { tr.NameThread(0, "t") },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op when disabled, want 0", name, allocs)
		}
	}
}

// TestRegistryConcurrent hammers one registry from 8 writers (the pipeline
// worker count) while a reader renders, for the race detector.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "help")
	g := reg.Gauge("g", "help")
	h := reg.Histogram("h_seconds", "help", DefaultLatencyBuckets)
	v := reg.CounterVec("v_total", "help", "worker")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				g.Max(int64(i))
				h.Observe(float64(i) / 1000)
				v.Add("w", 1)
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		if err := reg.Render(&bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := h.Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
	if got := v.child("w").Load(); got != 8000 {
		t.Errorf("vec = %d, want 8000", got)
	}
}

// TestRegistryRender pins the exposition format: HELP/TYPE headers,
// registration order, label escaping, cumulative histogram buckets.
func TestRegistryRender(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "A counter.").Add(3)
	reg.Gauge("b", "A gauge.").Add(-2)
	v := reg.CounterVec("c_total", "A family.", "tenant")
	v.Add("lab-b", 7)
	v.Add(`evil"quote\slash`+"\nline", 1)
	h := reg.Histogram("d_seconds", "A histogram.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(99)

	var b bytes.Buffer
	if err := reg.Render(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP a_total A counter.
# TYPE a_total counter
a_total 3
# HELP b A gauge.
# TYPE b gauge
b -2
# HELP c_total A family.
# TYPE c_total counter
c_total{tenant="evil\"quote\\slash\nline"} 1
c_total{tenant="lab-b"} 7
# HELP d_seconds A histogram.
# TYPE d_seconds histogram
d_seconds_bucket{le="0.1"} 1
d_seconds_bucket{le="1"} 2
d_seconds_bucket{le="+Inf"} 3
d_seconds_sum 99.55
d_seconds_count 3
`
	if got := b.String(); got != want {
		t.Errorf("render mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegistryIdempotent: re-registering the same name+kind returns the
// same instrument; a kind clash panics.
func TestRegistryIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "help")
	b := reg.Counter("x_total", "other help")
	if a != b {
		t.Error("same name+kind must return the same counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind clash did not panic")
		}
	}()
	reg.Gauge("x_total", "help")
}

// TestTracerJSON checks the trace is well-formed Chrome trace-event JSON
// and that span ordering lets a viewer nest children under parents: on
// one tid, an enclosing span must precede the spans it contains.
func TestTracerJSON(t *testing.T) {
	tr := NewTracer("test process")
	tr.NameThread(0, "pipeline")
	outer := tr.Span(0, "outer").ArgStr("mode", "test")
	inner := tr.Span(0, "inner").ArgInt("n", 7)
	inner.End()
	tr.Instant(1, "mark")
	outer.End()

	var b bytes.Buffer
	if err := tr.Write(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int64          `json:"tid"`
			Ts   int64          `json:"ts"`
			Dur  *int64         `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 5 { // process_name, thread_name, outer, inner, mark
		t.Fatalf("got %d events, want 5", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Name != "process_name" || doc.TraceEvents[0].Ph != "M" {
		t.Errorf("first event %+v, want process_name metadata", doc.TraceEvents[0])
	}
	var outerIdx, innerIdx = -1, -1
	for i, ev := range doc.TraceEvents {
		switch ev.Name {
		case "outer":
			outerIdx = i
		case "inner":
			innerIdx = i
		}
		if ev.Ph == "X" && ev.Dur == nil {
			t.Errorf("complete event %q missing dur", ev.Name)
		}
	}
	if outerIdx < 0 || innerIdx < 0 || outerIdx > innerIdx {
		t.Fatalf("outer (idx %d) must precede inner (idx %d)", outerIdx, innerIdx)
	}
	o, in := doc.TraceEvents[outerIdx], doc.TraceEvents[innerIdx]
	if in.Ts < o.Ts || in.Ts+*in.Dur > o.Ts+*o.Dur {
		t.Errorf("inner [%d,%d] not contained in outer [%d,%d]",
			in.Ts, in.Ts+*in.Dur, o.Ts, o.Ts+*o.Dur)
	}
	if o.Args["mode"] != "test" || in.Args["n"] != float64(7) {
		t.Errorf("span args lost: outer=%v inner=%v", o.Args, in.Args)
	}
}

// TestRuntimeMetrics: the runtime sampler registers and renders live
// values (goroutines is always >= 1).
func TestRuntimeMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	var b bytes.Buffer
	if err := reg.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"go_goroutines", "go_heap_objects_bytes", "go_gc_cycles_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime metrics missing %s:\n%s", want, out)
		}
	}
	var gor float64
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "go_goroutines "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			gor = v
		}
	}
	if gor < 1 {
		t.Errorf("go_goroutines = %v, want >= 1", gor)
	}
}
