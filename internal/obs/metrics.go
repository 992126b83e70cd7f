package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. All methods are
// safe on a nil receiver: a nil Counter costs one branch per call and
// performs no allocation, so hot paths can be instrumented unconditionally.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Load returns the current value (0 for a nil Counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an integer metric that can go up and down.
// Safe on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Add adjusts the gauge by n (may be negative) and returns the new value
// (0 for a nil Gauge).
func (g *Gauge) Add(n int64) int64 {
	if g == nil {
		return 0
	}
	return g.v.Add(n)
}

// Load returns the current value (0 for a nil Gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram of float64 observations.
// Buckets are cumulative at render time, matching Prometheus semantics.
// Safe on a nil receiver.
type Histogram struct {
	bounds []float64      // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// DefaultLatencyBuckets spans 100µs to 10s, suitable for batch and segment
// latencies across the pipeline.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 for a nil Histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 for a nil Histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// CounterVec is a family of counters keyed by a single label value,
// e.g. per-tenant byte counts. Safe on a nil receiver.
type CounterVec struct {
	label    string
	mu       sync.Mutex
	children map[string]*Counter
}

// child returns the counter for the given label value, creating it on
// first use. Returns nil on a nil receiver.
func (v *CounterVec) child(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.Lock()
	c, ok := v.children[value]
	if !ok {
		c = &Counter{}
		v.children[value] = c
	}
	v.mu.Unlock()
	return c
}

// Add increments the counter for the given label value by n.
func (v *CounterVec) Add(value string, n int64) {
	v.child(value).Add(n)
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterVec
	kindGaugeFunc
	kindCounterFunc
)

func (k metricKind) typeName() string {
	switch k {
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

type metric struct {
	name string
	help string
	kind metricKind

	c   *Counter
	g   *Gauge
	h   *Histogram
	vec *CounterVec
	fn  func() float64
}

// Registry holds a set of named instruments and renders them in
// Prometheus text exposition format (0.0.4). Series are rendered in
// registration order so output is deterministic and existing scrapers
// keep seeing series in the order they always have. All constructors are
// safe on a nil receiver and return nil instruments, so a single
// "registry == nil when disabled" decision propagates to every call site.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

func (r *Registry) register(name, help string, kind metricKind) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		if m.kind != kind {
			panic("obs: metric " + name + " re-registered with a different type")
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind}
	r.metrics = append(r.metrics, m)
	r.byName[name] = m
	return m
}

// Counter registers (or returns the existing) counter with the given name.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	m := r.register(name, help, kindCounter)
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge registers (or returns the existing) gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.register(name, help, kindGauge)
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// Histogram registers (or returns the existing) histogram with the given
// bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	m := r.register(name, help, kindHistogram)
	if m.h == nil {
		m.h = newHistogram(bounds)
	}
	return m.h
}

// CounterVec registers (or returns the existing) counter family keyed by
// the given label name.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if r == nil {
		return nil
	}
	m := r.register(name, help, kindCounterVec)
	if m.vec == nil {
		m.vec = &CounterVec{label: label, children: make(map[string]*Counter)}
	}
	return m.vec
}

// GaugeFunc registers a gauge whose value is sampled at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	m := r.register(name, help, kindGaugeFunc)
	m.fn = fn
}

// CounterFunc registers a counter whose value is sampled at render time.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	m := r.register(name, help, kindCounterFunc)
	m.fn = fn
}

// escapeLabel escapes a label value per the Prometheus exposition format:
// backslash, double quote and newline are escaped; everything else passes
// through verbatim.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Render writes every registered series in Prometheus text format, in
// registration order. It is safe to call concurrently with metric updates.
func (r *Registry) Render(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, m := range metrics {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind.typeName())
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(bw, "%s %d\n", m.name, m.c.Load())
		case kindGauge:
			fmt.Fprintf(bw, "%s %d\n", m.name, m.g.Load())
		case kindGaugeFunc, kindCounterFunc:
			fmt.Fprintf(bw, "%s %s\n", m.name, formatFloat(m.fn()))
		case kindCounterVec:
			m.vec.mu.Lock()
			values := make([]string, 0, len(m.vec.children))
			for v := range m.vec.children {
				values = append(values, v)
			}
			sort.Strings(values)
			for _, v := range values {
				fmt.Fprintf(bw, "%s{%s=\"%s\"} %d\n", m.name, m.vec.label, escapeLabel(v), m.vec.children[v].Load())
			}
			m.vec.mu.Unlock()
		case kindHistogram:
			h := m.h
			var cum int64
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(bw, "%s_bucket{le=\"%s\"} %d\n", m.name, formatFloat(bound), cum)
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum)
			fmt.Fprintf(bw, "%s_sum %s\n", m.name, formatFloat(h.Sum()))
			fmt.Fprintf(bw, "%s_count %d\n", m.name, cum)
		}
	}
	return bw.Flush()
}
