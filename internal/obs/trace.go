package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Tracer collects timed spans and serializes them as Chrome trace-event
// JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Spans created from a nil Tracer are inert: every method on them is a
// nil check and nothing else, so tracing call sites can stay in place
// permanently.
type Tracer struct {
	process string
	start   time.Time

	mu     sync.Mutex
	events []traceEvent
}

type traceArg struct {
	key   string
	str   string
	num   int64
	isStr bool
}

type traceEvent struct {
	name string
	ph   byte // 'X' complete, 'M' metadata
	tid  int64
	ts   int64 // µs since tracer start
	dur  int64 // µs, 'X' only
	args []traceArg
}

// NewTracer returns a tracer whose timestamps are relative to now.
// The process name labels the whole trace in the viewer.
func NewTracer(process string) *Tracer {
	return &Tracer{process: process, start: time.Now()}
}

// Span is an in-flight timed region. The zero Span (from a nil Tracer)
// is valid and inert. Arg methods use a builder style so the Span can
// stay a value type:
//
//	sp := tr.Span(0, "table").ArgInt("packets", n)
//	defer sp.End()
type Span struct {
	t     *Tracer
	name  string
	tid   int64
	start time.Time
	args  []traceArg
}

// Span starts a span on the given virtual thread (tid). Spans on the
// same tid nest by time containment in the viewer.
func (t *Tracer) Span(tid int64, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, tid: tid, start: time.Now()}
}

// ArgInt attaches an integer argument to the span.
func (s Span) ArgInt(key string, v int64) Span {
	if s.t == nil {
		return s
	}
	s.args = append(s.args, traceArg{key: key, num: v})
	return s
}

// End records the span. Must be called at most once.
func (s Span) End() {
	if s.t == nil {
		return
	}
	// Truncate both endpoints to the µs grid and derive the duration from
	// them, rather than truncating ts and dur independently: with separate
	// truncations a nested span's ts+dur could exceed its enclosing span's
	// by a microsecond, breaking time containment in the viewer.
	ts := s.start.Sub(s.t.start).Microseconds()
	end := time.Since(s.t.start).Microseconds()
	ev := traceEvent{
		name: s.name,
		ph:   'X',
		tid:  s.tid,
		ts:   ts,
		dur:  end - ts,
		args: s.args,
	}
	s.t.mu.Lock()
	s.t.events = append(s.t.events, ev)
	s.t.mu.Unlock()
}

// NameThread labels a tid in the viewer (e.g. "record").
func (t *Tracer) NameThread(tid int64, name string) {
	if t == nil {
		return
	}
	ev := traceEvent{
		name: "thread_name",
		ph:   'M',
		tid:  tid,
		args: []traceArg{{key: "name", str: name, isStr: true}},
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

type jsonTraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Ts   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// Write serializes the trace as {"traceEvents":[...]}. Events are
// sorted by (tid, ts, longest-first) so enclosing spans precede the
// spans they contain.
func (t *Tracer) Write(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	events := make([]traceEvent, len(t.events))
	copy(events, t.events)
	t.mu.Unlock()

	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if (a.ph == 'M') != (b.ph == 'M') {
			return a.ph == 'M'
		}
		if a.tid != b.tid {
			return a.tid < b.tid
		}
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		return a.dur > b.dur
	})

	out := struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []jsonTraceEvent `json:"traceEvents"`
	}{DisplayTimeUnit: "ms"}

	out.TraceEvents = append(out.TraceEvents, jsonTraceEvent{
		Name: "process_name", Ph: "M",
		Args: map[string]any{"name": t.process},
	})
	for _, ev := range events {
		je := jsonTraceEvent{Name: ev.name, Ph: string(ev.ph), Tid: ev.tid, Ts: ev.ts}
		if ev.ph == 'X' {
			dur := ev.dur
			je.Dur = &dur
		}
		if len(ev.args) > 0 {
			je.Args = make(map[string]any, len(ev.args))
			for _, a := range ev.args {
				if a.isStr {
					je.Args[a.key] = a.str
				} else {
					je.Args[a.key] = a.num
				}
			}
		}
		out.TraceEvents = append(out.TraceEvents, je)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteFile writes the trace JSON to path.
func (t *Tracer) WriteFile(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
