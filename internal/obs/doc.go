// Package obs is the zero-dependency observability layer shared by the
// compression pipeline, the flowzipd daemon and the seekable read path.
//
// It provides three independent signal families:
//
//   - Metrics: a Registry of counters, gauges and bucketed histograms
//     rendered in Prometheus text exposition format (0.0.4). Instruments
//     are nil-receiver safe: a nil *Counter, *Gauge or *Histogram turns
//     every mutation into a single nil check, so instrumented hot paths
//     cost nothing when observability is off.
//
//   - Tracing: a Tracer of timed spans serialized as Chrome trace-event
//     JSON, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//     A nil *Tracer yields zero-value Spans whose methods are no-ops.
//
//   - Runtime introspection: runtime/metrics sampling (goroutines, heap,
//     GC) into the registry, and an HTTP server exposing /metrics,
//     net/http/pprof and /debug/vars.
//
// Naming convention for metrics: <subsystem>_<noun>[_<unit>][_total],
// e.g. flowzipd_sessions_started_total, pipeline_batch_seconds.
package obs
