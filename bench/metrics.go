package main

// metricDef declares one metric; BENCHMARK.json repeats these tables and a
// test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Bounds, as shares of the parent's median. A count repeats exactly for a
// seed and moves by less than a third of its bound between seeds (README.md,
// "Noise"). setup_s is the one wall-clock time that keeps a bound, the
// widest the benchmark contract allows, because the contract wants it bounded.
const (
	boundSetup = 0.25
	boundAlloc = 0.02  // compress_alloc_b_per_pkt
	boundCount = 0.005 // compress_ratio, extract_read_frac
)

// endToEnd are the metrics a change is held to.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", boundSetup},
	{"compress_alloc_b_per_pkt", "B/pkt", "lower", boundAlloc},
	{"compress_ratio", "ratio", "lower", boundCount},
	{"extract_read_frac", "ratio", "lower", boundCount},
}

// unbounded are the other eight metrics of the end-to-end pass. They are
// measured in the same rounds, with tracing off, but carry no bound: on the
// shared host this benchmark was recorded on, two runs of identical code
// differ by 5-20% in every wall-clock and CPU-time metric, which is more than
// half of the 10% bound they were meant to have, and ISSUE 12 demotes such a
// metric to a layer metric instead of widening its bound. They are reported
// with the per-layer metrics.
var unbounded = []metricDef{
	{Name: "compress_file_mpps", Unit: "Mpkt/s", Better: "higher"},
	{Name: "compress_cpu_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "compress_serial_mpps", Unit: "Mpkt/s", Better: "higher"},
	{Name: "ingest_mpps", Unit: "Mpkt/s", Better: "higher"},
	{Name: "ingest_rtt5_mpps", Unit: "Mpkt/s", Better: "higher"},
	{Name: "decompress_mpps", Unit: "Mpkt/s", Better: "higher"},
	{Name: "extract_open_ms", Unit: "ms", Better: "lower"},
	{Name: "extract_p50_us", Unit: "us", Better: "lower"},
}

// perLayer is BENCHMARK.json's per_layer: the unbounded metrics, then the
// staged ones.
var perLayer = append(append([]metricDef(nil), unbounded...), staged...)

// staged is measured by the traced pass, one stage at a time through each
// layer's public API. README.md says which end-to-end metric each should move.
var staged = []metricDef{
	{Name: "pcap.parse_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "tsh.parse_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "flow.table_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "flow.table_flows", Unit: "count", Better: "lower"},
	{Name: "flow.vector_ns_per_flow", Unit: "ns/flow", Better: "lower"},
	{Name: "cluster.match_ns_per_flow", Unit: "ns/flow", Better: "lower"},
	{Name: "cluster.templates", Unit: "count", Better: "lower"},
	{Name: "cluster.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "cluster.arena_bytes", Unit: "B", Better: "lower"},
	{Name: "cluster.match_share", Unit: "ratio", Better: "lower"},
	{Name: "core.compress_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "core.finalize_self_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "core.stream_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "core.encode_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "core.write_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "core.archive_bytes", Unit: "B", Better: "lower"},
	{Name: "core.bytes_frac.templates", Unit: "ratio", Better: "lower"},
	{Name: "core.bytes_frac.addresses", Unit: "ratio", Better: "lower"},
	{Name: "core.bytes_frac.timeseq", Unit: "ratio", Better: "lower"},
	{Name: "core.bytes_frac.index", Unit: "ratio", Better: "lower"},
	{Name: "core.compress_cpu_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "core.decode_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "core.decompress_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "core.decompress_alloc_b_per_pkt", Unit: "B/pkt", Better: "lower"},
	{Name: "core.decompress_par2_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "core.reader.open_bytes", Unit: "B", Better: "lower"},
	{Name: "core.reader.groups", Unit: "count", Better: "lower"},
	{Name: "core.reader.query_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.reader.body_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "core.reader.templates_loaded_per_query", Unit: "count", Better: "lower"},
	{Name: "core.reader.groups_per_query", Unit: "count", Better: "lower"},
	{Name: "core.reader.window_query_us", Unit: "us", Better: "lower"},
	{Name: "dist.frame_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "dist.frame_allocs_per_batch", Unit: "count", Better: "lower"},
	{Name: "server.send_block_frac", Unit: "ratio", Better: "lower"},
	{Name: "server.close_flush_ms", Unit: "ms", Better: "lower"},
	{Name: "server.segments", Unit: "count", Better: "lower"},
	{Name: "server.segment_bytes", Unit: "B", Better: "lower"},
	{Name: "server.ack_mean_us", Unit: "us", Better: "lower"},
	{Name: "server.ingest_cpu_ns_per_pkt", Unit: "ns/pkt", Better: "lower"},
	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower"},
}
