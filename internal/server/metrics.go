package server

import (
	"flowzip/internal/core"
	"flowzip/internal/obs"
)

// Metrics is the daemon's counter set, exported over HTTP in the Prometheus
// text exposition format via an obs.Registry. Counters are plain atomics —
// the hot paths (one batch, one segment) touch a handful of Add calls and
// never a lock; only the per-tenant byte family takes a mutex, on the
// segment-write path.
//
// The legacy flowzipd_* series are registered first, in their historical
// order and with their historical help strings, so the rendered output for
// those series is byte-for-byte what the hand-rolled renderer produced; the
// newer histogram, pipeline and runtime series append after them. Template
// matches are counted once, by the pipeline's own
// flowzipd_pipeline_store_matches_total and
// flowzipd_pipeline_store_creates_total (one Match call each).
type Metrics struct {
	SessionsActive    *obs.Gauge   // gauge: sessions currently open
	SessionsStarted   *obs.Counter // sessions admitted
	SessionsCompleted *obs.Counter // sessions that closed cleanly
	SessionsFailed    *obs.Counter // sessions ended by a quota or pipeline failure
	SessionsRejected  *obs.Counter // opens refused (quota, bad options, bad handshake)
	SessionsDrained   *obs.Counter // sessions finalized early by graceful shutdown

	Packets  *obs.Counter // packets accepted into session pipelines
	Batches  *obs.Counter // packet frames accepted
	Archives *obs.Counter // archive segments written
	Bytes    *obs.Counter // encoded bytes across all segments

	RotationsSize *obs.Counter // segments cut by Rotation.MaxPackets
	RotationsAge  *obs.Counter // segments cut by Rotation.MaxAge

	// TenantBytes is the per-tenant encoded-byte family, labeled by tenant
	// name (escaped per the exposition format, so hostile tenant names
	// cannot corrupt the scrape).
	TenantBytes *obs.CounterVec

	// BatchSeconds is the latency handing one accepted batch to its
	// session pipeline. Under the pipelined data plane this stall no
	// longer blocks the client directly — it delays the cumulative ack,
	// consuming credit window — so a scrape shows when compressors, not
	// the network, are the bottleneck.
	BatchSeconds *obs.Histogram
	// SegmentSeconds is the latency encoding and landing one rotated
	// archive segment (encode + quota check + file writes).
	SegmentSeconds *obs.Histogram
	// InflightBatches is the number of batches acked to clients but not
	// yet pulled into a session pipeline — credit-window occupancy on the
	// daemon side, summed over sessions.
	InflightBatches *obs.Gauge
	// AckSeconds is the daemon-side ack latency: from reading a packets
	// frame off a session connection to writing its cumulative ack,
	// including any pipeline enqueue stall. The client-observed ack RTT is
	// this plus one network round trip.
	AckSeconds *obs.Histogram

	// Pipeline aggregates the per-session compression pipelines: every
	// session's pipeline observes into this one set (the instruments are
	// atomics, so concurrent sessions simply sum).
	Pipeline *core.PipelineMetrics

	reg *obs.Registry
}

func newMetrics() *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{reg: reg}
	// Legacy series, in the exact historical order with the exact
	// historical help strings: the registry renders in registration order,
	// so this block reproduces the old /metrics output byte for byte, less
	// the retired flowzipd_merge_match_calls_total (see the store series).
	m.SessionsActive = reg.Gauge("flowzipd_sessions_active", "Sessions currently open.")
	m.SessionsStarted = reg.Counter("flowzipd_sessions_started_total", "Sessions admitted.")
	m.SessionsCompleted = reg.Counter("flowzipd_sessions_completed_total", "Sessions closed cleanly by the client.")
	m.SessionsFailed = reg.Counter("flowzipd_sessions_failed_total", "Sessions ended by a quota or pipeline failure.")
	m.SessionsRejected = reg.Counter("flowzipd_sessions_rejected_total", "Session opens refused at admission.")
	m.SessionsDrained = reg.Counter("flowzipd_sessions_drained_total", "Sessions finalized early by graceful shutdown.")
	m.Packets = reg.Counter("flowzipd_packets_total", "Packets accepted into session pipelines.")
	m.Batches = reg.Counter("flowzipd_batches_total", "Packet batches accepted.")
	m.Archives = reg.Counter("flowzipd_archives_total", "Archive segments written.")
	m.Bytes = reg.Counter("flowzipd_archive_bytes_total", "Encoded bytes across all archive segments.")
	m.RotationsSize = reg.Counter("flowzipd_rotations_size_total", "Segments cut by the packet-count rotation bound.")
	m.RotationsAge = reg.Counter("flowzipd_rotations_age_total", "Segments cut by the age rotation bound.")
	m.TenantBytes = reg.CounterVec("flowzipd_tenant_archive_bytes_total", "Encoded bytes per tenant.", "tenant")

	// New series append after the legacy block.
	m.BatchSeconds = reg.Histogram("flowzipd_batch_seconds", "Latency handing one accepted batch to its session pipeline; stalls here consume credit window instead of blocking the client.", obs.DefaultLatencyBuckets)
	m.SegmentSeconds = reg.Histogram("flowzipd_segment_seconds", "Latency encoding and writing one rotated archive segment.", obs.DefaultLatencyBuckets)
	m.InflightBatches = reg.Gauge("flowzipd_inflight_batches", "Batches acked but not yet pulled into a session pipeline (credit-window occupancy).")
	m.AckSeconds = reg.Histogram("flowzipd_ack_seconds", "Daemon-side latency from reading a packets frame to writing its cumulative ack.", obs.DefaultLatencyBuckets)
	m.Pipeline = core.NewPipelineMetrics(reg, "flowzipd_pipeline")
	obs.RegisterRuntimeMetrics(reg)
	return m
}

// addTenantBytes records n encoded bytes against a tenant's labeled series
// (and the global Bytes counter).
func (m *Metrics) addTenantBytes(tenant string, n int64) {
	m.Bytes.Add(n)
	m.TenantBytes.Add(tenant, n)
}
