package core

import (
	"sync/atomic"
	"time"

	"flowzip/internal/cluster"
	"flowzip/internal/obs"
)

// PipelineMetrics is the pipeline's registry-backed counter set: batch
// feed latency and the template store's prune/memo sampler. Built with
// NewPipelineMetrics; a nil *PipelineMetrics disables everything (every
// method nil-checks, and the instruments themselves are nil-receiver safe),
// so the hot paths pay a branch and nothing else when observability is off.
type PipelineMetrics struct {
	Batches      *obs.Counter
	Packets      *obs.Counter
	BatchSeconds *obs.Histogram

	// Store samples the template store every run records with (the one
	// recorder's, in one stage or two): prune-bound reject rates, memo hits,
	// match/create traffic — matches plus creates count the Match calls.
	// Exported into the registry as render-time sampled counters.
	Store *cluster.StoreObserver
}

// NewPipelineMetrics registers the pipeline series on reg under the given
// prefix (e.g. "pipeline" or "flowzipd_pipeline") and returns the handle
// to observe through. A nil registry returns nil, which disables every
// observation site.
func NewPipelineMetrics(reg *obs.Registry, prefix string) *PipelineMetrics {
	if reg == nil {
		return nil
	}
	m := &PipelineMetrics{Store: &cluster.StoreObserver{}}
	m.Batches = reg.Counter(prefix+"_batches_total", "Source batches fed through the pipeline.")
	m.Packets = reg.Counter(prefix+"_packets_total", "Packets fed through the pipeline.")
	m.BatchSeconds = reg.Histogram(prefix+"_batch_seconds", "Latency feeding one source batch through the flow table, including stalls on the record stage.", obs.DefaultLatencyBuckets)

	sampled := func(name, help string, v *atomic.Int64) {
		reg.CounterFunc(prefix+name, help, func() float64 { return float64(v.Load()) })
	}
	sampled("_store_lookups_total", "Template-store first-fit walks.", &m.Store.Lookups)
	sampled("_store_sum_rejects_total", "Store candidates rejected by the element-sum bound.", &m.Store.SumRejects)
	sampled("_store_dist_calls_total", "Store candidates that reached the full distance computation.", &m.Store.DistCalls)
	sampled("_store_memo_hits_total", "Store Match calls resolved by the exact-vector memo: repeats of a vector that has already matched a template.", &m.Store.MemoHits)
	sampled("_store_matches_total", "Store Match calls that reused a template.", &m.Store.Matches)
	sampled("_store_creates_total", "Templates created across the run's stores.", &m.Store.Creates)
	reg.GaugeFunc(prefix+"_store_arena_bytes", "Vector bytes held in SoA bucket arenas across the observed stores (occupancy).", func() float64 { return float64(m.Store.ArenaBytes.Load()) })
	return m
}

// storeObserver returns the sampler to attach to stores (nil when
// metrics are off).
func (m *PipelineMetrics) storeObserver() *cluster.StoreObserver {
	if m == nil {
		return nil
	}
	return m.Store
}

// observeBatch records one fed batch.
func (m *PipelineMetrics) observeBatch(start time.Time, packets int) {
	if m == nil {
		return
	}
	m.Batches.Inc()
	m.Packets.Add(int64(packets))
	m.BatchSeconds.Observe(time.Since(start).Seconds())
}
