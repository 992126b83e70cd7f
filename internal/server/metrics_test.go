package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"flowzip/internal/core"
	"flowzip/internal/dist"
	"flowzip/internal/promtext"
	"flowzip/internal/trace"
)

// TestMetricsRenderByteCompat pins the migration contract: for the series
// that existed before the registry rewrite, the rendered page must be
// byte-identical to the old hand-rolled exposition — same order, same help
// strings, same tenant sorting — so existing scrape configs and recording
// rules keep working. The one series retired since,
// flowzipd_merge_match_calls_total, is carried by
// flowzipd_pipeline_merge_match_calls_total. New series (histograms,
// pipeline, runtime) may only append after this prefix.
func TestMetricsRenderByteCompat(t *testing.T) {
	m := newMetrics()
	m.SessionsActive.Add(3)
	m.SessionsStarted.Add(7)
	m.SessionsCompleted.Add(5)
	m.SessionsFailed.Add(1)
	m.SessionsRejected.Add(2)
	m.SessionsDrained.Add(1)
	m.Packets.Add(100000)
	m.Batches.Add(400)
	m.Archives.Add(6)
	m.RotationsSize.Add(4)
	m.RotationsAge.Add(2)
	m.addTenantBytes("beta", 2048)
	m.addTenantBytes("alpha", 1000)

	legacy := `# HELP flowzipd_sessions_active Sessions currently open.
# TYPE flowzipd_sessions_active gauge
flowzipd_sessions_active 3
# HELP flowzipd_sessions_started_total Sessions admitted.
# TYPE flowzipd_sessions_started_total counter
flowzipd_sessions_started_total 7
# HELP flowzipd_sessions_completed_total Sessions closed cleanly by the client.
# TYPE flowzipd_sessions_completed_total counter
flowzipd_sessions_completed_total 5
# HELP flowzipd_sessions_failed_total Sessions ended by a quota or pipeline failure.
# TYPE flowzipd_sessions_failed_total counter
flowzipd_sessions_failed_total 1
# HELP flowzipd_sessions_rejected_total Session opens refused at admission.
# TYPE flowzipd_sessions_rejected_total counter
flowzipd_sessions_rejected_total 2
# HELP flowzipd_sessions_drained_total Sessions finalized early by graceful shutdown.
# TYPE flowzipd_sessions_drained_total counter
flowzipd_sessions_drained_total 1
# HELP flowzipd_packets_total Packets accepted into session pipelines.
# TYPE flowzipd_packets_total counter
flowzipd_packets_total 100000
# HELP flowzipd_batches_total Packet batches accepted.
# TYPE flowzipd_batches_total counter
flowzipd_batches_total 400
# HELP flowzipd_archives_total Archive segments written.
# TYPE flowzipd_archives_total counter
flowzipd_archives_total 6
# HELP flowzipd_archive_bytes_total Encoded bytes across all archive segments.
# TYPE flowzipd_archive_bytes_total counter
flowzipd_archive_bytes_total 3048
# HELP flowzipd_rotations_size_total Segments cut by the packet-count rotation bound.
# TYPE flowzipd_rotations_size_total counter
flowzipd_rotations_size_total 4
# HELP flowzipd_rotations_age_total Segments cut by the age rotation bound.
# TYPE flowzipd_rotations_age_total counter
flowzipd_rotations_age_total 2
# HELP flowzipd_tenant_archive_bytes_total Encoded bytes per tenant.
# TYPE flowzipd_tenant_archive_bytes_total counter
flowzipd_tenant_archive_bytes_total{tenant="alpha"} 1000
flowzipd_tenant_archive_bytes_total{tenant="beta"} 2048
`
	var b bytes.Buffer
	if err := m.reg.Render(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if !strings.HasPrefix(got, legacy) {
		t.Fatalf("rendered page no longer starts with the legacy exposition:\n%s", got)
	}
	// The appended series are the new families, and the whole page stays
	// strict-lint clean.
	rest := got[len(legacy):]
	for _, want := range []string{
		"# TYPE flowzipd_batch_seconds histogram",
		"# TYPE flowzipd_segment_seconds histogram",
		"flowzipd_pipeline_packets_total",
		"flowzipd_pipeline_merge_match_calls_total",
		"go_goroutines",
	} {
		if !strings.Contains(rest, want) {
			t.Errorf("appended series missing %q", want)
		}
	}
	if _, err := promtext.Parse(strings.NewReader(got), true); err != nil {
		t.Errorf("full page fails strict lint: %v", err)
	}
}

// TestDaemonMetricsHistograms: after real traffic the endpoint exposes
// batch-feed and segment-rotation latency histograms with consistent
// cumulative buckets, and the page parses strictly.
func TestDaemonMetricsHistograms(t *testing.T) {
	defer checkGoroutines(t)()
	dir := t.TempDir()
	d, err := New(Config{Dir: dir, Workers: 2, MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	tr := webTrace(29, 80)
	if _, err := Ingest(d.Addr().String(), "histo", trace.Batches(tr, 16), core.DefaultOptions(), dist.NetConfig{}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", d.MetricsAddr()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	res, err := promtext.Parse(bytes.NewReader(body), true)
	if err != nil {
		t.Fatalf("strict parse of live scrape: %v\n%s", err, body)
	}
	hists := map[string]*promtext.Histogram{}
	for _, h := range res.Histograms {
		hists[h.Name] = h
	}
	batch := hists["flowzipd_batch_seconds"]
	if batch == nil {
		t.Fatal("no flowzipd_batch_seconds histogram on /metrics")
	}
	if batch.Count == 0 {
		t.Error("batch histogram saw no observations")
	}
	seg := hists["flowzipd_segment_seconds"]
	if seg == nil {
		t.Fatal("no flowzipd_segment_seconds histogram on /metrics")
	}
	if seg.Count != 1 {
		t.Errorf("segment histogram count = %d, want 1 (one finalize segment)", seg.Count)
	}
	if seg.Sum <= 0 {
		t.Errorf("segment histogram sum = %v, want > 0", seg.Sum)
	}
	// The pipeline series ride on the same page.
	sampleValue := func(name string) (float64, bool) {
		for _, s := range res.Samples {
			if s.Name == name && len(s.Labels) == 0 {
				return s.Value, true
			}
		}
		return 0, false
	}
	if v, ok := sampleValue("flowzipd_pipeline_packets_total"); !ok || v != float64(tr.Len()) {
		t.Errorf("flowzipd_pipeline_packets_total = %v (found %v), want %d", v, ok, tr.Len())
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonDebugEndpoints: Debug exposes pprof and expvar on the metrics
// listener; without Debug those paths stay dark.
func TestDaemonDebugEndpoints(t *testing.T) {
	defer checkGoroutines(t)()
	d, err := New(Config{Dir: t.TempDir(), Workers: 1, MetricsAddr: "127.0.0.1:0", Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/debug/pprof/", "/debug/vars", "/metrics"} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", d.MetricsAddr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %s", path, resp.Status)
		}
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	plain, err := New(Config{Dir: t.TempDir(), Workers: 1, MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", plain.MetricsAddr()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof served without Debug")
	}
	if err := plain.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
