package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"flowzip/internal/core"
	"flowzip/internal/dist"
	"flowzip/internal/flowgen"
	"flowzip/internal/trace"
)

func webTrace(seed uint64, flows int) *trace.Trace {
	cfg := flowgen.DefaultWebConfig()
	cfg.Seed = seed
	cfg.Flows = flows
	cfg.Duration = 10 * time.Second
	return flowgen.Web(cfg)
}

func fractalTrace(seed uint64, packets int) *trace.Trace {
	cfg := flowgen.DefaultFractalConfig()
	cfg.Seed = seed
	cfg.Packets = packets
	tr := flowgen.Fractal(cfg)
	if !tr.IsSorted() {
		tr.Sort()
	}
	return tr
}

func p2pTrace(seed uint64, flows int) *trace.Trace {
	cfg := flowgen.DefaultP2PConfig()
	cfg.Seed = seed
	cfg.Flows = flows
	tr := flowgen.P2P(cfg)
	if !tr.IsSorted() {
		tr.Sort()
	}
	return tr
}

// serialBytes is the reference the daemon's segments are compared against:
// serial Compress encoded with the daemon's default container settings
// (indexed v2 — the footer is deterministic, so the equivalence holds over
// the full byte stream, not just the body).
func serialBytes(t testing.TB, tr *trace.Trace) []byte {
	t.Helper()
	arch, err := core.Compress(tr, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	arch.Index = core.IndexConfig{Enabled: true}
	var buf bytes.Buffer
	if _, err := arch.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkGoroutines fails the test if the goroutine count does not settle back
// to the baseline captured at call time.
func checkGoroutines(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if now := runtime.NumGoroutine(); now > before {
			t.Errorf("goroutines leaked: %d before, %d after", before, now)
		}
	}
}

// segments returns a tenant's archive files sorted by name (session, seq).
func segments(t testing.TB, dir, tenant string) []string {
	t.Helper()
	got, err := filepath.Glob(filepath.Join(dir, tenant, "*.fz"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	return got
}

// TestDaemonMultiSessionEquivalence is the acceptance property: N concurrent
// sessions over distinct tenants, each archive byte-identical to the serial
// Compress of that tenant's packets, no goroutine left behind.
func TestDaemonMultiSessionEquivalence(t *testing.T) {
	defer checkGoroutines(t)()
	dir := t.TempDir()
	d, err := New(Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	traces := map[string]*trace.Trace{
		"web-a":     webTrace(1, 200),
		"web-b":     webTrace(2, 300),
		"web-c":     webTrace(3, 150),
		"fractal-a": fractalTrace(4, 6000),
		"fractal-b": fractalTrace(5, 9000),
		"p2p-a":     p2pTrace(6, 800),
		"p2p-b":     p2pTrace(7, 1200),
		"p2p-c":     p2pTrace(8, 500),
	}

	var wg sync.WaitGroup
	sums := make(map[string]dist.SessionSummary)
	errs := make(map[string]error)
	var mu sync.Mutex
	for tenant, tr := range traces {
		wg.Add(1)
		go func(tenant string, tr *trace.Trace) {
			defer wg.Done()
			sum, err := Ingest(d.Addr().String(), tenant, trace.Batches(tr, 256), core.DefaultOptions(), dist.NetConfig{})
			mu.Lock()
			sums[tenant], errs[tenant] = sum, err
			mu.Unlock()
		}(tenant, tr)
	}
	wg.Wait()
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	for tenant, tr := range traces {
		if errs[tenant] != nil {
			t.Fatalf("tenant %s: %v", tenant, errs[tenant])
		}
		sum := sums[tenant]
		if sum.Packets != int64(tr.Len()) || sum.Archives != 1 || sum.Drained {
			t.Errorf("tenant %s summary %+v, want %d packets in 1 archive", tenant, sum, tr.Len())
		}
		segs := segments(t, dir, tenant)
		if len(segs) != 1 {
			t.Fatalf("tenant %s has %d segments, want 1", tenant, len(segs))
		}
		got, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		if want := serialBytes(t, tr); !bytes.Equal(got, want) {
			t.Errorf("tenant %s archive differs from serial Compress (%d vs %d bytes)", tenant, len(got), len(want))
		}
		meta, err := ReadSegmentMeta(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		if meta.Tenant != tenant || meta.Packets != int64(tr.Len()) || meta.Reason != ReasonClose {
			t.Errorf("tenant %s meta %+v", tenant, meta)
		}
	}

	m := d.Metrics()
	if got := m.SessionsCompleted.Load(); got != int64(len(traces)) {
		t.Errorf("SessionsCompleted = %d, want %d", got, len(traces))
	}
	if got := m.SessionsActive.Load(); got != 0 {
		t.Errorf("SessionsActive = %d after shutdown", got)
	}
}

// TestDaemonRotationBySize checks exact packet-count rotation: every segment
// must hold exactly MaxPackets packets (mid-batch splits included) and be
// byte-identical to the serial Compress of that packet range.
func TestDaemonRotationBySize(t *testing.T) {
	defer checkGoroutines(t)()
	dir := t.TempDir()
	const maxPackets = 300
	d, err := New(Config{Dir: dir, Workers: 2, Rotation: Rotation{MaxPackets: maxPackets}})
	if err != nil {
		t.Fatal(err)
	}
	tr := fractalTrace(21, 1000)
	// 128-packet batches do not divide 300, so every boundary is a mid-batch
	// split.
	if _, err := Ingest(d.Addr().String(), "acme", trace.Batches(tr, 128), core.DefaultOptions(), dist.NetConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	segs := segments(t, dir, "acme")
	wantSegs := (tr.Len() + maxPackets - 1) / maxPackets
	if len(segs) != wantSegs {
		t.Fatalf("%d segments, want %d", len(segs), wantSegs)
	}
	off := 0
	for i, seg := range segs {
		meta, err := ReadSegmentMeta(seg)
		if err != nil {
			t.Fatal(err)
		}
		wantN := maxPackets
		wantReason := ReasonRotateSize
		if i == len(segs)-1 {
			wantN = tr.Len() - off
			wantReason = ReasonClose
		}
		if meta.Seq != i || meta.Packets != int64(wantN) || meta.Reason != wantReason {
			t.Errorf("segment %d meta %+v, want %d packets, reason %s", i, meta, wantN, wantReason)
		}
		sub := &trace.Trace{Packets: tr.Packets[off : off+wantN]}
		got, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if want := serialBytes(t, sub); !bytes.Equal(got, want) {
			t.Errorf("segment %d differs from serial Compress of packets [%d,%d)", i, off, off+wantN)
		}
		// Rotated segments must round-trip the ordinary decoder unchanged.
		arch, err := core.Decode(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("segment %d does not decode: %v", i, err)
		}
		if int64(arch.Packets()) != meta.Packets {
			t.Errorf("segment %d decodes to %d packets, meta says %d", i, arch.Packets(), meta.Packets)
		}
		off += wantN
	}
	if got := d.Metrics().RotationsSize.Load(); got != int64(wantSegs-1) {
		t.Errorf("RotationsSize = %d, want %d", got, wantSegs-1)
	}
}

// TestDaemonRotationByAge: with a 1ns age bound every pulled batch starts a
// fresh segment, deterministically.
func TestDaemonRotationByAge(t *testing.T) {
	defer checkGoroutines(t)()
	dir := t.TempDir()
	d, err := New(Config{Dir: dir, Workers: 1, Rotation: Rotation{MaxAge: time.Nanosecond}})
	if err != nil {
		t.Fatal(err)
	}
	tr := webTrace(22, 100)
	const batch = 64
	sum, err := Ingest(d.Addr().String(), "aged", trace.Batches(tr, batch), core.DefaultOptions(), dist.NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	wantSegs := (tr.Len() + batch - 1) / batch
	if sum.Archives != int64(wantSegs) {
		t.Fatalf("summary reports %d archives, want %d (one per batch)", sum.Archives, wantSegs)
	}
	segs := segments(t, dir, "aged")
	if len(segs) != wantSegs {
		t.Fatalf("%d segments, want %d", len(segs), wantSegs)
	}
	off := 0
	for i, seg := range segs {
		n := batch
		if rem := tr.Len() - off; rem < n {
			n = rem
		}
		sub := &trace.Trace{Packets: tr.Packets[off : off+n]}
		got, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if want := serialBytes(t, sub); !bytes.Equal(got, want) {
			t.Errorf("segment %d differs from serial Compress of its batch", i)
		}
		off += n
	}
}

// TestDaemonQuotaMaxSessions: opens beyond the session quota are rejected
// with a fail frame while admitted sessions keep running.
func TestDaemonQuotaMaxSessions(t *testing.T) {
	defer checkGoroutines(t)()
	dir := t.TempDir()
	d, err := New(Config{Dir: dir, Workers: 1, Quotas: Quotas{MaxSessions: 1}})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := DialSession(d.Addr().String(), "first", core.DefaultOptions(), dist.NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DialSession(d.Addr().String(), "second", core.DefaultOptions(), dist.NetConfig{}); err == nil {
		t.Fatal("second session admitted beyond MaxSessions=1")
	} else if !strings.Contains(err.Error(), "quota") {
		t.Errorf("rejection %v does not mention the quota", err)
	}
	tr := webTrace(23, 50)
	if err := c1.Send(tr.Packets); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	// The slot freed; a new session is admitted.
	c3, err := DialSession(d.Addr().String(), "third", core.DefaultOptions(), dist.NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := d.Metrics().SessionsRejected.Load(); got != 1 {
		t.Errorf("SessionsRejected = %d, want 1", got)
	}
}

// TestDaemonQuotaArchiveBytes: a tenant that would exceed its encoded-byte
// budget has the session failed and the over-budget segment withheld.
func TestDaemonQuotaArchiveBytes(t *testing.T) {
	defer checkGoroutines(t)()
	dir := t.TempDir()
	d, err := New(Config{Dir: dir, Workers: 1, Quotas: Quotas{MaxArchiveBytes: 64}})
	if err != nil {
		t.Fatal(err)
	}
	tr := webTrace(24, 200)
	_, err = Ingest(d.Addr().String(), "greedy", trace.Batches(tr, 100), core.DefaultOptions(), dist.NetConfig{})
	if err == nil || !strings.Contains(err.Error(), "quota") {
		t.Fatalf("ingest err = %v, want archive byte quota failure", err)
	}
	if segs := segments(t, dir, "greedy"); len(segs) != 0 {
		t.Errorf("over-quota segment was written: %v", segs)
	}
	// The tenant's budget being exhausted also blocks a fresh session once
	// bytes were actually accumulated — here nothing was written, so a
	// retry is admitted and fails the same way at write time.
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := d.Metrics().SessionsFailed.Load(); got != 1 {
		t.Errorf("SessionsFailed = %d, want 1", got)
	}
}

// TestDaemonFailedWriteRefundsQuota: a segment that does not land must not
// stay charged to its tenant. Each write of a segment is made to fail in turn
// by putting a directory where the file goes (the tests run as root, so
// permissions would not stop the write). The quota holds one and a half
// segments: were the failed one still charged, the retry would be refused.
func TestDaemonFailedWriteRefundsQuota(t *testing.T) {
	defer checkGoroutines(t)()
	dir := t.TempDir()
	tr := webTrace(26, 200)
	n := int64(len(serialBytes(t, tr)))
	d, err := New(Config{Dir: dir, Workers: 1, Quotas: Quotas{MaxArchiveBytes: n + n/2}})
	if err != nil {
		t.Fatal(err)
	}
	charged := func(tenant string) int64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.tenantBytes[tenant]
	}
	ingest := func(tenant string) (dist.SessionSummary, error) {
		return Ingest(d.Addr().String(), tenant, trace.Batches(tr, 100), core.DefaultOptions(), dist.NetConfig{})
	}
	for i, suffix := range []string{"", MetaSuffix} {
		tenant := fmt.Sprintf("tenant%d", i)
		// Session ids count up from 1 across tenants; each tenant takes two.
		blocked := filepath.Join(dir, tenant, fmt.Sprintf("s%05d-0000.fz%s", 2*i+1, suffix))
		if err := os.MkdirAll(blocked, 0o755); err != nil {
			t.Fatal(err)
		}
		if _, err := ingest(tenant); err == nil || !strings.Contains(err.Error(), "write segment") {
			t.Fatalf("%s: ingest err = %v, want a segment write failure", tenant, err)
		}
		if got := charged(tenant); got != 0 {
			t.Errorf("%s: %d bytes still charged after the failed write", tenant, got)
		}
		if segs := segments(t, dir, tenant); suffix == MetaSuffix && len(segs) != 0 {
			t.Errorf("%s: archive without a sidecar left behind: %v", tenant, segs)
		}
		sum, err := ingest(tenant)
		if err != nil {
			t.Fatalf("%s: session after the failed one: %v", tenant, err)
		}
		if sum.ArchiveBytes != n || charged(tenant) != n {
			t.Errorf("%s: wrote %d bytes, %d charged, want %d for both", tenant, sum.ArchiveBytes, charged(tenant), n)
		}
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := d.Metrics().SessionsFailed.Load(); got != 2 {
		t.Errorf("SessionsFailed = %d, want 2", got)
	}
}

// TestDaemonClientDisconnect: a client that vanishes mid-stream still gets
// its acked packets flushed into a segment marked "disconnect".
func TestDaemonClientDisconnect(t *testing.T) {
	defer checkGoroutines(t)()
	dir := t.TempDir()
	d, err := New(Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := webTrace(25, 100)
	c, err := DialSession(d.Addr().String(), "flaky", core.DefaultOptions(), dist.NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const sent = 128
	if err := c.Send(tr.Packets[:sent]); err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(); err != nil {
		t.Fatal(err)
	}
	// The daemon notices the disconnect and flushes; wait for the session to
	// wind down, then drain the daemon.
	deadline := time.Now().Add(5 * time.Second)
	for d.ActiveSessions() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	segs := segments(t, dir, "flaky")
	if len(segs) != 1 {
		t.Fatalf("%d segments after disconnect, want 1", len(segs))
	}
	meta, err := ReadSegmentMeta(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if meta.Packets != sent || meta.Reason != ReasonDisconnect {
		t.Errorf("meta %+v, want %d packets, reason %s", meta, sent, ReasonDisconnect)
	}
	sub := &trace.Trace{Packets: tr.Packets[:sent]}
	got, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := serialBytes(t, sub); !bytes.Equal(got, want) {
		t.Error("disconnect segment differs from serial Compress of the acked packets")
	}
}

// TestDaemonDrain: graceful shutdown finalizes a mid-stream session, the
// client learns via the Drained summary, and the flushed segment matches the
// acked packets.
func TestDaemonDrain(t *testing.T) {
	defer checkGoroutines(t)()
	dir := t.TempDir()
	d, err := New(Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := webTrace(26, 200)
	// Window 1 pins stop-and-wait so every Send observes the daemon's answer
	// and the drain notice surfaces mid-stream deterministically; the
	// pipelined-window drain path is covered by the window tests.
	c, err := DialSession(d.Addr().String(), "longhaul", core.DefaultOptions(), dist.NetConfig{Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	const sent = 256
	if err := c.Send(tr.Packets[:sent]); err != nil {
		t.Fatal(err)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- d.Shutdown(ctx)
	}()

	// Shutdown signals the drain before anything else; without waiting for it
	// a fast client can stream the whole trace before that goroutine runs.
	<-d.drain

	// Keep streaming until the drain notice arrives.
	var drained bool
	for off := sent; off < tr.Len(); off += 64 {
		hi := off + 64
		if hi > tr.Len() {
			hi = tr.Len()
		}
		if err := c.Send(tr.Packets[off:hi]); err != nil {
			if errors.Is(err, ErrSessionDrained) {
				drained = true
				break
			}
			t.Fatalf("send during drain: %v", err)
		}
	}
	if !drained {
		t.Fatal("client streamed to completion although the daemon was draining")
	}
	sum, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Drained {
		t.Errorf("summary %+v does not carry the Drained flag", sum)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	segs := segments(t, dir, "longhaul")
	if len(segs) != 1 {
		t.Fatalf("%d segments after drain, want 1", len(segs))
	}
	meta, err := ReadSegmentMeta(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if meta.Reason != ReasonDrain {
		t.Errorf("meta reason %s, want %s", meta.Reason, ReasonDrain)
	}
	if meta.Packets != sum.Packets {
		t.Errorf("meta packets %d != summary packets %d", meta.Packets, sum.Packets)
	}
	// Whatever prefix was acked must compress byte-identically.
	sub := &trace.Trace{Packets: tr.Packets[:meta.Packets]}
	got, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := serialBytes(t, sub); !bytes.Equal(got, want) {
		t.Error("drained segment differs from serial Compress of the acked prefix")
	}
	if got := d.Metrics().SessionsDrained.Load(); got != 1 {
		t.Errorf("SessionsDrained = %d, want 1", got)
	}
}

// TestDaemonMetricsEndpoint: the Prometheus endpoint serves the counter set
// in text exposition format.
func TestDaemonMetricsEndpoint(t *testing.T) {
	defer checkGoroutines(t)()
	dir := t.TempDir()
	d, err := New(Config{Dir: dir, Workers: 1, MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	tr := webTrace(27, 50)
	if _, err := Ingest(d.Addr().String(), "scraped", trace.Batches(tr, 0), core.DefaultOptions(), dist.NetConfig{}); err != nil {
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
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE flowzipd_sessions_started_total counter",
		"flowzipd_sessions_started_total 1",
		fmt.Sprintf("flowzipd_packets_total %d", tr.Len()),
		"flowzipd_archives_total 1",
		`flowzipd_tenant_archive_bytes_total{tenant="scraped"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The endpoint must be down after shutdown.
	if _, err := http.Get(fmt.Sprintf("http://%s/metrics", d.MetricsAddr())); err == nil {
		t.Error("metrics endpoint still serving after shutdown")
	}
}

// TestDaemonConfigValidation: impossible configurations are rejected at New.
func TestDaemonConfigValidation(t *testing.T) {
	dir := t.TempDir()
	bad := []Config{
		{},                          // no Dir
		{Dir: dir, Workers: -1},     // negative workers
		{Dir: dir, Workers: 100000}, // beyond flow.MaxShards
		{Dir: dir, Quotas: Quotas{MaxSessions: -1}},
		{Dir: dir, Quotas: Quotas{MaxResident: -1}},
		{Dir: dir, Quotas: Quotas{MaxArchiveBytes: -1}},
		{Dir: dir, Rotation: Rotation{MaxPackets: -1}},
		{Dir: dir, Rotation: Rotation{MaxAge: -time.Second}},
		{Dir: dir, Net: dist.NetConfig{FrameTimeout: -time.Second}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestDaemonRejectsBadTenant: path-structured tenant names never reach the
// filesystem.
func TestDaemonRejectsBadTenant(t *testing.T) {
	defer checkGoroutines(t)()
	dir := t.TempDir()
	d, err := New(Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"", "..", "a/b", "evil\x00"} {
		if _, err := DialSession(d.Addr().String(), tenant, core.DefaultOptions(), dist.NetConfig{}); err == nil {
			t.Errorf("tenant %q admitted", tenant)
		}
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("bad tenants created directory entries: %v", entries)
	}
}
