package netbench

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"flowzip/internal/dist"
	"flowzip/internal/flowgen"
	"flowzip/internal/server"
	"flowzip/internal/trace"
)

// The ingest benchmarks measure end-to-end session throughput — dial, open,
// stream in 256-packet batches under a credit window, close — against a real
// daemon, on a bare loopback link and behind a 5 ms simulated RTT. On the
// delayed link the window is the whole story: stop-and-wait pays one RTT per
// batch, window w amortizes one RTT over up to w batches.

const (
	benchBatch   = 256
	benchPackets = 16384 // 64 batches per session
)

var (
	benchTraceOnce sync.Once
	benchTrace     *trace.Trace
)

func ingestTrace() *trace.Trace {
	benchTraceOnce.Do(func() {
		cfg := flowgen.DefaultFractalConfig()
		cfg.Seed = 4242
		cfg.Packets = benchPackets
		benchTrace = flowgen.Fractal(cfg)
		if !benchTrace.IsSorted() {
			benchTrace.Sort()
		}
	})
	return benchTrace
}

func benchIngest(b *testing.B, rtt time.Duration, window int) {
	d, err := server.New(server.Config{
		Dir:     b.TempDir(),
		Workers: 2,
		Net:     dist.NetConfig{Window: window},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	addr := d.Addr().String()
	if rtt > 0 {
		proxy, err := NewDelayProxy(addr, rtt)
		if err != nil {
			b.Fatal(err)
		}
		defer proxy.Close()
		addr = proxy.Addr()
	}
	tr := ingestTrace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A unique tenant per iteration keeps every session an independent
		// archive; the daemon's segment writing is part of the measured cost,
		// as it is in production.
		sum, err := IngestTrace(addr, fmt.Sprintf("bench%04d", i), tr, benchBatch, window)
		if err != nil {
			b.Fatal(err)
		}
		if sum.Packets != int64(tr.Len()) {
			b.Fatalf("summary %d packets, want %d", sum.Packets, tr.Len())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(tr.Len())/b.Elapsed().Seconds(), "pkts/s")
}

// BenchmarkIngestLoopback: latency-free baseline. Window effects are small
// here; the number that matters is the absolute throughput floor.
func BenchmarkIngestLoopback(b *testing.B) {
	for _, w := range []int{1, 4, 32} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) { benchIngest(b, 0, w) })
	}
}

// BenchmarkIngestRTT5ms: the acceptance scenario — on a 5 ms round trip the
// default window must beat stop-and-wait by at least 3x (CI's pipelining win
// guard enforces it).
func BenchmarkIngestRTT5ms(b *testing.B) {
	for _, w := range []int{1, 4, 32} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) { benchIngest(b, 5*time.Millisecond, w) })
	}
}

// TestDelayProxyIngest pins the proxy itself: a full windowed ingest through
// a delayed link still produces a complete, correct session, and a
// stop-and-wait session over ~64 batches takes at least 64 RTTs while a
// pipelined one does not — the mechanism the benchmarks measure.
func TestDelayProxyIngest(t *testing.T) {
	d, err := server.New(server.Config{Dir: t.TempDir(), Workers: 2, Net: dist.NetConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown(context.Background())
	const rtt = 2 * time.Millisecond
	proxy, err := NewDelayProxy(d.Addr().String(), rtt)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	tr := ingestTrace()
	batches := (tr.Len() + benchBatch - 1) / benchBatch

	start := time.Now()
	sum, err := IngestTrace(proxy.Addr(), "serial", tr, benchBatch, 1)
	if err != nil {
		t.Fatal(err)
	}
	serial := time.Since(start)
	if sum.Packets != int64(tr.Len()) {
		t.Fatalf("stop-and-wait summary %d packets, want %d", sum.Packets, tr.Len())
	}
	// Each stop-and-wait batch costs a full round trip through the proxy.
	if floor := time.Duration(batches) * rtt; serial < floor {
		t.Errorf("stop-and-wait ingest took %v, below the %v latency floor — proxy adds no delay", serial, floor)
	}

	start = time.Now()
	sum, err = IngestTrace(proxy.Addr(), "windowed", tr, benchBatch, 32)
	if err != nil {
		t.Fatal(err)
	}
	windowed := time.Since(start)
	if sum.Packets != int64(tr.Len()) {
		t.Fatalf("windowed summary %d packets, want %d", sum.Packets, tr.Len())
	}
	if windowed >= serial {
		t.Errorf("window 32 (%v) not faster than stop-and-wait (%v) across a %v RTT", windowed, serial, rtt)
	}

	// Batch 0 takes the default batch size.
	if sum, err = IngestTrace(proxy.Addr(), "default-batch", tr, 0, 32); err != nil {
		t.Fatal(err)
	}
	if sum.Packets != int64(tr.Len()) {
		t.Fatalf("batch 0 summary %d packets, want %d", sum.Packets, tr.Len())
	}
}
