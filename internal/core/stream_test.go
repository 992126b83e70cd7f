package core

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/flowgen"
	"flowzip/internal/obs"
	"flowzip/internal/pkt"
	"flowzip/internal/trace"
)

// sliceSource yields pre-cut batches, then an optional terminal error
// (io.EOF when err is nil).
type sliceSource struct {
	batches [][]pkt.Packet
	err     error
}

func (s *sliceSource) Next() ([]pkt.Packet, error) {
	if len(s.batches) == 0 {
		if s.err != nil {
			return nil, s.err
		}
		return nil, io.EOF
	}
	b := s.batches[0]
	s.batches = s.batches[1:]
	return b, nil
}

// chunked cuts a trace into batches of the given size.
func chunked(tr *trace.Trace, size int) *sliceSource {
	s := &sliceSource{}
	for lo := 0; lo < len(tr.Packets); lo += size {
		hi := lo + size
		if hi > len(tr.Packets) {
			hi = len(tr.Packets)
		}
		s.batches = append(s.batches, tr.Packets[lo:hi])
	}
	return s
}

func streamTestTrace(t testing.TB, flows int) *trace.Trace {
	t.Helper()
	cfg := flowgen.DefaultWebConfig()
	cfg.Seed = 7
	cfg.Flows = flows
	cfg.Duration = 5 * time.Second
	return flowgen.Web(cfg)
}

func encodeArchive(t *testing.T, a *Archive) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCompressStreamEmptySource(t *testing.T) {
	arch, err := pipeStream(&sliceSource{}, DefaultOptions(), PipelineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if arch.Packets() != 0 || arch.Flows() != 0 {
		t.Fatalf("empty stream: %d packets, %d flows", arch.Packets(), arch.Flows())
	}
	serial, err := Compress(trace.New("empty"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeArchive(t, arch), encodeArchive(t, serial)) {
		t.Error("empty stream archive differs from serial empty archive")
	}
}

func TestCompressStreamSingleBatch(t *testing.T) {
	tr := streamTestTrace(t, 300)
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// One batch holding the whole trace, plus interleaved empty batches
	// (sources are allowed to yield).
	src := &sliceSource{batches: [][]pkt.Packet{nil, tr.Packets, {}}}
	arch, err := pipeStream(src, DefaultOptions(), PipelineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeArchive(t, arch), encodeArchive(t, serial)) {
		t.Error("single-batch stream archive differs from serial")
	}
}

func TestCompressStreamSourceError(t *testing.T) {
	tr := streamTestTrace(t, 300)
	before := runtime.NumGoroutine()
	sentinel := errors.New("disk on fire")
	for _, workers := range []int{1, 4} {
		src := chunked(tr, 128)
		src.batches = src.batches[:len(src.batches)/2]
		src.err = sentinel
		if _, err := pipeStream(src, DefaultOptions(), PipelineConfig{Workers: workers}); !errors.Is(err, sentinel) {
			t.Fatalf("workers %d: error %v, want wrapped %v", workers, err, sentinel)
		}
	}
	// The shard workers must have exited: poll briefly for the goroutine
	// count to settle back to the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, now)
	}
}

func TestCompressStreamUnsorted(t *testing.T) {
	p := func(ts time.Duration) pkt.Packet {
		return pkt.Packet{Timestamp: ts, Proto: pkt.ProtoTCP, SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 80}
	}
	src := &sliceSource{batches: [][]pkt.Packet{{p(time.Second), p(time.Millisecond)}}}
	if _, err := pipeStream(src, DefaultOptions(), PipelineConfig{Workers: 2}); err == nil {
		t.Fatal("out-of-order stream compressed without error")
	}
}

func TestCompressStreamInvalidOptions(t *testing.T) {
	opts := DefaultOptions()
	opts.ShortMax = 0
	if _, err := pipeStream(&sliceSource{}, opts, PipelineConfig{Workers: 2}); err == nil {
		t.Fatal("invalid options accepted")
	}
}

// TestCompressStreamResidencyBounded is the bounded-memory acceptance
// property: at every worker count up to flow.MaxShards, the packets resident
// in the shard channels never exceed streamWindow over a stream several
// windows long, and the archive is still the serial one.
func TestCompressStreamResidencyBounded(t *testing.T) {
	tr := streamTestTrace(t, 10000)
	if tr.Len() < 3*streamWindow {
		t.Fatalf("%d packets, fewer than 3 windows of %d", tr.Len(), streamWindow)
	}
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := encodeBytes(t, serial)
	for _, workers := range []int{2, 4, flow.MaxShards} {
		m := NewPipelineMetrics(obs.NewRegistry(), "pipeline")
		arch, err := pipeStream(chunked(tr, 100), DefaultOptions(), PipelineConfig{Workers: workers, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeBytes(t, arch), want) {
			t.Errorf("%d workers: archive differs from serial", workers)
		}
		if got := m.ResidentPeak.Load(); got == 0 || got > streamWindow {
			t.Errorf("%d workers: resident peak %d outside (0, %d]", workers, got, streamWindow)
		}
	}
}

// TestCompressStreamProgress checks the progress callback reports a
// monotone cumulative count ending at the stream length.
func TestCompressStreamProgress(t *testing.T) {
	tr := streamTestTrace(t, 200)
	var last int64
	calls := 0
	cfg := PipelineConfig{Workers: 2, Progress: func(n int64) {
		if n < last {
			t.Errorf("progress went backwards: %d after %d", n, last)
		}
		last = n
		calls++
	}}
	if _, err := pipeStream(chunked(tr, 64), DefaultOptions(), cfg); err != nil {
		t.Fatal(err)
	}
	if last != int64(tr.Len()) {
		t.Errorf("final progress %d, want %d", last, tr.Len())
	}
	if calls < 2 {
		t.Errorf("progress called %d times, want at least one per batch", calls)
	}
}
