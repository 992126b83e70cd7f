package core

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

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
// property: the packets resident in the shard channels never exceed the
// configured window, however long the stream is.
func TestCompressStreamResidencyBounded(t *testing.T) {
	tr := streamTestTrace(t, 1500)
	const maxResident = 512
	m := NewPipelineMetrics(obs.NewRegistry(), "pipeline")
	cfg := PipelineConfig{Workers: 4, MaxResident: maxResident, Metrics: m}
	arch, err := pipeStream(chunked(tr, 100), DefaultOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Packets() != tr.Len() {
		t.Fatalf("packets %d, want %d", arch.Packets(), tr.Len())
	}
	if got := m.ResidentPeak.Load(); got > maxResident {
		t.Errorf("resident peak %d exceeds window %d", got, maxResident)
	}
	if m.ResidentPeak.Load() == 0 {
		t.Error("resident peak never recorded")
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
