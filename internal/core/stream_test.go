package core

import (
	"bytes"
	"errors"
	"fmt"
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

// TestCompressStreamUnsorted: every entry point refuses a trace with one
// packet out of place, wrapping ErrUnsorted — Compress, and Pipeline.Compress
// and Pipeline.CompressTrace at one and at two workers.
func TestCompressStreamUnsorted(t *testing.T) {
	unsorted := streamTestTrace(t, 200)
	last := unsorted.Packets[unsorted.Len()-1]
	copy(unsorted.Packets[1:], unsorted.Packets)
	unsorted.Packets[0] = last // the newest packet first
	entries := map[string]func() (*Archive, error){
		"Compress": func() (*Archive, error) { return Compress(unsorted, DefaultOptions()) },
	}
	for _, workers := range []int{1, 2} {
		p, err := NewPipeline(DefaultOptions(), PipelineConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		entries[fmt.Sprintf("Pipeline.Compress, %d workers", workers)] = func() (*Archive, error) {
			return p.Compress(trace.Batches(unsorted, 64))
		}
		entries[fmt.Sprintf("Pipeline.CompressTrace, %d workers", workers)] = func() (*Archive, error) {
			return p.CompressTrace(unsorted)
		}
	}
	for name, compress := range entries {
		if a, err := compress(); a != nil || !errors.Is(err, ErrUnsorted) {
			t.Errorf("%s: archive %v, err %v; want ErrUnsorted", name, a != nil, err)
		}
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
