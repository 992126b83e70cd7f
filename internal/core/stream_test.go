package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"flowzip/internal/alloctest"
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
	arch, err := pipeStream(&sliceSource{}, DefaultOptions(), PipelineConfig{})
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
	arch, err := pipeStream(src, DefaultOptions(), PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeArchive(t, arch), encodeArchive(t, serial)) {
		t.Error("single-batch stream archive differs from serial")
	}
}

// failsMidStream runs Pipeline.Compress over src at two Ps or more, so the
// record stage is running when src fails, and checks the failed run: it
// returns err (matched by errors.Is) and no archive, both stages' spans
// closed, the record stage having recorded flows before the failure; no
// goroutine stays behind, and the flow table and the batches are back in
// their pools. src must fail after more flows than a run's batches hold.
func failsMidStream(t *testing.T, name string, src PacketSource, err error) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	tc := obs.NewTracer("test")
	m := NewPipelineMetrics(obs.NewRegistry(), "pipeline")
	p, perr := NewPipeline(DefaultOptions(), PipelineConfig{Metrics: m, Trace: tc})
	if perr != nil {
		t.Fatal(perr)
	}
	goroutines := runtime.NumGoroutine()
	runtime.GC()
	runtime.GC() // empty the pool: a table in it comes from this run
	a, got := p.Compress(src)
	// The run released its table and batches in this goroutine just before
	// it returned, so the pools' slots for this P hold them.
	alloc := alloctest.Bytes(func() {
		flow.AcquireTable(nil).Release()
		batchPool.Put(acquireBatches())
	})
	if a != nil || !errors.Is(got, err) {
		t.Errorf("%s: archive %v, err %v; want %v", name, a != nil, got, err)
	}
	if !raceEnabled && alloc != 0 {
		t.Errorf("%s: the failed run kept its table or batches: the next acquires allocated %d bytes", name, alloc)
	}
	// The record stage signals its end just before it exits.
	for i := 0; i < 1000 && runtime.NumGoroutine() > goroutines; i++ {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%s: %d goroutines after the failed run, %d before it", name, n, goroutines)
	}
	if m.Store.Lookups.Load() == 0 {
		t.Errorf("%s: the record stage recorded no flow before the failure", name)
	}
	var b bytes.Buffer
	if err := tc.Write(&b); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans[ev.Name]++
		}
	}
	if spans["table"] != 1 || spans["record"] != 1 {
		t.Errorf("%s: spans %v, want one table and one record", name, spans)
	}
}

// TestCompressStreamSourceError: a source that fails mid-stream fails the
// run with its error, on either schedule, and a two-stage run leaves nothing
// behind (failsMidStream).
func TestCompressStreamSourceError(t *testing.T) {
	sentinel := errors.New("disk on fire")
	src := chunked(streamTestTrace(t, 300), 128)
	src.batches = src.batches[:len(src.batches)/2]
	src.err = sentinel
	if _, err := pipeStream(src, DefaultOptions(), PipelineConfig{}); !errors.Is(err, sentinel) {
		t.Fatalf("error %v, want wrapped %v", err, sentinel)
	}
	head := chunked(rstTrace(), 128)
	head.batches = head.batches[:len(head.batches)/2]
	head.err = sentinel
	failsMidStream(t, "source error", head, sentinel)
}

// TestCompressStreamUnsorted: every entry point refuses a trace with one
// packet out of place, wrapping ErrUnsorted — Compress, Pipeline.Compress and
// Pipeline.CompressTrace — and so does a two-stage run that meets the packet
// mid-stream, leaving nothing behind (failsMidStream).
func TestCompressStreamUnsorted(t *testing.T) {
	unsorted := streamTestTrace(t, 200)
	last := unsorted.Packets[unsorted.Len()-1]
	copy(unsorted.Packets[1:], unsorted.Packets)
	unsorted.Packets[0] = last // the newest packet first
	p, err := NewPipeline(DefaultOptions(), PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for name, compress := range map[string]func() (*Archive, error){
		"Compress":               func() (*Archive, error) { return Compress(unsorted, DefaultOptions()) },
		"Pipeline.Compress":      func() (*Archive, error) { return p.Compress(trace.Batches(unsorted, 64)) },
		"Pipeline.CompressTrace": func() (*Archive, error) { return p.CompressTrace(unsorted) },
	} {
		if a, err := compress(); a != nil || !errors.Is(err, ErrUnsorted) {
			t.Errorf("%s: archive %v, err %v; want ErrUnsorted", name, a != nil, err)
		}
	}
	head := chunked(rstTrace(), 128)
	head.batches = append(head.batches[:len(head.batches)/2], []pkt.Packet{{Timestamp: time.Millisecond, Proto: pkt.ProtoTCP, SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 80}})
	failsMidStream(t, "unsorted", head, ErrUnsorted)
}

func TestCompressStreamInvalidOptions(t *testing.T) {
	opts := DefaultOptions()
	opts.ShortMax = 0
	if _, err := pipeStream(&sliceSource{}, opts, PipelineConfig{}); err == nil {
		t.Fatal("invalid options accepted")
	}
}
