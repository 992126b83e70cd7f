package core

import (
	"bytes"
	"testing"

	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/trace"
)

// TestNewPipelineValidation: the entry point rejects invalid options and
// index settings instead of clamping them. The deprecated Workers field is
// ignored: no value of it is refused.
func TestNewPipelineValidation(t *testing.T) {
	opts := DefaultOptions()
	for _, workers := range []int{-1, 0, 1, 300} {
		if _, err := NewPipeline(opts, PipelineConfig{Workers: workers}); err != nil {
			t.Errorf("workers %d rejected: %v", workers, err)
		}
	}
	bad := DefaultOptions()
	bad.ShortMax = 1
	if _, err := NewPipeline(bad, PipelineConfig{}); err == nil {
		t.Error("invalid options accepted")
	}
	if _, err := NewPipeline(opts, PipelineConfig{Index: IndexConfig{Enabled: true, GroupSize: -1}}); err == nil {
		t.Error("negative index group size accepted")
	}
}

// TestPipelineByteIdentical: both Pipeline inputs — a stream and a
// materialized trace — reproduce Compress's archive byte for byte, on a Web
// trace and on the all-distinct adversarialTrace, where no memo hit can hide
// a misordered record stage, and so do the two stages called outright, at
// whatever P the test runs.
func TestPipelineByteIdentical(t *testing.T) {
	traces := map[string]*trace.Trace{
		"web":         webTrace(61, 400),
		"adversarial": adversarialTrace(400),
	}
	opts := DefaultOptions()
	p, err := NewPipeline(opts, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range traces {
		if !tr.IsSorted() {
			t.Fatalf("%s trace is not timestamp sorted", name)
		}
		serial, err := Compress(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := encodeBytes(t, serial)
		fromTrace, err := p.Compress(trace.Batches(tr, 0))
		if err != nil {
			t.Fatal(err)
		}
		fromStream, err := p.Compress(trace.Batches(tr, 128))
		if err != nil {
			t.Fatal(err)
		}
		staged, err := p.run(trace.Batches(tr, 128), 2)
		if err != nil {
			t.Fatal(err)
		}
		for shape, arch := range map[string]*Archive{"trace": fromTrace, "stream": fromStream, "two-stage": staged} {
			if !bytes.Equal(encodeBytes(t, arch), want) {
				t.Errorf("%s %s archive differs from Compress", name, shape)
			}
		}
	}
}

// oneStage feeds packets, in the order given, to a one-stage table stage —
// below the pipeline's order check — ends the input as a run does and
// returns the recorded archive and the stage, its table back in the pool.
func oneStage(opts Options, packets []pkt.Packet) (*Archive, *tableStage) {
	r := newRecorder(opts)
	b := newFlowBatch(oneStageFlows, oneStageArena)
	s := &tableStage{opts: opts, cur: &b, rec: &r}
	s.table = flow.AcquireTable(s.finalize)
	for i := range packets {
		s.table.Add(&packets[i])
	}
	s.flush()
	s.table.Release()
	return r.archive(int64(len(packets))), s
}

// pipeTrace and pipeStream are NewPipeline plus one run, for tests that vary
// the configuration per case.
func pipeTrace(tr *trace.Trace, opts Options, cfg PipelineConfig) (*Archive, error) {
	p, err := NewPipeline(opts, cfg)
	if err != nil {
		return nil, err
	}
	return p.Compress(trace.Batches(tr, 0))
}

func pipeStream(src PacketSource, opts Options, cfg PipelineConfig) (*Archive, error) {
	p, err := NewPipeline(opts, cfg)
	if err != nil {
		return nil, err
	}
	return p.Compress(src)
}
