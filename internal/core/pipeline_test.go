package core

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"flowzip/internal/flow"
	"flowzip/internal/obs"
	"flowzip/internal/trace"
)

// TestNewPipelineValidation: the entry point rejects out-of-range knobs
// instead of clamping them.
func TestNewPipelineValidation(t *testing.T) {
	opts := DefaultOptions()
	if _, err := NewPipeline(opts, PipelineConfig{}); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if _, err := NewPipeline(opts, PipelineConfig{Workers: -1}); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := NewPipeline(opts, PipelineConfig{Workers: flow.MaxShards + 1}); err == nil {
		t.Error("workers beyond MaxShards accepted")
	}
	bad := DefaultOptions()
	bad.ShortMax = 1
	if _, err := NewPipeline(bad, PipelineConfig{}); err == nil {
		t.Error("invalid options accepted")
	}
}

// TestPipelineByteIdentical: both Pipeline inputs — a stream and a
// materialized trace — reproduce the serial archive byte for byte, on a Web
// trace and on the all-distinct adversarialTrace, where no memo hit can hide
// a misordered merge.
func TestPipelineByteIdentical(t *testing.T) {
	traces := map[string]*trace.Trace{
		"web":         webTrace(61, 400),
		"adversarial": adversarialTrace(400),
	}
	opts := DefaultOptions()
	for name, tr := range traces {
		if !tr.IsSorted() {
			t.Fatalf("%s trace is not timestamp sorted", name)
		}
		serial, err := Compress(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := encodeBytes(t, serial)
		for _, workers := range []int{0, 1, 2, 3, 4, 8} {
			p, err := NewPipeline(opts, PipelineConfig{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			fromTrace, err := p.CompressTrace(tr)
			if err != nil {
				t.Fatal(err)
			}
			fromStream, err := p.Compress(trace.Batches(tr, 128))
			if err != nil {
				t.Fatal(err)
			}
			for shape, arch := range map[string]*Archive{"trace": fromTrace, "stream": fromStream} {
				if !bytes.Equal(encodeBytes(t, arch), want) {
					t.Errorf("%s workers=%d %s archive differs from serial", name, workers, shape)
				}
			}
		}
	}
}

// TestPipelineWorkersReporting: Workers reports the configured count, before
// and after a run, and resolves 0 to the CPU default.
func TestPipelineWorkersReporting(t *testing.T) {
	opts := DefaultOptions()
	p, err := NewPipeline(opts, PipelineConfig{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.Workers() != 3 {
		t.Errorf("Workers() = %d, want 3", p.Workers())
	}
	if _, err := p.CompressTrace(webTrace(62, 50)); err != nil {
		t.Fatal(err)
	}
	if p.Workers() != 3 {
		t.Errorf("Workers() after a run = %d, want 3", p.Workers())
	}
	p, err = NewPipeline(opts, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Workers() != defaultWorkers() {
		t.Errorf("Workers() = %d, want defaultWorkers %d", p.Workers(), defaultWorkers())
	}
}

// TestDefaultWorkersCapped: the documented default, Workers 0, must compress
// on a host with more CPUs than the partition has shards. Uncapped it asked
// flow.Partition for 300 shards, which panics.
func TestDefaultWorkersCapped(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(300))
	if got := defaultWorkers(); got != flow.MaxShards {
		t.Fatalf("defaultWorkers() = %d with GOMAXPROCS 300, want %d", got, flow.MaxShards)
	}
	tr := webTrace(65, 300)
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := encodeBytes(t, serial)
	fromStream, err := pipeStream(trace.Batches(tr, 128), DefaultOptions(), PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fromTrace, err := pipeTrace(tr, DefaultOptions(), PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBytes(t, fromStream), want) || !bytes.Equal(encodeBytes(t, fromTrace), want) {
		t.Error("default-worker archives differ from serial")
	}
}

// pipeTrace and pipeStream are NewPipeline plus one run, for tests that vary
// the configuration per case.
func pipeTrace(tr *trace.Trace, opts Options, cfg PipelineConfig) (*Archive, error) {
	p, err := NewPipeline(opts, cfg)
	if err != nil {
		return nil, err
	}
	return p.CompressTrace(tr)
}

func pipeStream(src PacketSource, opts Options, cfg PipelineConfig) (*Archive, error) {
	p, err := NewPipeline(opts, cfg)
	if err != nil {
		return nil, err
	}
	return p.Compress(src)
}

// oneShardTrace is distinctTrace's flows whose canonical key has an even
// FNV-1a hash: under an unseeded FNV split, every one of its packets goes to
// one of two workers.
func oneShardTrace(flows int) *trace.Trace {
	src := distinctTrace(7, flows)
	tr := trace.New("one-shard")
	for i := range src.Packets {
		if src.Packets[i].Key().Hash()%2 == 0 {
			tr.Append(src.Packets[i])
		}
	}
	return tr
}

// TestShardSeedSpreadsOneShardKeys: the shard hash is keyed per call, so keys
// chosen to share a worker under the unseeded hash spread over both workers
// of every run. The shard-compress spans report each worker's packets.
func TestShardSeedSpreadsOneShardKeys(t *testing.T) {
	tr := oneShardTrace(1000)
	for run := range 4 {
		tc := obs.NewTracer("flowzip")
		p, err := NewPipeline(DefaultOptions(), PipelineConfig{Workers: 2, Trace: tc})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.CompressTrace(tr); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := tc.Write(&b); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		var perWorker []int
		for _, ev := range doc.TraceEvents {
			if ev.Name == "shard-compress" {
				perWorker = append(perWorker, int(ev.Args["packets"].(float64)))
			}
		}
		if len(perWorker) != 2 || perWorker[0]+perWorker[1] != tr.Len() {
			t.Fatalf("run %d: workers took %v packets, want 2 workers sharing %d", run, perWorker, tr.Len())
		}
		t.Logf("run %d: workers took %v packets", run, perWorker)
		if most := max(perWorker[0], perWorker[1]); most > 3*tr.Len()/4 {
			t.Errorf("run %d: one worker took %d of %d packets, budget 75 %%", run, most, tr.Len())
		}
	}
}

// TestShardSeedInvisible: the shard seed moves no archive byte. Traces and
// streams split under different seeds merge to the serial archive.
func TestShardSeedInvisible(t *testing.T) {
	tr := oneShardTrace(400)
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := encodeBytes(t, serial)
	for _, workers := range []int{2, 4} {
		p, err := NewPipeline(DefaultOptions(), PipelineConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{1, 2, 0x9e3779b97f4a7c15} {
			fromTrace, err := p.compressTrace(tr, seed)
			if err != nil {
				t.Fatal(err)
			}
			fromStream, err := p.compress(trace.Batches(tr, 128), seed)
			if err != nil {
				t.Fatal(err)
			}
			for shape, arch := range map[string]*Archive{"trace": fromTrace, "stream": fromStream} {
				if !bytes.Equal(encodeBytes(t, arch), want) {
					t.Errorf("workers=%d seed %#x: %s archive differs from serial", workers, seed, shape)
				}
			}
		}
	}
}
