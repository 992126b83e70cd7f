package core

import (
	"bytes"
	"testing"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/flowgen"
	"flowzip/internal/trace"
)

// encodeBytes renders an archive to its container bytes.
func encodeBytes(t testing.TB, a *Archive) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestCompressParallelByteIdentical is the strongest form of the
// serial/parallel equivalence property: the merged archive must encode to
// exactly the bytes the serial compressor produces, for every worker count.
func TestCompressParallelByteIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		tr := webTrace(seed, 800)
		serial, err := Compress(tr, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want := encodeBytes(t, serial)
		for _, workers := range []int{1, 2, 3, 4, 8, 16} {
			par, err := pipeTrace(tr, DefaultOptions(), PipelineConfig{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if err := par.Validate(); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			got := encodeBytes(t, par)
			if !bytes.Equal(want, got) {
				t.Errorf("seed %d workers %d: archive bytes differ (%d vs %d bytes)",
					seed, workers, len(want), len(got))
			}
		}
	}
}

// TestCompressParallelRatio pins the acceptance property directly: identical
// Ratio() across worker counts.
func TestCompressParallelRatio(t *testing.T) {
	tr := webTrace(7, 1500)
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Ratio()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := pipeTrace(tr, DefaultOptions(), PipelineConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.Ratio()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("workers %d: ratio %v, serial %v", workers, got, want)
		}
	}
}

// TestCompressParallelNonDefaultOptions exercises the merge under a changed
// threshold and short-flow cutoff, including the degenerate zero threshold
// where every short flow must create its own template.
func TestCompressParallelNonDefaultOptions(t *testing.T) {
	tr := webTrace(11, 600)
	for _, mod := range []func(*Options){
		func(o *Options) { o.LimitPct = 0 },
		func(o *Options) { o.LimitPct = 10 },
		func(o *Options) { o.ShortMax = 5 },
	} {
		opts := DefaultOptions()
		mod(&opts)
		serial, err := Compress(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		par, err := pipeTrace(tr, opts, PipelineConfig{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeBytes(t, serial), encodeBytes(t, par)) {
			t.Errorf("opts %+v: parallel archive differs from serial", opts)
		}
	}
}

// TestCompressParallelDecompressedStats checks the satellite property the
// issue asks for explicitly: identical decompressed-trace statistics.
func TestCompressParallelDecompressedStats(t *testing.T) {
	tr := webTrace(5, 1000)
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sTr, err := Decompress(serial)
	if err != nil {
		t.Fatal(err)
	}
	want := sTr.ComputeStats()
	for _, workers := range []int{2, 8} {
		par, err := pipeTrace(tr, DefaultOptions(), PipelineConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		pTr, err := Decompress(par)
		if err != nil {
			t.Fatal(err)
		}
		if got := pTr.ComputeStats(); got != want {
			t.Errorf("workers %d: decompressed stats %+v, serial %+v", workers, got, want)
		}
	}
}

// TestCompressParallelEdgeCases covers empty input, the worker-count bounds
// and the error paths shared with the serial compressor.
func TestCompressParallelEdgeCases(t *testing.T) {
	empty := trace.New("empty")
	a, err := pipeTrace(empty, DefaultOptions(), PipelineConfig{Workers: 8})
	if err != nil {
		t.Fatalf("empty: %v", err)
	}
	if a.Flows() != 0 || a.Packets() != 0 {
		t.Errorf("empty: flows=%d packets=%d", a.Flows(), a.Packets())
	}

	tr := webTrace(9, 50)
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// The most workers the partition allows: tiny traces with mostly-empty
	// shards must still merge correctly.
	par, err := pipeTrace(tr, DefaultOptions(), PipelineConfig{Workers: flow.MaxShards})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBytes(t, serial), encodeBytes(t, par)) {
		t.Error("flow.MaxShards workers: archive differs from serial")
	}
	// Workers 0 selects the CPU count.
	if _, err := pipeTrace(tr, DefaultOptions(), PipelineConfig{}); err != nil {
		t.Fatal(err)
	}

	unsorted := trace.New("unsorted")
	unsorted.Packets = append(unsorted.Packets, tr.Packets[1], tr.Packets[0])
	unsorted.Packets[0].Timestamp = 2 * time.Second
	unsorted.Packets[1].Timestamp = time.Second
	if _, err := pipeTrace(unsorted, DefaultOptions(), PipelineConfig{Workers: 4}); err == nil {
		t.Error("unsorted trace: expected error")
	}

	bad := DefaultOptions()
	bad.ShortMax = 0
	if _, err := pipeTrace(tr, bad, PipelineConfig{Workers: 4}); err == nil {
		t.Error("invalid options: expected error")
	}
}

// TestCompressParallelFractal runs the pipeline over the non-Web workload to
// make sure equivalence is not an artifact of the Web generator's flow mix.
func TestCompressParallelFractal(t *testing.T) {
	cfg := flowgen.DefaultFractalConfig()
	cfg.Seed = 3
	cfg.Packets = 20000
	tr := flowgen.Fractal(cfg)
	if !tr.IsSorted() {
		tr.Sort()
	}
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	par, err := pipeTrace(tr, DefaultOptions(), PipelineConfig{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBytes(t, serial), encodeBytes(t, par)) {
		t.Error("fractal trace: parallel archive differs from serial")
	}
}
