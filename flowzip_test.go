package flowzip_test

import (
	"bytes"
	"testing"
	"time"

	"flowzip"
)

func TestFacadeEndToEnd(t *testing.T) {
	cfg := flowzip.DefaultWebConfig()
	cfg.Flows = 500
	cfg.Duration = 10 * time.Second
	tr := flowzip.GenerateWeb(cfg)
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}

	arch, err := flowzip.Compress(tr, flowzip.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := arch.Ratio()
	if err != nil {
		t.Fatal(err)
	}
	if ratio <= 0 || ratio > 0.15 {
		t.Fatalf("ratio = %v", ratio)
	}

	var buf bytes.Buffer
	if _, err := arch.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := flowzip.DecodeArchive(&buf)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := flowzip.Decompress(back)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Len() != tr.Len() {
		t.Fatalf("decompressed %d packets, want %d", dec.Len(), tr.Len())
	}
}

func TestFacadeStreamingCompressor(t *testing.T) {
	cfg := flowzip.DefaultWebConfig()
	cfg.Flows = 100
	cfg.Duration = 5 * time.Second
	tr := flowzip.GenerateWeb(cfg)

	c, err := flowzip.NewCompressor(flowzip.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Packets {
		c.Add(&tr.Packets[i])
	}
	arch := c.Finish()
	if arch.Packets() != tr.Len() {
		t.Fatalf("archive packets = %d", arch.Packets())
	}
	if arch.Flows() == 0 {
		t.Fatal("no flows in the archive")
	}
}

func TestFacadeBaselines(t *testing.T) {
	cfg := flowzip.DefaultWebConfig()
	cfg.Flows = 300
	cfg.Duration = 10 * time.Second
	tr := flowzip.GenerateWeb(cfg)

	methods := flowzip.Baselines()
	if len(methods) != 5 {
		t.Fatalf("baselines = %d", len(methods))
	}
	prev := 2.0
	for _, m := range methods {
		r, err := flowzip.BaselineRatio(m, tr)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if r >= prev {
			t.Fatalf("%s ratio %v not below previous %v", m.Name(), r, prev)
		}
		prev = r
	}
}

func TestFacadeGenerators(t *testing.T) {
	f := flowzip.GenerateFractal(flowzip.DefaultFractalConfig())
	if f.Len() == 0 {
		t.Fatal("fractal empty")
	}
	cfg := flowzip.DefaultWebConfig()
	cfg.Flows = 50
	tr := flowzip.GenerateWeb(cfg)
	r := flowzip.RandomizeAddresses(tr, 1)
	if r.Len() != tr.Len() {
		t.Fatal("randomize changed length")
	}
	if flowzip.NewTrace("x").Len() != 0 {
		t.Fatal("new trace not empty")
	}
}

func TestFacadeTraceIO(t *testing.T) {
	cfg := flowzip.DefaultWebConfig()
	cfg.Flows = 50
	cfg.Duration = 2 * time.Second
	tr := flowzip.GenerateWeb(cfg)
	path := t.TempDir() + "/t.tsh"
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := flowzip.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatal("round trip length mismatch")
	}
}
