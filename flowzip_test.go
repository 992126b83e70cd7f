package flowzip_test

import (
	"bytes"
	"errors"
	"io"
	"slices"
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

// TestFacadeDecodePaths: a drained Decompressor and a parallel decode return
// Decompress's packets, and the indexed read path refuses an archive without
// a footer with ErrNoIndex and one with a corrupt footer with ErrBadIndex.
func TestFacadeDecodePaths(t *testing.T) {
	cfg := flowzip.DefaultWebConfig()
	cfg.Flows = 300
	cfg.Duration = 5 * time.Second
	arch, err := flowzip.Compress(flowzip.GenerateWeb(cfg), flowzip.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := flowzip.Decompress(arch)
	if err != nil {
		t.Fatal(err)
	}
	d, err := flowzip.NewDecompressor(arch)
	if err != nil {
		t.Fatal(err)
	}
	var drained []flowzip.Packet
	for {
		batch, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		drained = append(drained, batch...)
	}
	if !slices.Equal(drained, want.Packets) {
		t.Error("a drained Decompressor differs from Decompress")
	}
	par, err := flowzip.DecompressParallel(arch, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(par.Packets, want.Packets) {
		t.Error("DecompressParallel differs from Decompress")
	}

	var plain bytes.Buffer
	if _, err := arch.Encode(&plain); err != nil {
		t.Fatal(err)
	}
	if _, err := flowzip.OpenArchive(bytes.NewReader(plain.Bytes()), int64(plain.Len())); !errors.Is(err, flowzip.ErrNoIndex) {
		t.Errorf("OpenArchive without a footer: %v, want ErrNoIndex", err)
	}
	arch.Index = flowzip.IndexConfig{Enabled: true}
	var indexed bytes.Buffer
	if _, err := arch.Encode(&indexed); err != nil {
		t.Fatal(err)
	}
	b := indexed.Bytes()
	b[len(b)-13] ^= 0xff // the footer payload's last byte, under its checksum
	if _, err := flowzip.OpenArchive(bytes.NewReader(b), int64(len(b))); !errors.Is(err, flowzip.ErrBadIndex) {
		t.Errorf("OpenArchive with a corrupt footer: %v, want ErrBadIndex", err)
	}
}

// TestFacadeStreamingCompressor: a Pipeline pulling one packet a batch
// accounts for every packet of its input.
func TestFacadeStreamingCompressor(t *testing.T) {
	cfg := flowzip.DefaultWebConfig()
	cfg.Flows = 100
	cfg.Duration = 5 * time.Second
	tr := flowzip.GenerateWeb(cfg)

	p, err := flowzip.New(flowzip.DefaultOptions(), flowzip.Config{})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := p.Compress(flowzip.TraceSource(tr, 1))
	if err != nil {
		t.Fatal(err)
	}
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
