package flowzip_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"flowzip"
	"flowzip/internal/flow"
)

// The integration suite exercises complete user journeys through the public
// API, end to end.

func TestIntegrationFileBasedPipeline(t *testing.T) {
	dir := t.TempDir()

	// 1. Generate and persist a trace.
	cfg := flowzip.DefaultWebConfig()
	cfg.Seed = 101
	cfg.Flows = 800
	cfg.Duration = 10 * time.Second
	tr := flowzip.GenerateWeb(cfg)
	tracePath := filepath.Join(dir, "web.tsh")
	if err := tr.SaveFile(tracePath); err != nil {
		t.Fatal(err)
	}

	// 2. Reload and compress.
	loaded, err := flowzip.LoadTrace(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := flowzip.Compress(loaded, flowzip.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// 3. Persist the archive and reload it.
	fzPath := filepath.Join(dir, "web.fz")
	f, err := os.Create(fzPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arch.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f, err = os.Open(fzPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	arch2, err := flowzip.DecodeArchive(f)
	if err != nil {
		t.Fatal(err)
	}

	// 4. Decompress and persist as pcap.
	dec, err := flowzip.Decompress(arch2)
	if err != nil {
		t.Fatal(err)
	}
	pcapPath := filepath.Join(dir, "decomp.pcap")
	if err := dec.SaveFile(pcapPath); err != nil {
		t.Fatal(err)
	}
	back, err := flowzip.LoadTrace(pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("pipeline lost packets: %d -> %d", tr.Len(), back.Len())
	}
}

func TestIntegrationStatisticalInvariants(t *testing.T) {
	cfg := flowzip.DefaultWebConfig()
	cfg.Seed = 102
	cfg.Flows = 2000
	cfg.Duration = 15 * time.Second
	tr := flowzip.GenerateWeb(cfg)
	arch, err := flowzip.Compress(tr, flowzip.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := flowzip.Decompress(arch)
	if err != nil {
		t.Fatal(err)
	}

	origFlows := flow.Assemble(tr.Packets)
	decFlows := flow.Assemble(dec.Packets)
	origDist := flow.MeasureLengths(tr.Packets)
	decDist := flow.MeasureLengths(dec.Packets)

	// Flow-length distribution is preserved exactly (templates keep n).
	for _, n := range origDist.Lengths() {
		if origDist.Counts[n] != decDist.Counts[n] {
			t.Fatalf("length %d: %d flows became %d", n, origDist.Counts[n], decDist.Counts[n])
		}
	}

	// First-packet timestamps are preserved (µs resolution).
	for i, f := range origFlows {
		if i >= len(decFlows) {
			break
		}
		d := f.FirstTimestamp() - decFlows[i].FirstTimestamp()
		if d < -time.Millisecond || d > time.Millisecond {
			t.Fatalf("flow %d start drift %v", i, d)
		}
	}

	// Per-flow server addresses preserved as a set.
	origServers := map[uint32]bool{}
	for _, f := range origFlows {
		origServers[uint32(f.ServerIP())] = true
	}
	for _, f := range decFlows {
		if !origServers[uint32(f.ServerIP())] {
			t.Fatalf("decompressed server %v not in original set", f.ServerIP())
		}
	}
}

func TestIntegrationP2PPipeline(t *testing.T) {
	cfg := flowzip.DefaultP2PConfig()
	cfg.Seed = 103
	cfg.Flows = 800
	cfg.Duration = 10 * time.Second
	tr := flowzip.GenerateP2P(cfg)

	arch, err := flowzip.Compress(tr, flowzip.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := arch.Ratio()
	if err != nil {
		t.Fatal(err)
	}
	// The method still compresses P2P traffic strongly (future-work claim).
	if ratio > 0.15 {
		t.Fatalf("p2p ratio = %v", ratio)
	}
	dec, err := flowzip.Decompress(arch)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Len() != tr.Len() {
		t.Fatalf("p2p packets %d -> %d", tr.Len(), dec.Len())
	}
}

func TestIntegrationSynthesisChain(t *testing.T) {
	// model -> synthesize -> compress -> synthesize again: the template
	// library must stay closed under this loop.
	cfg := flowzip.DefaultWebConfig()
	cfg.Seed = 104
	cfg.Flows = 500
	cfg.Duration = 8 * time.Second
	tr := flowzip.GenerateWeb(cfg)
	a1, err := flowzip.Compress(tr, flowzip.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s1, err := flowzip.Synthesize(a1, flowzip.SynthConfig{Seed: 1, Flows: 1000, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := flowzip.Compress(s1, flowzip.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(a2.ShortTemplates) > len(a1.ShortTemplates) {
		t.Fatalf("template library grew: %d -> %d", len(a1.ShortTemplates), len(a2.ShortTemplates))
	}
	s2, err := flowzip.Synthesize(a2, flowzip.SynthConfig{Seed: 2, Flows: 500, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() == 0 {
		t.Fatal("second-generation synthesis empty")
	}
}
