package flowzip_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"flowzip"
)

// compressTrace and compressStream are New plus one run, for tests that vary
// the configuration per case.
func compressTrace(tr *flowzip.Trace, cfg flowzip.Config) (*flowzip.Archive, error) {
	p, err := flowzip.New(flowzip.DefaultOptions(), cfg)
	if err != nil {
		return nil, err
	}
	return p.Compress(flowzip.TraceSource(tr, 0))
}

func compressStream(src flowzip.PacketSource, cfg flowzip.Config) (*flowzip.Archive, error) {
	p, err := flowzip.New(flowzip.DefaultOptions(), cfg)
	if err != nil {
		return nil, err
	}
	return p.Compress(src)
}

// TestCompressParallelEquivalence is the acceptance property stated over the
// public API: on seeded GenerateWeb traces, Pipeline.Compress yields the
// same bytes, Ratio() and decompressed-trace statistics as the serial
// Compress, whatever the deprecated, ignored Config.Workers says. Under
// go test -race -cpu 1,2,4 it runs one stage at one P and two, checked for
// data races, from two on.
func TestCompressParallelEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 4, 9} {
		cfg := flowzip.DefaultWebConfig()
		cfg.Seed = seed
		cfg.Flows = 1200
		cfg.Duration = 10 * time.Second
		tr := flowzip.GenerateWeb(cfg)

		serial, err := flowzip.Compress(tr, flowzip.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		wantRatio, err := serial.Ratio()
		if err != nil {
			t.Fatal(err)
		}
		serialTr, err := flowzip.Decompress(serial)
		if err != nil {
			t.Fatal(err)
		}
		wantStats := serialTr.ComputeStats()

		for _, workers := range []int{1, 2, 8} {
			par, err := compressTrace(tr, flowzip.Config{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			gotRatio, err := par.Ratio()
			if err != nil {
				t.Fatal(err)
			}
			if gotRatio != wantRatio {
				t.Errorf("seed %d workers %d: ratio %v, serial %v",
					seed, workers, gotRatio, wantRatio)
			}
			parTr, err := flowzip.Decompress(par)
			if err != nil {
				t.Fatal(err)
			}
			if gotStats := parTr.ComputeStats(); gotStats != wantStats {
				t.Errorf("seed %d workers %d: decompressed stats %+v, serial %+v",
					seed, workers, gotStats, wantStats)
			}

			var sb, pb bytes.Buffer
			if _, err := serial.Encode(&sb); err != nil {
				t.Fatal(err)
			}
			if _, err := par.Encode(&pb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
				t.Errorf("seed %d workers %d: encoded archives differ", seed, workers)
			}
		}
	}
}

// generatorTraces builds one modest trace per synthetic workload — Web,
// Fractal and P2P — so the equivalence property is checked against every
// traffic model the paper and its future-work section define, not just the
// template-heavy Web mix.
func generatorTraces(t *testing.T) map[string]*flowzip.Trace {
	t.Helper()
	web := flowzip.DefaultWebConfig()
	web.Seed = 2
	web.Flows = 900
	web.Duration = 10 * time.Second

	frac := flowzip.DefaultFractalConfig()
	frac.Seed = 5
	frac.Packets = 15000

	p2p := flowzip.DefaultP2PConfig()
	p2p.Seed = 8
	p2p.Flows = 700
	p2p.Peers = 60
	p2p.Duration = 8 * time.Second

	traces := map[string]*flowzip.Trace{
		"web":     flowzip.GenerateWeb(web),
		"fractal": flowzip.GenerateFractal(frac),
		"p2p":     flowzip.GenerateP2P(p2p),
	}
	for name, tr := range traces {
		if !tr.IsSorted() {
			tr.Sort()
		}
		if tr.Len() == 0 {
			t.Fatalf("%s generator produced an empty trace", name)
		}
	}
	return traces
}

// TestGeneratorsEquivalence is the byte-identity property over the public
// API on every generator: Pipeline.Compress, over 4096- and over 777-packet
// batches, produces archives byte-for-byte identical to serial Compress for
// Web, Fractal and P2P traffic. The subtests set the deprecated Config.Workers to
// 1, 2, 4 and 8, which must change nothing: the schedule follows GOMAXPROCS.
func TestGeneratorsEquivalence(t *testing.T) {
	for name, tr := range generatorTraces(t) {
		t.Run(name, func(t *testing.T) {
			serial, err := flowzip.Compress(tr, flowzip.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			want := encodeBytes(t, serial)
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					par, err := compressTrace(tr, flowzip.Config{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(want, encodeBytes(t, par)) {
						t.Error("pipeline archive differs from serial")
					}
					arch, err := compressStream(flowzip.TraceSource(tr, 777), flowzip.Config{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(want, encodeBytes(t, arch)) {
						t.Error("streaming archive differs from serial")
					}
				})
			}
		})
	}
}
