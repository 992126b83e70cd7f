package flowzip_test

import (
	"bytes"
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
	return p.CompressTrace(tr)
}

func compressStream(src flowzip.PacketSource, cfg flowzip.Config) (*flowzip.Archive, error) {
	p, err := flowzip.New(flowzip.DefaultOptions(), cfg)
	if err != nil {
		return nil, err
	}
	return p.Compress(src)
}

// TestCompressParallelEquivalence is the issue's acceptance property, stated
// over the public API: on seeded GenerateWeb traces, Pipeline.CompressTrace
// with 1, 2 and 8 workers yields the same Ratio() and the same decompressed-trace
// statistics as the serial Compress. Run it under -race to also exercise the
// shard workers for data races.
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
