package flowzip_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"flowzip"
)

// encodeBytes serializes an archive for byte-for-byte comparison.
func encodeBytes(t *testing.T, a *flowzip.Archive) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCompressStreamEquivalence is the acceptance property stated over the
// public API: Pipeline.Compress over a chunked trace produces a
// byte-identical archive to serial Compress over the whole trace, across batch sizes down to one packet per
// batch, whatever the deprecated, ignored Config.Workers says. Run under
// go test -race -cpu 1,2,4 to exercise the two stages for data races.
func TestCompressStreamEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 9} {
		cfg := flowzip.DefaultWebConfig()
		cfg.Seed = seed
		cfg.Flows = 1200
		cfg.Duration = 10 * time.Second
		tr := flowzip.GenerateWeb(cfg)

		serial, err := flowzip.Compress(tr, flowzip.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want := encodeBytes(t, serial)

		for _, workers := range []int{1, 2, 4, 8} {
			par, err := compressTrace(tr, flowzip.Config{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeBytes(t, par), want) {
				t.Errorf("seed %d workers %d: pipeline archive differs from serial", seed, workers)
			}
			for _, batch := range []int{1, 7, 1024} {
				src := flowzip.TraceSource(tr, batch)
				arch, err := compressStream(src, flowzip.Config{Workers: workers})
				if err != nil {
					t.Fatalf("seed %d workers %d batch %d: %v", seed, workers, batch, err)
				}
				if !bytes.Equal(encodeBytes(t, arch), want) {
					t.Errorf("seed %d workers %d batch %d: stream archive differs from serial",
						seed, workers, batch)
				}
			}
		}
	}
}

// TestOpenPcapStream round-trips a capture file through the public
// streaming entry points: save as pcap, OpenPcap, Pipeline.Compress, and
// compare byte-for-byte against compressing the loaded trace serially.
func TestOpenPcapStream(t *testing.T) {
	cfg := flowzip.DefaultWebConfig()
	cfg.Seed = 5
	cfg.Flows = 400
	cfg.Duration = 5 * time.Second
	tr := flowzip.GenerateWeb(cfg)

	path := filepath.Join(t.TempDir(), "web.pcap")
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	loaded, err := flowzip.LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := flowzip.Compress(loaded, flowzip.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	src, err := flowzip.OpenPcap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	arch, err := compressStream(src, flowzip.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBytes(t, arch), encodeBytes(t, serial)) {
		t.Error("streamed pcap archive differs from serial over the loaded trace")
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	// Make sure the temp file actually held a capture, not an empty stub.
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("capture file missing or empty: %v", err)
	}
}
