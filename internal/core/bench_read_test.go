package core

import (
	"bytes"
	"fmt"
	"testing"
)

// benchReadArchive compresses a mid-sized Web trace once per benchmark
// binary, for the read-path benchmarks (BENCH_read.json in CI).
func benchReadArchive(b *testing.B) (*Archive, []byte) {
	b.Helper()
	tr := webTrace(91, 5000)
	a, err := pipeTrace(tr, DefaultOptions(), PipelineConfig{})
	if err != nil {
		b.Fatal(err)
	}
	a.Index = IndexConfig{Enabled: true}
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	return a, buf.Bytes()
}

// BenchmarkDecompressParallel measures the parallel full decode against the
// worker count; workers=1 is the serial baseline the speedup is read from.
func BenchmarkDecompressParallel(b *testing.B) {
	a, _ := benchReadArchive(b)
	var packets int
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr, err := DecompressParallel(a, workers)
				if err != nil {
					b.Fatal(err)
				}
				packets = tr.Len()
			}
			b.ReportMetric(float64(packets)*float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
		})
	}
}

// BenchmarkExtractFlows measures selective decodes through the footer index,
// from a narrow one-server query to the match-all scan, against the full
// decode from the same Reader.
func BenchmarkExtractFlows(b *testing.B) {
	a, v2 := benchReadArchive(b)
	r, err := OpenReader(bytes.NewReader(v2), int64(len(v2)))
	if err != nil {
		b.Fatal(err)
	}
	queries := map[string]FlowFilter{
		"one-server": {Prefix: a.Addresses[len(a.Addresses)/2], PrefixLen: 32},
		"slash16":    {Prefix: a.Addresses[0], PrefixLen: 16},
		"all":        {},
	}
	for name, f := range queries {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var flows int
			for i := 0; i < b.N; i++ {
				tr, err := r.ExtractFlows(f)
				if err != nil {
					b.Fatal(err)
				}
				flows = tr.Len()
			}
			b.ReportMetric(float64(flows), "packets-out")
		})
	}
	b.Run("full-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.Decompress(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
