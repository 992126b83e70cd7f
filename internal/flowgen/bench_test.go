package flowgen

import (
	"testing"
	"time"
)

// benchWebConfig is the benchmark's web workload at full size (50 000 flows
// arriving 6 ms apart, some 250 k packets) under another seed: large enough
// that the model's tables and the few 80 KB backings of the longest
// conversations are small beside the output.
func benchWebConfig() WebConfig {
	cfg := DefaultWebConfig()
	cfg.Seed = 3
	cfg.Flows = 50000
	cfg.Duration = time.Duration(cfg.Flows) * 6 * time.Millisecond
	return cfg
}

func BenchmarkWeb(b *testing.B) {
	cfg := benchWebConfig()
	b.ReportAllocs()
	packets := 0
	for i := 0; i < b.N; i++ {
		packets = Web(cfg).Len()
	}
	b.ReportMetric(float64(packets)*float64(b.N)/b.Elapsed().Seconds(), "packets/sec")
}
