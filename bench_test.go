// Micro-benchmarks of the codec and its substrates. The paper's tables and
// figures are regenerated by cmd/figures and pinned by the tests of
// internal/figures; claims are measured by the harness under bench/
// (bash bench/run.sh).
//
// Run everything:  go test -bench=. -benchmem -run='^$' .
package flowzip_test

import (
	"io"
	"strconv"
	"sync"
	"testing"
	"time"

	"flowzip"
	"flowzip/internal/baseline"
	"flowzip/internal/cluster"
	"flowzip/internal/core"
	"flowzip/internal/flow"
	"flowzip/internal/memsim"
	"flowzip/internal/netbench"
	"flowzip/internal/radix"
	"flowzip/internal/stats"
	"flowzip/internal/trace"
)

var (
	benchTraceOnce sync.Once
	benchTrace     *trace.Trace
)

// sharedTrace builds one deterministic Web trace reused by the
// micro-benchmarks.
func sharedTrace() *trace.Trace {
	benchTraceOnce.Do(func() {
		cfg := flowzip.DefaultWebConfig()
		cfg.Seed = 1
		cfg.Flows = 4000
		cfg.Duration = 20 * time.Second
		benchTrace = flowzip.GenerateWeb(cfg)
	})
	return benchTrace
}

// BenchmarkCompressSerial measures serial codec throughput on the Web trace
// — the baseline every parallel and distributed mode must stay byte-identical
// to, and therefore the throughput ceiling of the whole stack.
func BenchmarkCompressSerial(b *testing.B) {
	b.ReportAllocs()
	tr := sharedTrace()
	b.SetBytes(int64(tr.Len()) * 44)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compress(tr, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	benchLargeOnce sync.Once
	benchLarge     *trace.Trace
)

// largeTrace builds the big deterministic Web trace for the pipeline
// benchmarks: enough flows that a two-stage run cycles its batches.
func largeTrace() *trace.Trace {
	benchLargeOnce.Do(func() {
		cfg := flowzip.DefaultWebConfig()
		cfg.Seed = 1
		cfg.Flows = 20000
		cfg.Duration = 60 * time.Second
		benchLarge = flowzip.GenerateWeb(cfg)
	})
	return benchLarge
}

// BenchmarkCompressStream measures Pipeline.Compress over the large Web
// trace fed in 4096-packet batches. The pipeline's schedule follows
// GOMAXPROCS, so -cpu 1,2 reads a one-stage run against a two-stage one.
func BenchmarkCompressStream(b *testing.B) {
	benchPipeline(b, func(p *flowzip.Pipeline, tr *trace.Trace) error {
		_, err := p.Compress(trace.Batches(tr, 4096))
		return err
	})
}

// benchPipeline times run over the large Web trace.
func benchPipeline(b *testing.B, run func(*flowzip.Pipeline, *trace.Trace) error) {
	tr := largeTrace()
	p, err := flowzip.New(flowzip.DefaultOptions(), flowzip.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(tr.Len()) * 44)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(p, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompress measures regeneration throughput.
func BenchmarkDecompress(b *testing.B) {
	b.ReportAllocs()
	tr := sharedTrace()
	arch, err := core.Compress(tr, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(tr.Len()) * 44)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Decompress(arch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArchiveEncode measures container serialization.
func BenchmarkArchiveEncode(b *testing.B) {
	b.ReportAllocs()
	arch, err := core.Compress(sharedTrace(), core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arch.Encode(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGZIPBaseline measures the GZIP comparison path.
func BenchmarkGZIPBaseline(b *testing.B) {
	b.ReportAllocs()
	tr := sharedTrace()
	b.SetBytes(int64(tr.Len()) * 44)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.Size(baseline.GZIP{}, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVJEncode measures the RFC 1144-adapted encoder.
func BenchmarkVJEncode(b *testing.B) {
	b.ReportAllocs()
	tr := sharedTrace()
	vj := baseline.NewVJ()
	b.SetBytes(int64(tr.Len()) * 44)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vj.Encode(io.Discard, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPeuhkuriEncode measures the Peuhkuri recoder.
func BenchmarkPeuhkuriEncode(b *testing.B) {
	b.ReportAllocs()
	tr := sharedTrace()
	pz := baseline.NewPeuhkuri()
	b.SetBytes(int64(tr.Len()) * 44)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pz.Encode(io.Discard, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRadixLookup measures uninstrumented longest-prefix-match.
func BenchmarkRadixLookup(b *testing.B) {
	b.ReportAllocs()
	rng := stats.NewRNG(1)
	tree, err := radix.BuildTable(radix.GenerateTable(rng, 100000), nil)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]uint32, 4096)
	for i := range addrs {
		addrs[i] = rng.Uint32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Lookup(addrs[i&4095])
	}
}

// BenchmarkRadixLookupInstrumented measures the ATOM-instrumented path with
// the cache model attached.
func BenchmarkRadixLookupInstrumented(b *testing.B) {
	b.ReportAllocs()
	rng := stats.NewRNG(1)
	rec := memsim.NewRecorder(memsim.MustCache(memsim.DefaultCacheConfig()))
	tree, err := radix.BuildTable(radix.GenerateTable(rng, 100000), rec)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]uint32, 4096)
	for i := range addrs {
		addrs[i] = rng.Uint32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.BeginPacket()
		tree.Lookup(addrs[i&4095])
		rec.EndPacket()
	}
}

// BenchmarkCacheAccess measures the cache simulator hot path.
func BenchmarkCacheAccess(b *testing.B) {
	b.ReportAllocs()
	c := memsim.MustCache(memsim.DefaultCacheConfig())
	rng := stats.NewRNG(2)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = rng.Uint64() & 0xFFFFF
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095])
	}
}

// BenchmarkTemplateMatch measures the cluster-store similarity search over
// a realistic vector population.
func BenchmarkTemplateMatch(b *testing.B) {
	b.ReportAllocs()
	flows := flow.Assemble(sharedTrace().Packets)
	vectors := make([]flow.Vector, 0, len(flows))
	for _, f := range flows {
		if f.Len() <= 50 {
			vectors = append(vectors, f.Vector(flow.DefaultWeights))
		}
	}
	if len(vectors) == 0 {
		b.Fatal("no vectors")
	}
	store := cluster.NewStore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Match(vectors[i%len(vectors)])
	}
}

// BenchmarkStoreMatch measures the cluster store's Match path in its three
// regimes over the Web trace's real short-flow vector population:
//
//   - hit: a memoized store resolving vectors it has already matched. The
//     memo holds matched vectors only, so two warm-up passes come first: the
//     first creates the templates, the second matches every vector once and
//     memoizes it. This is the steady state of the record step, in one
//     stage or two, and it must stay at 0 allocs/op — CI gates on that.
//   - scan: the pruned first-fit walk with no memo, the cold path.
//   - miss: every Match creates a template (all-distinct vectors), the
//     worst case.
func BenchmarkStoreMatch(b *testing.B) {
	b.ReportAllocs()
	flows := flow.Assemble(sharedTrace().Packets)
	vectors := make([]flow.Vector, 0, len(flows))
	for _, f := range flows {
		if f.Len() <= 50 {
			vectors = append(vectors, f.Vector(flow.DefaultWeights))
		}
	}
	if len(vectors) == 0 {
		b.Fatal("no vectors")
	}

	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		store := cluster.NewStore().EnableMemo()
		for range 2 {
			for _, v := range vectors {
				store.Match(v)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store.Match(vectors[i%len(vectors)])
		}
	})

	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		store := cluster.NewStore()
		for _, v := range vectors {
			store.Match(v)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store.Match(vectors[i%len(vectors)])
		}
	})

	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		store := cluster.NewStore()
		// Distinct 5-byte vectors pairwise >= 5 apart (base-50 digits of i,
		// each scaled by 5), so with d_lim(5) = 5 and the strict < rule
		// every Match scans its whole bucket and then creates. The digit
		// space holds 50^5 ≈ 312M distinct vectors, far beyond any
		// reachable b.N, so the all-miss property cannot wrap away.
		v := make(flow.Vector, 5)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := i
			for j := range v {
				v[j] = uint8(n % 50 * 5)
				n /= 50
			}
			store.Match(v)
		}
	})
}

// BenchmarkDistanceWithin measures the early-exit distance kernel across
// vector lengths spanning the scalar path (below one word), the cache-resident
// sweet spot and streaming sizes. The candidate differs from the probe by one
// element near the end, so the kernel walks essentially the whole vector —
// the adversarial dense-bucket case the SWAR kernels exist for.
func BenchmarkDistanceWithin(b *testing.B) {
	for _, n := range []int{8, 64, 512, 4096} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			x := make(flow.Vector, n)
			y := make(flow.Vector, n)
			for i := range x {
				x[i] = uint8(i*37 + 11)
				y[i] = x[i]
			}
			y[n-1] ^= 0x55
			lim := int(y[n-1]^x[n-1]) + 1 // strictly above the true distance
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !flow.DistanceWithin(x, y, lim) {
					b.Fatal("kernel rejected the in-limit pair")
				}
			}
		})
	}
}

// BenchmarkStoreMatchBatch measures MatchBatch over the Web trace's real
// short-flow vectors in 64-vector batches of finalize order, against a warm
// store: two passes over the vectors, so under the memo every timed Match is
// a hit (the memo holds a vector once it has matched a template).
// Reported per op: one whole batch.
func BenchmarkStoreMatchBatch(b *testing.B) {
	flows := flow.Assemble(sharedTrace().Packets)
	vectors := make([]flow.Vector, 0, len(flows))
	for _, f := range flows {
		if f.Len() <= 50 {
			vectors = append(vectors, f.Vector(flow.DefaultWeights))
		}
	}
	if len(vectors) == 0 {
		b.Fatal("no vectors")
	}
	const batch = 64
	for _, memo := range []struct {
		name string
		on   bool
	}{{"memo", true}, {"scan", false}} {
		b.Run(memo.name, func(b *testing.B) {
			b.ReportAllocs()
			store := cluster.NewStore()
			if memo.on {
				store.EnableMemo()
			}
			for range 2 {
				for _, v := range vectors {
					store.Match(v)
				}
			}
			n := batch
			if n > len(vectors) {
				n = len(vectors)
			}
			tpls := make([]*cluster.Template, n)
			created := make([]bool, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := i * n % len(vectors)
				if start+n > len(vectors) {
					start = 0
				}
				store.MatchBatch(vectors[start:start+n], tpls, created)
			}
		})
	}
}

// BenchmarkRouteKernel measures the full per-packet measurement path
// (checkpoint + instrumented lookup + cache).
func BenchmarkRouteKernel(b *testing.B) {
	b.ReportAllocs()
	tr := sharedTrace()
	routes, err := netbench.CoveringTable(trace.Batches(tr, 0), 5, 10000, 1)
	if err != nil {
		b.Fatal(err)
	}
	rec := memsim.NewRecorder(memsim.MustCache(memsim.DefaultCacheConfig()))
	k, err := netbench.NewRoute(routes, rec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.BeginPacket()
		k.Process(&tr.Packets[i%tr.Len()])
		rec.EndPacket()
	}
}
