package netbench

import (
	"testing"
	"time"

	"flowzip/internal/core"
	"flowzip/internal/flowgen"
	"flowzip/internal/memsim"
	"flowzip/internal/radix"
	"flowzip/internal/stats"
	"flowzip/internal/trace"
)

func memTrace(seed uint64, flows int) *trace.Trace {
	cfg := flowgen.DefaultWebConfig()
	cfg.Seed = seed
	cfg.Flows = flows
	cfg.Duration = 10 * time.Second
	return flowgen.Web(cfg)
}

// run is Run over an in-memory trace.
func run(t *testing.T, k Kernel, tr *trace.Trace, rec *memsim.Recorder) *Result {
	t.Helper()
	res, err := Run(k, trace.Batches(tr, 0), rec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// packets is the number of packets a run counted.
func (r *Result) packets() int64 {
	var n int64
	for _, c := range r.Packets {
		n += c
	}
	return n
}

// accesses is the per-packet access count, Figure 2's measure.
func accesses(p memsim.PacketRecord) float64 { return float64(p.Accesses) }

func TestRouteKernelCounts(t *testing.T) {
	routes := radix.GenerateTable(stats.NewRNG(1), 1000)
	k, err := NewRoute(routes, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := memTrace(1, 200)
	for i := range tr.Packets {
		k.Process(&tr.Packets[i])
	}
	if k.Forwarded+k.Dropped != int64(tr.Len()) {
		t.Fatalf("forwarded %d + dropped %d != %d packets", k.Forwarded, k.Dropped, tr.Len())
	}
}

func TestRunRecordsPerPacket(t *testing.T) {
	routes := radix.GenerateTable(stats.NewRNG(2), 1000)
	rec := memsim.NewRecorder(nil)
	k, err := NewRoute(routes, rec)
	if err != nil {
		t.Fatal(err)
	}
	tr := memTrace(2, 100)
	res := run(t, k, tr, rec)
	if n := res.packets(); n != int64(tr.Len()) {
		t.Fatalf("counted %d packets of %d", n, tr.Len())
	}
	for r := range res.Packets {
		if r.Accesses <= 0 {
			t.Fatalf("%d packets recorded no accesses", res.Packets[r])
		}
	}
	if res.Kernel != "Route" {
		t.Fatalf("result label: %q", res.Kernel)
	}
}

func TestAccessCountsInPaperRange(t *testing.T) {
	// The paper's Figure 2 x-axis spans ~50..200 accesses per packet with a
	// 100k-entry-scale table; verify the bulk of our counts lands in a
	// plausible band (lookup depth ~ prefix length).
	routes := radix.GenerateTable(stats.NewRNG(3), 20000)
	rec := memsim.NewRecorder(nil)
	k, err := NewRoute(routes, rec)
	if err != nil {
		t.Fatal(err)
	}
	tr := memTrace(3, 300)
	res := run(t, k, tr, rec)
	s := stats.Summarize(res.Sample(accesses))
	if s.Mean < 10 || s.Mean > 120 {
		t.Fatalf("mean accesses/packet = %v, want a radix-walk scale value", s.Mean)
	}
	if s.Max > 200 {
		t.Fatalf("max accesses = %v, want <= 200 (2 per node, <= 33 nodes, + overhead)", s.Max)
	}
}

func TestNATKernel(t *testing.T) {
	routes := radix.GenerateTable(stats.NewRNG(4), 1000)
	rec := memsim.NewRecorder(nil)
	k, err := newNAT(routes, rec)
	if err != nil {
		t.Fatal(err)
	}
	tr := memTrace(4, 150)
	res := run(t, k, tr, rec)
	if k.Translated != int64(tr.Len()) {
		t.Fatalf("translated %d of %d", k.Translated, tr.Len())
	}
	// One binding per unidirectional tuple; a conversation has two.
	if k.Bindings == 0 || k.Bindings > int64(tr.Len()) {
		t.Fatalf("bindings = %d", k.Bindings)
	}
	if res.packets() != int64(tr.Len()) {
		t.Fatal("packets missing from the counts")
	}
}

func TestNATAddsAccessesOverRoute(t *testing.T) {
	routes := radix.GenerateTable(stats.NewRNG(5), 5000)
	tr := memTrace(5, 200)

	recR := memsim.NewRecorder(nil)
	kr, _ := NewRoute(routes, recR)
	resR := run(t, kr, tr, recR)

	recN := memsim.NewRecorder(nil)
	kn, _ := newNAT(routes, recN)
	resN := run(t, kn, tr.Clone(), recN)

	mr := stats.Summarize(resR.Sample(accesses)).Mean
	mn := stats.Summarize(resN.Sample(accesses)).Mean
	if mn <= mr {
		t.Fatalf("NAT mean accesses %v must exceed Route %v", mn, mr)
	}
}

func TestRTRHeavierThanRoute(t *testing.T) {
	routes := radix.GenerateTable(stats.NewRNG(6), 5000)
	tr := memTrace(6, 200)

	recR := memsim.NewRecorder(nil)
	kr, _ := NewRoute(routes, recR)
	resR := run(t, kr, tr, recR)

	recT := memsim.NewRecorder(nil)
	kt, _ := newRTR(routes, recT)
	resT := run(t, kt, tr.Clone(), recT)

	mr := stats.Summarize(resR.Sample(accesses)).Mean
	mt := stats.Summarize(resT.Sample(accesses)).Mean
	if mt <= mr {
		t.Fatalf("RTR mean accesses %v must exceed Route %v", mt, mr)
	}
	if kt.Routed+kt.Default != int64(tr.Len()) {
		t.Fatal("RTR counters inconsistent")
	}
}

func TestNewKernelFactory(t *testing.T) {
	routes := radix.GenerateTable(stats.NewRNG(7), 100)
	for _, kind := range []KernelKind{KindRoute, KindNAT, KindRTR} {
		k, err := NewKernel(kind, routes, nil)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if k.Name() != kind.String() {
			t.Fatalf("name %q != kind %q", k.Name(), kind)
		}
	}
	if _, err := NewKernel(KernelKind(99), routes, nil); err == nil {
		t.Fatal("unknown kind must error")
	}
	if KernelKind(99).String() == "" {
		t.Fatal("unknown kind must still render")
	}
}

func TestMissRatesSeparateLocalityRegimes(t *testing.T) {
	// The heart of Figure 3: the original (locality-rich) trace must show
	// lower radix-walk miss rates than the random-destination trace under
	// the same cache.
	base := memTrace(8, 1500)
	routes := covering(t, base, 5, 20000, 8)
	random := flowgen.RandomizeAddresses(base, 99)

	run := func(tr *trace.Trace) float64 {
		cache := memsim.MustCache(memsim.DefaultCacheConfig())
		rec := memsim.NewRecorder(cache)
		k, err := NewRoute(routes, rec)
		if err != nil {
			t.Fatal(err)
		}
		res := run(t, k, tr, rec)
		return stats.Summarize(res.Sample(memsim.PacketRecord.MissRate)).Mean
	}
	mOrig := run(base)
	mRand := run(random)
	if mOrig >= mRand {
		t.Fatalf("original mean miss rate %v must be below random %v", mOrig, mRand)
	}
}

func TestDecompressedMatchesOriginalAccessCDF(t *testing.T) {
	// Figure 2's claim in miniature: the decompressed trace's access-count
	// distribution tracks the original far better than the random trace.
	base := memTrace(9, 1200)
	routes := covering(t, base, 5, 10000, 9)
	arch, err := core.Compress(base, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := core.Decompress(arch)
	if err != nil {
		t.Fatal(err)
	}
	random := flowgen.RandomizeAddresses(base, 17)

	meanAccesses := func(tr *trace.Trace) float64 {
		rec := memsim.NewRecorder(nil)
		k, err := NewRoute(routes, rec)
		if err != nil {
			t.Fatal(err)
		}
		res := run(t, k, tr, rec)
		return stats.Summarize(res.Sample(accesses)).Mean
	}
	mo := meanAccesses(base)
	md := meanAccesses(dec)
	mr := meanAccesses(random)
	devDec := abs(md - mo)
	devRand := abs(mr - mo)
	if devDec >= devRand {
		t.Fatalf("decompressed deviation %v must be below random %v (orig %v dec %v rand %v)",
			devDec, devRand, mo, md, mr)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
