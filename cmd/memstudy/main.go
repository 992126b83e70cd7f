// Command memstudy runs one of the Section 6 benchmark kernels (Route, NAT
// or RTR) over a trace file with the ATOM-equivalent instrumentation and
// prints per-packet memory-access and cache-miss statistics — the raw
// material of the paper's Figures 2 and 3 for an arbitrary input trace.
//
// Usage:
//
//	memstudy -i web.tsh -kernel Route -routes 100000
//	memstudy -i web.tsh -base web.tsh -cache 16384 -ways 2 -block 32
//	memstudy -i web.tsh -codec   # study the codec round-trip
//
// The forwarding table covers the popular destination prefixes of -base
// (default: the input trace itself) plus -routes random background routes.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"flowzip/internal/core"
	"flowzip/internal/memsim"
	"flowzip/internal/netbench"
	"flowzip/internal/stats"
	"flowzip/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("memstudy: ")

	var (
		in     = flag.String("i", "", "input trace (.tsh or .pcap)")
		base   = flag.String("base", "", "trace whose popular prefixes the table covers (default: input)")
		kernel = flag.String("kernel", "Route", "kernel: Route, NAT or RTR")
		routes = flag.Int("routes", 20000, "background routes in the table")
		minSrc = flag.Int("minsrc", 5, "distinct sources for a /24 to qualify as covered")
		cache  = flag.Int("cache", 16*1024, "cache size in bytes")
		ways   = flag.Int("ways", 2, "cache associativity")
		block  = flag.Int("block", 32, "cache block size in bytes")
		seed   = flag.Uint64("seed", 1, "random seed")
		codec  = flag.Bool("codec", false, "round-trip the trace through the flow-clustering codec first (the paper's decompressed-trace configuration)")
	)
	flag.Parse()
	if *in == "" {
		log.Fatal("-i required")
	}
	switch {
	case *routes < 0:
		log.Fatalf("-routes %d must be >= 0", *routes)
	case *minSrc < 1:
		log.Fatalf("-minsrc %d must be >= 1", *minSrc)
	case *cache < 1 || *ways < 1 || *block < 1:
		log.Fatalf("cache geometry must be positive: -cache %d -ways %d -block %d", *cache, *ways, *block)
	}
	tr, err := trace.LoadFile(*in)
	if err != nil {
		log.Fatal(err)
	}
	if *codec {
		if !tr.IsSorted() {
			tr.Sort()
		}
		arch, err := core.Compress(tr, core.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		tr, err = core.Decompress(arch)
		if err != nil {
			log.Fatal(err)
		}
	}
	baseTr := tr
	if *base != "" && *base != *in {
		baseTr, err = trace.LoadFile(*base)
		if err != nil {
			log.Fatal(err)
		}
	}

	var kind netbench.KernelKind
	switch *kernel {
	case "Route":
		kind = netbench.KindRoute
	case "NAT":
		kind = netbench.KindNAT
	case "RTR":
		kind = netbench.KindRTR
	default:
		log.Fatalf("unknown kernel %q", *kernel)
	}

	table := netbench.CoveringTable(baseTr, *minSrc, *routes, *seed)
	cacheModel, err := memsim.NewCache(memsim.CacheConfig{
		TotalBytes: *cache, BlockBytes: *block, Ways: *ways,
	})
	if err != nil {
		log.Fatal(err)
	}
	rec := memsim.NewRecorder(cacheModel)
	k, err := netbench.NewKernel(kind, table, rec)
	if err != nil {
		log.Fatal(err)
	}
	res := netbench.Run(k, tr, rec)

	accs := stats.Summarize(res.AccessCounts())
	miss := stats.Summarize(res.MissRates())
	t := &stats.Table{
		Title:   fmt.Sprintf("%s over %s (%d routes)", k.Name(), tr.Name, len(table)),
		Headers: []string{"metric", "value"},
	}
	t.AddRowf("packets", accs.N)
	t.AddRowf("accesses/pkt mean", accs.Mean)
	t.AddRowf("accesses/pkt p50", accs.P50)
	t.AddRowf("accesses/pkt p90", accs.P90)
	t.AddRowf("accesses/pkt max", accs.Max)
	t.AddRowf("miss rate mean", fmt.Sprintf("%.2f%%", 100*miss.Mean))
	t.AddRowf("miss rate p90", fmt.Sprintf("%.2f%%", 100*miss.P90))
	total, misses := rec.Totals()
	t.AddRowf("total accesses", total)
	t.AddRowf("total misses", misses)
	t.Render(os.Stdout)

	// Figure 3-style buckets for this single trace.
	h := stats.NewHistogram([]float64{0, 0.05, 0.10, 0.20})
	for _, mr := range res.MissRates() {
		h.Add(mr)
	}
	bt := &stats.Table{Title: "miss-rate buckets", Headers: []string{"bucket", "traffic"}}
	labels := []string{"0%-5%", "5%-10%", "10%-20%", ">20%"}
	for i, l := range labels {
		bt.AddRow(l, fmt.Sprintf("%.1f%%", 100*h.Fraction(i)))
	}
	bt.Render(os.Stdout)
}
