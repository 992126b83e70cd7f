// Command figures regenerates every table and figure of the paper's
// evaluation from the synthetic substrate, printing aligned tables, ASCII
// plots and optional CSV.
//
// Usage:
//
//	figures -fig all                 # everything, CI scale
//	figures -fig 1 -scale paper      # Figure 1 at paper scale
//	figures -fig 2 -kernel NAT       # memory study under the NAT kernel
//	figures -fig ratio -csv          # CSV output for plotting
//	figures -fig ratio -flows 500 -seed 7   # 500 flows of another trace
//	figures -fig 2 -ascii=false      # tables without the ASCII plots
//
// Figure ids: 1, 2, 3, ratio, analytic, flowlen, clusters, weights,
// threshold, cache, storage, all.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"flowzip/internal/figures"
	"flowzip/internal/netbench"
	"flowzip/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")

	var (
		fig    = flag.String("fig", "all", "figure/table id (1,2,3,ratio,analytic,flowlen,clusters,weights,threshold,cache,storage,all)")
		scale  = flag.String("scale", "default", "experiment scale: default or paper")
		kernel = flag.String("kernel", "Route", "memory-study kernel: Route, NAT or RTR")
		seed   = flag.Uint64("seed", 1, "random seed")
		flows  = flag.Int("flows", 0, "override flow count (0 = scale default)")
		csv    = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		ascii  = flag.Bool("ascii", true, "draw ASCII plots for figures")
	)
	flag.Parse()

	cfg := figures.DefaultConfig()
	switch *scale {
	case "default":
	case "paper":
		cfg = figures.PaperScaleConfig()
	default:
		log.Fatalf("unknown scale %q (want default or paper)", *scale)
	}
	if *flows < 0 {
		log.Fatalf("-flows %d must be >= 0", *flows)
	}
	cfg.Seed = *seed
	if *flows > 0 {
		cfg.Flows = *flows
	}
	switch *kernel {
	case "Route":
		cfg.Kernel = netbench.KindRoute
	case "NAT":
		cfg.Kernel = netbench.KindNAT
	case "RTR":
		cfg.Kernel = netbench.KindRTR
	default:
		log.Fatalf("unknown kernel %q", *kernel)
	}

	out := os.Stdout
	emitTable := func(t *stats.Table) {
		if *csv {
			t.CSV(out)
		} else {
			t.Render(out)
		}
		fmt.Fprintln(out)
	}
	emitFigure := func(f *stats.Figure) {
		if *ascii && !*csv {
			f.RenderASCII(out, 72, 18)
			fmt.Fprintln(out)
		}
		emitTable(f.Table())
	}

	var memStudy *figures.MemStudy
	needMem := func() *figures.MemStudy {
		if memStudy == nil {
			s, err := figures.RunMemStudy(cfg)
			if err != nil {
				log.Fatal(err)
			}
			memStudy = s
		}
		return memStudy
	}

	run := func(id string) {
		switch id {
		case "1":
			f, err := figures.Fig1(cfg)
			if err != nil {
				log.Fatal(err)
			}
			emitFigure(f)
		case "2":
			emitFigure(needMem().Fig2())
			emitTable(needMem().AccessSummaryTable())
		case "3":
			emitTable(needMem().Fig3())
		case "ratio":
			t, err := figures.RatioTable(cfg)
			if err != nil {
				log.Fatal(err)
			}
			emitTable(t)
		case "analytic":
			t, err := figures.AnalyticTable(cfg)
			if err != nil {
				log.Fatal(err)
			}
			emitTable(t)
		case "flowlen":
			t, err := figures.FlowLengthTable(cfg)
			if err != nil {
				log.Fatal(err)
			}
			emitTable(t)
		case "clusters":
			f, t, err := figures.ClusterStudy(cfg)
			if err != nil {
				log.Fatal(err)
			}
			emitFigure(f)
			emitTable(t)
		case "weights":
			t, err := figures.WeightAblation(cfg)
			if err != nil {
				log.Fatal(err)
			}
			emitTable(t)
		case "threshold":
			t, err := figures.ThresholdAblation(cfg)
			if err != nil {
				log.Fatal(err)
			}
			emitTable(t)
		case "cache":
			t, err := figures.CacheAblation(cfg)
			if err != nil {
				log.Fatal(err)
			}
			emitTable(t)
		case "storage":
			t, err := figures.StorageBreakdownTable(cfg)
			if err != nil {
				log.Fatal(err)
			}
			emitTable(t)
		case "p2p":
			t, err := figures.P2PTable(cfg)
			if err != nil {
				log.Fatal(err)
			}
			emitTable(t)
			t, err = figures.P2PDiversity(cfg)
			if err != nil {
				log.Fatal(err)
			}
			emitTable(t)
		default:
			log.Fatalf("unknown figure id %q", id)
		}
	}

	if *fig == "all" {
		for _, id := range []string{"flowlen", "clusters", "ratio", "analytic", "storage", "1", "2", "3", "weights", "threshold", "cache", "p2p"} {
			run(id)
		}
		return
	}
	run(*fig)
}
