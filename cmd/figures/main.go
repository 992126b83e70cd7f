// Command figures regenerates every table and figure of the paper's
// evaluation from the synthetic substrate, printing aligned tables, ASCII
// plots and optional CSV.
//
// Usage:
//
//	figures -fig all                 # everything, CI scale
//	figures -fig 1 -scale paper      # Figure 1 at paper scale
//	figures -fig 2 -kernel NAT       # memory study under the NAT kernel
//	figures -fig 2,3 -i web.tsh      # memory study over a capture file
//	figures -fig ratio -csv          # CSV output for plotting
//	figures -fig ratio -flows 500 -seed 7   # 500 flows of another trace
//	figures -fig 2 -ascii=false      # tables without the ASCII plots
//
// Figure ids, one or a comma-separated list: 1, 2, 3, ratio, analytic,
// flowlen, clusters, weights, threshold, cache, storage, p2p, all.
//
// -i replaces the generated Web trace with a capture (.tsh or .pcap) as the
// memory study's base trace: it applies to figures 2, 3 and cache, which
// "all" then stands for. The capture is streamed from the file once a pass
// and must be in timestamp order, since the study's decompressed trace is
// its codec round trip.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"flowzip/internal/figures"
	"flowzip/internal/netbench"
	"flowzip/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// allFigures is the order -fig all prints in.
var allFigures = []string{"flowlen", "clusters", "ratio", "analytic", "storage", "1", "2", "3", "weights", "threshold", "cache", "p2p"}

// tableFigures are the figures that print tables alone, by id.
var tableFigures = map[string][]func(figures.Config) (*stats.Table, error){
	"ratio":     {figures.RatioTable},
	"analytic":  {figures.AnalyticTable},
	"flowlen":   {figures.FlowLengthTable},
	"weights":   {figures.WeightAblation},
	"threshold": {figures.ThresholdAblation},
	"cache":     {figures.CacheAblation},
	"storage":   {figures.StorageBreakdownTable},
	"p2p":       {figures.P2PTable, figures.P2PDiversity},
}

// memFigures are the figures a capture file (-i) can stand under.
var memFigures = []string{"2", "3", "cache"}

// run parses args and prints the figures they select to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	var (
		fig    = fs.String("fig", "all", "figure/table ids, comma-separated (1,2,3,ratio,analytic,flowlen,clusters,weights,threshold,cache,storage,p2p,all)")
		scale  = fs.String("scale", "default", "experiment scale: default or paper")
		kernel = fs.String("kernel", "Route", "memory-study kernel: Route, NAT or RTR")
		seed   = fs.Uint64("seed", 1, "random seed")
		flows  = fs.Int("flows", 0, "override flow count (0 = scale default)")
		input  = fs.String("i", "", "capture file (.tsh or .pcap) to run figures 2, 3 and cache over instead of the generated trace")
		csv    = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		ascii  = fs.Bool("ascii", true, "draw ASCII plots for figures")
	)
	fs.Parse(args)

	cfg := figures.DefaultConfig()
	switch *scale {
	case "default":
	case "paper":
		cfg = figures.PaperScaleConfig()
	default:
		return fmt.Errorf("unknown scale %q (want default or paper)", *scale)
	}
	if *flows < 0 {
		return fmt.Errorf("-flows %d must be >= 0", *flows)
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
		return fmt.Errorf("unknown kernel %q", *kernel)
	}

	ids := strings.Split(*fig, ",")
	if *input != "" {
		if *flows > 0 {
			return fmt.Errorf("-flows sizes the generated trace, which -i replaces")
		}
		cfg.Input = *input
		if *fig == "all" {
			ids = memFigures
		}
		for _, id := range ids {
			if !slices.Contains(memFigures, id) {
				return fmt.Errorf("-i applies to figures 2, 3 and cache, not %q", id)
			}
		}
	} else if *fig == "all" {
		ids = allFigures
	}

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
	for _, id := range ids {
		var err error
		switch id {
		case "1":
			var f *stats.Figure
			if f, err = figures.Fig1(cfg); err == nil {
				emitFigure(f)
			}
		case "2", "3":
			if memStudy == nil {
				if memStudy, err = figures.RunMemStudy(cfg); err != nil {
					return err
				}
			}
			if id == "2" {
				emitFigure(memStudy.Fig2())
				emitTable(memStudy.AccessSummaryTable())
			} else {
				emitTable(memStudy.Fig3())
			}
		case "clusters":
			var (
				f *stats.Figure
				t *stats.Table
			)
			if f, t, err = figures.ClusterStudy(cfg); err == nil {
				emitFigure(f)
				emitTable(t)
			}
		default:
			experiments, ok := tableFigures[id]
			if !ok {
				return fmt.Errorf("unknown figure id %q", id)
			}
			for _, experiment := range experiments {
				var t *stats.Table
				if t, err = experiment(cfg); err != nil {
					break
				}
				emitTable(t)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}
