package figures

import (
	"fmt"
	"time"

	"flowzip/internal/core"
	"flowzip/internal/flowgen"
	"flowzip/internal/memsim"
	"flowzip/internal/netbench"
	"flowzip/internal/stats"
	"flowzip/internal/trace"
)

// MemStudy is the shared run behind Figures 2 and 3: the four traces of
// Section 6.1 (original, decompressed, random-address, fractal) processed
// by the selected kernel over the same covering forwarding table, with the
// cache model attached.
type MemStudy struct {
	Results []*netbench.Result
	Routes  int
}

// RunMemStudy generates the traces and executes the four measurement runs.
func RunMemStudy(cfg Config) (*MemStudy, error) {
	base := cfg.baseTrace()

	arch, err := core.Compress(base, core.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("figures: memstudy compress: %w", err)
	}
	dec, err := core.Decompress(arch)
	if err != nil {
		return nil, fmt.Errorf("figures: memstudy decompress: %w", err)
	}
	dec.Name = "Decomp"

	random := flowgen.RandomizeAddresses(base, cfg.Seed+1)
	random.Name = "RedIRIS random"

	fcfg := flowgen.DefaultFractalConfig()
	fcfg.Seed = cfg.Seed + 2
	fcfg.Packets = cfg.FractalPackets
	if fcfg.Packets <= 0 {
		fcfg.Packets = base.Len()
	}
	if base.Len() > 0 {
		fcfg.MeanGap = base.Duration() / time.Duration(base.Len())
	}
	fractal := flowgen.Fractal(fcfg)
	fractal.Name = "fracexp"

	routes := netbench.CoveringTable(base, cfg.MinPrefixSources, cfg.TableBackground, cfg.Seed+3)

	study := &MemStudy{Routes: len(routes)}
	for _, tr := range []*trace.Trace{base, dec, random, fractal} {
		cache, err := memsim.NewCache(cfg.Cache)
		if err != nil {
			return nil, err
		}
		rec := memsim.NewRecorder(cache)
		k, err := netbench.NewKernel(cfg.Kernel, routes, rec)
		if err != nil {
			return nil, err
		}
		study.Results = append(study.Results, netbench.Run(k, tr, rec))
	}
	return study, nil
}

// Fig2 renders Figure 2 from a study: cumulative traffic percentage against
// memory accesses per packet for the four traces.
func (s *MemStudy) Fig2() *stats.Figure {
	fig := &stats.Figure{
		Title:  "Figure 2: Memory accesses per packet",
		XLabel: "#Mem Accs",
		YLabel: "Traffic (%)",
	}
	for _, res := range s.Results {
		cdf := stats.NewCDF(res.AccessCounts())
		pts := cdf.Points(30)
		for i := range pts {
			pts[i][1] *= 100
		}
		fig.Add(res.Trace, pts)
	}
	return fig
}

// Fig3Buckets are the paper's miss-rate histogram edges.
var Fig3Buckets = []float64{0, 0.05, 0.10, 0.20}

// Fig3BucketLabels name the buckets as the paper's x-axis does.
var Fig3BucketLabels = []string{"0%-5%", "5%-10%", "10%-20%", ">20%"}

// Fig3 renders Figure 3: the share of traffic in each cache-miss-rate
// bucket per trace.
func (s *MemStudy) Fig3() *stats.Table {
	t := &stats.Table{
		Title:   "Figure 3: Cache miss rate distribution",
		Headers: append([]string{"trace"}, Fig3BucketLabels...),
	}
	for _, res := range s.Results {
		h := stats.NewHistogram(Fig3Buckets)
		for _, mr := range res.MissRates() {
			h.Add(mr)
		}
		row := []string{res.Trace}
		for i := range Fig3Buckets {
			row = append(row, fmt.Sprintf("%.1f%%", 100*h.Fraction(i)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// AccessSummaryTable tabulates per-trace access statistics (mean, p50, p90)
// plus the Kolmogorov–Smirnov distance of each trace's access distribution
// from the original — the numeric companion to Figure 2, quantifying the
// paper's "similar behavior" claim.
func (s *MemStudy) AccessSummaryTable() *stats.Table {
	t := &stats.Table{
		Title:   "Memory accesses per packet (summary)",
		Headers: []string{"trace", "packets", "mean", "p50", "p90", "max", "KS vs orig"},
	}
	var origAccesses []float64
	if len(s.Results) > 0 {
		origAccesses = s.Results[0].AccessCounts()
	}
	for _, res := range s.Results {
		counts := res.AccessCounts()
		sum := stats.Summarize(counts)
		t.AddRow(res.Trace,
			fmt.Sprintf("%d", sum.N),
			fmt.Sprintf("%.1f", sum.Mean),
			fmt.Sprintf("%.0f", sum.P50),
			fmt.Sprintf("%.0f", sum.P90),
			fmt.Sprintf("%.0f", sum.Max),
			fmt.Sprintf("%.3f", stats.KSDistance(origAccesses, counts)))
	}
	return t
}

// CacheAblation sweeps cache geometries over the original and random
// traces, showing where the Figure 3 separation appears and collapses.
func CacheAblation(cfg Config) (*stats.Table, error) {
	base := cfg.baseTrace()
	random := flowgen.RandomizeAddresses(base, cfg.Seed+1)
	random.Name = "random"
	routes := netbench.CoveringTable(base, cfg.MinPrefixSources, cfg.TableBackground, cfg.Seed+3)

	t := &stats.Table{
		Title:   "Cache geometry ablation (mean miss rate)",
		Headers: []string{"cache", "original", "random", "separation"},
	}
	geometries := []memsim.CacheConfig{
		{TotalBytes: 4 * 1024, BlockBytes: 32, Ways: 2},
		{TotalBytes: 16 * 1024, BlockBytes: 32, Ways: 2},
		{TotalBytes: 64 * 1024, BlockBytes: 32, Ways: 4},
		{TotalBytes: 256 * 1024, BlockBytes: 64, Ways: 4},
	}
	for _, g := range geometries {
		means := make([]float64, 2)
		for i, tr := range []*trace.Trace{base, random} {
			cache, err := memsim.NewCache(g)
			if err != nil {
				return nil, err
			}
			rec := memsim.NewRecorder(cache)
			k, err := netbench.NewKernel(cfg.Kernel, routes, rec)
			if err != nil {
				return nil, err
			}
			res := netbench.Run(k, tr, rec)
			means[i] = stats.Summarize(res.MissRates()).Mean
		}
		t.AddRow(
			fmt.Sprintf("%dKB/%dB/%dw", g.TotalBytes/1024, g.BlockBytes, g.Ways),
			fmt.Sprintf("%.2f%%", 100*means[0]),
			fmt.Sprintf("%.2f%%", 100*means[1]),
			fmt.Sprintf("%.2fx", safeDiv(means[1], means[0])),
		)
	}
	return t, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
