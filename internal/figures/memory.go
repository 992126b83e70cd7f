package figures

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"flowzip/internal/core"
	"flowzip/internal/flowgen"
	"flowzip/internal/memsim"
	"flowzip/internal/netbench"
	"flowzip/internal/pkt"
	"flowzip/internal/radix"
	"flowzip/internal/stats"
)

// MemStudy is the shared run behind Figures 2 and 3: the four traces of
// Section 6.1 (original, decompressed, random-address, fractal) processed
// by the selected kernel over the same covering forwarding table, with the
// cache model attached. Each trace is a stream, drained once by its run:
// none is ever held whole.
type MemStudy struct {
	Results []MemRun
	Routes  int
}

// MemRun is one trace's run: its label and the kernel's counts.
type MemRun struct {
	Trace string
	*netbench.Result
}

// A pass hands fn one trace as a stream and releases it when fn returns.
type pass func(fn func(core.PacketSource) error) error

// stream is the pass over an open source.
func stream(src core.PacketSource) pass {
	return func(fn func(core.PacketSource) error) error { return fn(src) }
}

// RunMemStudy executes the four measurement runs. The base trace (the
// generated Web trace, or cfg.Input) is passed over four times: for the
// covering table, into the compressor whose archive the decompressed trace
// decodes, and under the original and random-address runs. The compressor
// refuses a base trace out of timestamp order with core.ErrUnsorted.
func RunMemStudy(cfg Config) (*MemStudy, error) {
	span := &spanSource{}
	routes, err := coveringTable(cfg, span)
	if err != nil {
		return nil, err
	}
	p, err := core.NewPipeline(core.DefaultOptions(), core.PipelineConfig{})
	if err != nil {
		return nil, err
	}
	var arch *core.Archive
	if err := cfg.basePass(func(src core.PacketSource) (err error) {
		arch, err = p.Compress(src)
		return err
	}); err != nil {
		return nil, fmt.Errorf("figures: memory study compress: %w", err)
	}
	// A pooled object (the compressor's flow table, flow.Table.Release)
	// outlives one collection; at 1.6 M flows dropping it before the kernel
	// runs takes the study's peak RSS from 453 MB to 312 MB.
	runtime.GC()
	runtime.GC()
	dec, err := core.NewDecompressor(arch)
	if err != nil {
		return nil, fmt.Errorf("figures: memory study decompress: %w", err)
	}
	fcfg := flowgen.DefaultFractalConfig()
	fcfg.Seed = cfg.Seed + 2
	fcfg.Packets = span.n
	if span.n > 0 {
		fcfg.MeanGap = (span.last - span.first) / time.Duration(span.n)
	}

	base := "RedIRIS" // the paper's label for the original trace
	if cfg.Input != "" {
		base = filepath.Base(cfg.Input)
	}
	study := &MemStudy{Routes: len(routes)}
	for _, tr := range []struct {
		name string
		pass pass
	}{
		{base, cfg.basePass},
		{"Decomp", stream(dec)},
		{base + " random", cfg.randomPass},
		{"fracexp", stream(flowgen.FractalSource(fcfg, 0))},
	} {
		res, err := runKernel(cfg, cfg.Cache, routes, tr.pass)
		if err != nil {
			return nil, fmt.Errorf("figures: memory study %s: %w", tr.name, err)
		}
		study.Results = append(study.Results, MemRun{tr.name, res})
	}
	return study, nil
}

// coveringTable builds the study's forwarding table in a pass of its own
// over the base trace, through span.
func coveringTable(cfg Config, span *spanSource) ([]radix.Route, error) {
	var routes []radix.Route
	err := cfg.basePass(func(src core.PacketSource) (err error) {
		span.PacketSource = src
		routes, err = netbench.CoveringTable(span, cfg.MinPrefixSources, cfg.TableBackground, cfg.Seed+3)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("figures: memory study covering table: %w", err)
	}
	return routes, nil
}

// spanSource passes a source's packets on, counting them and keeping the
// first and last timestamp: the fractal trace's size and mean gap.
type spanSource struct {
	core.PacketSource
	n           int
	first, last time.Duration
}

// Next implements core.PacketSource.
func (s *spanSource) Next() ([]pkt.Packet, error) {
	batch, err := s.PacketSource.Next()
	if len(batch) > 0 && err == nil {
		if s.n == 0 {
			s.first = batch[0].Timestamp
		}
		s.last = batch[len(batch)-1].Timestamp
		s.n += len(batch)
	}
	return batch, err
}

// runKernel runs cfg's kernel, with a cache of geometry g, over a pass.
func runKernel(cfg Config, g memsim.CacheConfig, routes []radix.Route, over pass) (*netbench.Result, error) {
	cache, err := memsim.NewCache(g)
	if err != nil {
		return nil, err
	}
	rec := memsim.NewRecorder(cache)
	k, err := netbench.NewKernel(cfg.Kernel, routes, rec)
	if err != nil {
		return nil, err
	}
	var res *netbench.Result
	err = over(func(src core.PacketSource) (err error) {
		res, err = netbench.Run(k, src, rec)
		return err
	})
	return res, err
}

// accesses is Figure 2's per-packet measure.
func accesses(p memsim.PacketRecord) float64 { return float64(p.Accesses) }

// Fig2 renders Figure 2 from a study: cumulative traffic percentage against
// memory accesses per packet for the four traces.
func (s *MemStudy) Fig2() *stats.Figure {
	fig := &stats.Figure{
		Title:  "Figure 2: Memory accesses per packet",
		XLabel: "#Mem Accs",
		YLabel: "Traffic (%)",
	}
	for _, res := range s.Results {
		pts := stats.NewCDF(res.Sample(accesses)).Points(30)
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
		for _, c := range res.Sample(memsim.PacketRecord.MissRate) {
			h.Add(c.X, c.N)
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
	var orig stats.Sample
	if len(s.Results) > 0 {
		orig = s.Results[0].Sample(accesses)
	}
	for _, res := range s.Results {
		counts := res.Sample(accesses)
		sum := stats.Summarize(counts)
		t.AddRow(res.Trace,
			fmt.Sprintf("%d", sum.N),
			fmt.Sprintf("%.1f", sum.Mean),
			fmt.Sprintf("%.0f", sum.P50),
			fmt.Sprintf("%.0f", sum.P90),
			fmt.Sprintf("%.0f", sum.Max),
			fmt.Sprintf("%.3f", stats.KSDistance(orig, counts)))
	}
	return t
}

// CacheAblation sweeps cache geometries over the original and random
// traces, showing where the Figure 3 separation appears and collapses.
func CacheAblation(cfg Config) (*stats.Table, error) {
	routes, err := coveringTable(cfg, &spanSource{})
	if err != nil {
		return nil, err
	}
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
		var means [2]float64
		for i, over := range []pass{cfg.basePass, cfg.randomPass} {
			res, err := runKernel(cfg, g, routes, over)
			if err != nil {
				return nil, fmt.Errorf("figures: cache ablation: %w", err)
			}
			means[i] = stats.Summarize(res.Sample(memsim.PacketRecord.MissRate)).Mean
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
