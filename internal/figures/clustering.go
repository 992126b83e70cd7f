package figures

import (
	"fmt"
	"time"

	"flowzip/internal/cluster"
	"flowzip/internal/core"
	"flowzip/internal/flow"
	"flowzip/internal/stats"
)

// ClusterStudy reproduces the Section 2.1 observation: Web flows are so
// similar that a handful of clusters covers almost all of them. It returns
// the cluster-growth curve (templates vs flows processed) and a
// concentration table.
func ClusterStudy(cfg Config) (*stats.Figure, *stats.Table, error) {
	tr := cfg.baseTrace()
	flows := flow.Assemble(tr.Packets)
	w := flow.DefaultWeights

	store := cluster.NewStore()
	fig := &stats.Figure{
		Title:  "Cluster growth (Section 2.1)",
		XLabel: "flows processed",
		YLabel: "clusters",
	}
	var pts [][2]float64
	step := len(flows) / 50
	if step == 0 {
		step = 1
	}
	var vectors []flow.Vector
	shortSeen := 0
	for _, f := range flows {
		if f.Len() > 50 {
			continue
		}
		v := f.Vector(w)
		vectors = append(vectors, v)
		store.Match(v)
		shortSeen++
		if shortSeen%step == 0 {
			pts = append(pts, [2]float64{float64(shortSeen), float64(store.Len())})
		}
	}
	if shortSeen > 0 {
		pts = append(pts, [2]float64{float64(shortSeen), float64(store.Len())})
	}
	fig.Add("templates", pts)

	rep := cluster.Diversity(vectors)
	t := &stats.Table{
		Title:   "Flow diversity (Section 2.1)",
		Headers: []string{"statistic", "value"},
	}
	t.AddRow("short flows", fmt.Sprintf("%d", rep.Flows))
	t.AddRow("clusters", fmt.Sprintf("%d", rep.Clusters))
	t.AddRow("flows per cluster", fmt.Sprintf("%.1f", rep.FlowsPerCenter))
	t.AddRow("largest cluster share", fmt.Sprintf("%.1f%%", 100*rep.TopShare))
	t.AddRow("top-5 cluster share", fmt.Sprintf("%.1f%%", 100*rep.Top5Share))
	return fig, t, nil
}

// WeightAblation sweeps the characterization weights (w1, w2, w3),
// reporting templates created and compression ratio — the paper's claim
// that "the weights give us a higher degree of flexibility" quantified.
func WeightAblation(cfg Config) (*stats.Table, error) {
	tr := cfg.baseTrace()
	t := &stats.Table{
		Title:   "Weight ablation (Section 2)",
		Headers: []string{"weights", "templates", "matched%", "ratio"},
	}
	weightSets := []flow.Weights{
		{Flag: 16, Dep: 4, Size: 1}, // paper
		{Flag: 8, Dep: 2, Size: 1},
		{Flag: 24, Dep: 6, Size: 2},
		{Flag: 1, Dep: 1, Size: 1}, // classes collapse: aggressive merging
		{Flag: 50, Dep: 10, Size: 2},
	}
	for _, w := range weightSets {
		opts := core.DefaultOptions()
		opts.Weights = w
		arch, err := core.Compress(tr, opts)
		if err != nil {
			return nil, err
		}
		ratio, err := arch.Ratio()
		if err != nil {
			return nil, err
		}
		// Every short flow either founded one of the short templates or
		// matched one.
		short := 0
		for _, r := range arch.TimeSeq {
			if !r.Long {
				short++
			}
		}
		matched := 0.0
		if short > 0 {
			matched = 100 * float64(short-len(arch.ShortTemplates)) / float64(short)
		}
		t.AddRow(w.String(),
			fmt.Sprintf("%d", len(arch.ShortTemplates)),
			fmt.Sprintf("%.1f%%", matched),
			fmt.Sprintf("%.4f", ratio))
	}
	return t, nil
}

// ThresholdAblation sweeps the similarity threshold percentage of eq. 4,
// reporting the storage/fidelity trade-off: a looser threshold merges more
// flows (fewer templates, smaller file) at higher vector distortion.
func ThresholdAblation(cfg Config) (*stats.Table, error) {
	tr := cfg.baseTrace()
	flows := flow.Assemble(tr.Packets)
	w := flow.DefaultWeights

	t := &stats.Table{
		Title:   "Similarity threshold ablation (eq. 4)",
		Headers: []string{"threshold%", "templates", "ratio", "mean distortion/pkt"},
	}
	for _, pct := range []float64{0, 0.5, 1, 2, 5, 10} {
		opts := core.DefaultOptions()
		opts.LimitPct = pct
		arch, err := core.Compress(tr, opts)
		if err != nil {
			return nil, err
		}
		ratio, err := arch.Ratio()
		if err != nil {
			return nil, err
		}
		// Distortion: L1 distance between each short flow's vector and its
		// matched template, normalized per packet.
		store := cluster.NewStoreLimit(func(n int) int { return flow.DistanceLimitPct(n, pct) })
		totalDist, totalPkts := 0.0, 0.0
		for _, f := range flows {
			if f.Len() > opts.ShortMax {
				continue
			}
			v := f.Vector(w)
			tpl, created := store.Match(v)
			if !created {
				totalDist += float64(flow.Distance(tpl.Vector, v))
			}
			totalPkts += float64(len(v))
		}
		distortion := 0.0
		if totalPkts > 0 {
			distortion = totalDist / totalPkts
		}
		t.AddRow(fmt.Sprintf("%.1f", pct),
			fmt.Sprintf("%d", len(arch.ShortTemplates)),
			fmt.Sprintf("%.4f", ratio),
			fmt.Sprintf("%.4f", distortion))
	}
	return t, nil
}

// StorageBreakdownTable shows encoded bytes per dataset — how the paper's
// "~8 bytes per flow" claim decomposes in practice. The §5 model charges
// those 8 bytes to the time-seq dataset as fixed-width fields; the container
// codes each field by its measured distribution instead (Huffman over
// template tags and address indexes, bit-length classes over timestamp
// deltas and rtts) and lands at about 5 bytes a flow there on the default Web
// trace, 7.2 over all five sections, where byte-aligned fields took 7.9 and
// 11.4. Nothing is lost to it: the datasets are the paper's, the entropy
// coding underneath is this repository's extension.
func StorageBreakdownTable(cfg Config) (*stats.Table, error) {
	tr := cfg.baseTrace()
	arch, err := core.Compress(tr, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	sizes, err := arch.Encode(discard{})
	if err != nil {
		return nil, err
	}
	t := &stats.Table{
		Title:   "Compressed storage breakdown",
		Headers: []string{"dataset", "bytes", "share", "bytes/flow"},
	}
	total := sizes.Total()
	nFlows := float64(arch.Flows())
	row := func(name string, b int64) {
		share := 0.0
		if total > 0 {
			share = 100 * float64(b) / float64(total)
		}
		perFlow := 0.0
		if nFlows > 0 {
			perFlow = float64(b) / nFlows
		}
		t.AddRow(name, fmt.Sprintf("%d", b), fmt.Sprintf("%.1f%%", share), fmt.Sprintf("%.2f", perFlow))
	}
	row("header", sizes.Header)
	row("short-flows-template", sizes.ShortTemplates)
	row("long-flows-template", sizes.LongTemplates)
	row("address", sizes.Addresses)
	row("time-seq", sizes.TimeSeq)
	row("total", total)
	return t, nil
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// SmokeDuration bounds quick-test experiment configs.
const SmokeDuration = 10 * time.Second
