package figures

import (
	"fmt"

	"flowzip/internal/cluster"
	"flowzip/internal/core"
	"flowzip/internal/flow"
	"flowzip/internal/flowgen"
	"flowzip/internal/stats"
	"flowzip/internal/trace"
)

// P2PTable addresses the paper's future-work question — "verifying also the
// applicability of the method to other types of applications like P2P" — by
// compressing a Web trace and a P2P trace of equal flow count side by side
// and comparing clustering effectiveness and the resulting ratio.
func P2PTable(cfg Config) (*stats.Table, error) {
	web := cfg.baseTrace()

	pcfg := flowgen.DefaultP2PConfig()
	pcfg.Seed = cfg.Seed
	pcfg.Flows = cfg.Flows
	pcfg.Duration = cfg.Duration
	p2p := flowgen.P2P(pcfg)

	t := &stats.Table{
		Title: "P2P applicability (future work)",
		Headers: []string{
			"workload", "packets", "mean len", "short tpl", "flows/tpl", "long flows", "ratio",
		},
	}
	for _, tr := range []*trace.Trace{web, p2p} {
		arch, err := core.Compress(tr, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		ratio, err := arch.Ratio()
		if err != nil {
			return nil, err
		}
		d := flow.MeasureLengths(tr.Packets)
		short := 0
		for _, r := range arch.TimeSeq {
			if !r.Long {
				short++
			}
		}
		perTpl := 0.0
		if len(arch.ShortTemplates) > 0 {
			perTpl = float64(short) / float64(len(arch.ShortTemplates))
		}
		t.AddRow(tr.Name,
			fmt.Sprintf("%d", tr.Len()),
			fmt.Sprintf("%.1f", d.MeanLength()),
			fmt.Sprintf("%d", len(arch.ShortTemplates)),
			fmt.Sprintf("%.1f", perTpl),
			fmt.Sprintf("%d", len(arch.LongTemplates)),
			fmt.Sprintf("%.4f", ratio))
	}
	return t, nil
}

// P2PDiversity compares the Section 2.1 concentration statistics across the
// two workloads: the P2P vector population is more diverse, so clustering
// covers less of it — the quantified answer to the future-work question.
func P2PDiversity(cfg Config) (*stats.Table, error) {
	web := cfg.baseTrace()
	pcfg := flowgen.DefaultP2PConfig()
	pcfg.Seed = cfg.Seed
	pcfg.Flows = cfg.Flows
	pcfg.Duration = cfg.Duration
	p2p := flowgen.P2P(pcfg)

	t := &stats.Table{
		Title:   "Cluster concentration: Web vs P2P",
		Headers: []string{"workload", "short flows", "clusters", "top share", "top-5 share"},
	}
	for _, tr := range []*trace.Trace{web, p2p} {
		var vectors []flow.Vector
		for _, f := range flow.Assemble(tr.Packets) {
			if f.Len() <= 50 {
				vectors = append(vectors, f.Vector(flow.DefaultWeights))
			}
		}
		rep := cluster.Diversity(vectors)
		t.AddRow(tr.Name,
			fmt.Sprintf("%d", rep.Flows),
			fmt.Sprintf("%d", rep.Clusters),
			fmt.Sprintf("%.1f%%", 100*rep.TopShare),
			fmt.Sprintf("%.1f%%", 100*rep.Top5Share))
	}
	return t, nil
}
