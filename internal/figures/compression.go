package figures

import (
	"fmt"
	"time"

	"flowzip/internal/analytic"
	"flowzip/internal/baseline"
	"flowzip/internal/flow"
	"flowzip/internal/stats"
)

// Fig1 reproduces Figure 1: compressed file size (MB) against elapsed trace
// time for the five methods. Sizes are measured, not modelled: each prefix
// slice of the trace is actually compressed by every method.
func Fig1(cfg Config) (*stats.Figure, error) {
	tr := cfg.baseTrace()
	fig := &stats.Figure{
		Title:  "Figure 1: File size comparison",
		XLabel: "Elapsed Time (sec)",
		YLabel: "File Size (MBytes)",
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 10
	}
	methods := baseline.All()
	points := make([][][2]float64, len(methods))
	for s := 1; s <= cfg.Steps; s++ {
		elapsed := cfg.Duration * time.Duration(s) / time.Duration(cfg.Steps)
		slice := tr.Slice(0, elapsed)
		for i, m := range methods {
			sz, err := baseline.Size(m, slice)
			if err != nil {
				return nil, fmt.Errorf("figures: fig1 %s at %v: %w", m.Name(), elapsed, err)
			}
			points[i] = append(points[i], [2]float64{
				elapsed.Seconds(),
				float64(sz) / (1 << 20),
			})
		}
	}
	names := []string{"Original TSH file", "GZIP method", "VJ method", "Peuhkuri method", "Proposed method"}
	for i := range methods {
		fig.Add(names[i], points[i])
	}
	return fig, nil
}

// RatioTable reproduces the ratio claims of Sections 1 and 5: measured
// end-to-end compressed sizes for all five methods next to the paper's
// quoted numbers. "Proposed" is the encoded .fz container, entropy-coded
// fields and column tables included: 0.032 on the default Web trace, against
// the paper's ~0.03 (with plain byte-aligned fields the same datasets took
// 0.051).
func RatioTable(cfg Config) (*stats.Table, error) {
	tr := cfg.baseTrace()
	t := &stats.Table{
		Title:   "Compression ratios (measured vs paper)",
		Headers: []string{"method", "bytes", "ratio", "paper"},
	}
	paper := map[string]string{
		"Original TSH": "1.00",
		"GZIP":         "~0.50",
		"VJ":           "~0.30",
		"Peuhkuri":     "~0.16",
		"Proposed":     "~0.03",
	}
	for _, m := range baseline.All() {
		sz, err := baseline.Size(m, tr)
		if err != nil {
			return nil, fmt.Errorf("figures: ratio %s: %w", m.Name(), err)
		}
		ratio, err := baseline.Ratio(m, tr)
		if err != nil {
			return nil, err
		}
		t.AddRow(m.Name(), fmt.Sprintf("%d", sz), fmt.Sprintf("%.4f", ratio), paper[m.Name()])
	}
	return t, nil
}

// AnalyticTable reproduces equations 5–8: the analytic VJ and proposed
// ratios over the measured flow-length distribution, in both the paper's
// flow-weighted form and the byte-weighted aggregate.
func AnalyticTable(cfg Config) (*stats.Table, error) {
	tr := cfg.baseTrace()
	dist := analytic.LengthDistAdapter{D: flow.MeasureLengths(tr.Packets)}
	if err := analytic.Validate(dist); err != nil {
		return nil, err
	}
	m := analytic.PaperModel()
	t := &stats.Table{
		Title:   "Analytic compression ratios (eqs. 5-8)",
		Headers: []string{"quantity", "value", "paper"},
	}
	t.AddRow("R_vj  (eq. 6, flow-weighted)", fmt.Sprintf("%.4f", m.RatioVJ(dist)), "~0.30")
	t.AddRow("R_vj  (byte-weighted aggregate)", fmt.Sprintf("%.4f", m.AggregateVJ(dist)), "-")
	t.AddRow("R     (eq. 8, flow-weighted)", fmt.Sprintf("%.4f", m.RatioProposed(dist)), "~0.03")
	t.AddRow("R     (byte-weighted aggregate)", fmt.Sprintf("%.4f", m.AggregateProposed(dist)), "-")
	t.AddRow("Peuhkuri bound", fmt.Sprintf("%.2f", m.PeuhkuriBound), "0.16")
	t.AddRow("GZIP measured (paper)", fmt.Sprintf("%.2f", m.GZIPRatio), "0.50")
	return t, nil
}

// FlowLengthTable reproduces the Section 3 statistics: "98 percent of the
// flows have less than 51 packets. These flows comprise 75 percent of all
// Web packets ... and 80 percent of the bytes".
func FlowLengthTable(cfg Config) (*stats.Table, error) {
	tr := cfg.baseTrace()
	d := flow.MeasureLengths(tr.Packets)
	t := &stats.Table{
		Title:   "Flow-length statistics (Section 3)",
		Headers: []string{"statistic", "measured", "paper"},
	}
	t.AddRow("flows with < 51 packets", fmt.Sprintf("%.1f%%", 100*d.FlowFracBelow(51)), "98%")
	t.AddRow("packets in those flows", fmt.Sprintf("%.1f%%", 100*d.PacketFracBelow(51)), "75%")
	t.AddRow("bytes in those flows", fmt.Sprintf("%.1f%%", 100*d.ByteFracBelow(51)), "80%")
	t.AddRow("total flows", fmt.Sprintf("%d", d.TotalFlows), "-")
	t.AddRow("total packets", fmt.Sprintf("%d", d.TotalPackets), "-")
	t.AddRow("mean packets/flow", fmt.Sprintf("%.2f", d.MeanLength()), "-")
	t.AddRow("max flow length", fmt.Sprintf("%d", d.MaxLength()), "-")
	return t, nil
}
