// Package analytic implements the closed-form compression-ratio models of
// the paper's Section 5 (equations 5–8): per-flow-length ratios for the
// adapted Van Jacobson method and the proposed flow-clustering method, and
// their expectations over a measured flow-length distribution.
package analytic

import (
	"fmt"

	"flowzip/internal/flow"
)

// Model fixes the constants of the Section 5 analysis.
type Model struct {
	// RecordBytes is the per-packet record size of the original trace
	// (paper, Section 5: 50 bytes — a TSH record is 44).
	RecordBytes float64
	// VJFullBytes is the cost of a flow's first packet under VJ (paper: 50).
	VJFullBytes float64
	// VJDeltaBytes is the minimal encoded header (paper: 6 = 3-byte CID +
	// 2-byte timestamp + 1 byte).
	VJDeltaBytes float64
	// FlowBytes is the proposed method's per-flow cost (paper: 8 bytes in
	// the time-seq dataset — timestamp, template id, rtt and address as
	// fixed-width fields). The container undercuts it: its time-seq records
	// are entropy-coded per field (internal/core sections.go), which on the
	// default Web trace comes to 5.0 bytes a flow where byte-aligned
	// uvarints took 7.9 (figures -fig storage). The model keeps the paper's
	// constant; the datasets are the paper's, the entropy coding is ours.
	FlowBytes float64
	// PeuhkuriBound is the flat bound the paper quotes for the Peuhkuri
	// method (16%).
	PeuhkuriBound float64
	// GZIPRatio is the paper's measured GZIP ratio (50%).
	GZIPRatio float64
}

// PaperModel returns the constants exactly as the paper states them.
func PaperModel() Model {
	return Model{
		RecordBytes:   50,
		VJFullBytes:   50,
		VJDeltaBytes:  6,
		FlowBytes:     8,
		PeuhkuriBound: 0.16,
		GZIPRatio:     0.50,
	}
}

// rVJ is equation 5: the per-flow compression ratio of an n-packet flow
// under the adapted Van Jacobson method,
//
//	r_vj(n) = (50 + 6(n-1)) / (50 n).
func (m Model) rVJ(n int) float64 {
	if n <= 0 {
		return 0
	}
	return (m.VJFullBytes + m.VJDeltaBytes*float64(n-1)) / (m.RecordBytes * float64(n))
}

// rProposed is equation 7: the proposed method's per-flow ratio,
//
//	r(n) = 8 / (50 n).
func (m Model) rProposed(n int) float64 {
	if n <= 0 {
		return 0
	}
	return m.FlowBytes / (m.RecordBytes * float64(n))
}

// Dist abstracts a flow-length distribution p_n. Both the empirical
// flow.LengthDist and synthetic stats distributions satisfy it via adapters.
type Dist interface {
	// P returns p_n, the probability that a flow has n packets.
	P(n int) float64
	// Lengths enumerates the support in ascending order.
	Lengths() []int
}

// RatioVJ is equation 6: R_vj = Σ_n p_n · r_vj(n). The paper sums the
// per-flow ratios weighted by flow probability (flow-weighted mean ratio).
func (m Model) RatioVJ(d Dist) float64 {
	r := 0.0
	for _, n := range d.Lengths() {
		r += d.P(n) * m.rVJ(n)
	}
	return r
}

// RatioProposed is equation 8: R = Σ_n p_n · r(n).
func (m Model) RatioProposed(d Dist) float64 {
	r := 0.0
	for _, n := range d.Lengths() {
		r += d.P(n) * m.rProposed(n)
	}
	return r
}

// AggregateVJ is the byte-weighted aggregate ratio
// Σ p_n·n·r_vj(n) / Σ p_n·n — the ratio an actual file of many flows
// exhibits (long flows carry more packets). Reported alongside the paper's
// flow-weighted form for comparison.
func (m Model) AggregateVJ(d Dist) float64 {
	num, den := 0.0, 0.0
	for _, n := range d.Lengths() {
		p := d.P(n)
		num += p * float64(n) * m.rVJ(n)
		den += p * float64(n)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// AggregateProposed is the byte-weighted aggregate of equation 7.
func (m Model) AggregateProposed(d Dist) float64 {
	num, den := 0.0, 0.0
	for _, n := range d.Lengths() {
		p := d.P(n)
		num += p * float64(n) * m.rProposed(n)
		den += p * float64(n)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// LengthDistAdapter adapts flow.LengthDist to the Dist interface.
type LengthDistAdapter struct{ D *flow.LengthDist }

// P implements Dist.
func (a LengthDistAdapter) P(n int) float64 { return a.D.P(n) }

// Lengths implements Dist.
func (a LengthDistAdapter) Lengths() []int { return a.D.Lengths() }

// TableDist is a literal distribution for tests and what-if analyses.
type TableDist map[int]float64

// P implements Dist.
func (t TableDist) P(n int) float64 { return t[n] }

// Lengths implements Dist.
func (t TableDist) Lengths() []int {
	out := make([]int, 0, len(t))
	for n := range t {
		out = append(out, n)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Validate checks that a distribution sums to ~1.
func Validate(d Dist) error {
	sum := 0.0
	for _, n := range d.Lengths() {
		sum += d.P(n)
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("analytic: distribution sums to %g, want 1", sum)
	}
	return nil
}
