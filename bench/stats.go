package main

import (
	"sort"

	"flowzip/internal/stats"
)

// quantile returns the q-quantile of xs, which need not be sorted, by linear
// interpolation between closest ranks.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stats.Quantile(s, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// value is one reported metric: the median of its samples, with the
// quartiles and sample count that say how far to trust it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// summarize reports the median of conv applied to every sample. Timings have
// one sample per measured round (pooled latencies one per operation); counts
// repeat exactly, so their quartiles coincide.
func summarize(unit string, samples []float64, conv func(float64) float64) value {
	xs := make([]float64, len(samples))
	for i, x := range samples {
		xs[i] = conv(x)
	}
	return value{Value: median(xs), Unit: unit, Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), N: len(xs)}
}
