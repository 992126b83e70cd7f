package stats

import (
	"math"
	"sort"
)

// Summary holds moments and order statistics of a float64 sample.
type Summary struct {
	N        int
	Min, Max float64
	Mean     float64
	StdDev   float64
	P50      float64
	P90      float64
	P99      float64
}

// Summarize computes a Summary. It copies xs before sorting.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs)}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	sum, sum2 := 0.0, 0.0
	for _, x := range sorted {
		sum += x
		sum2 += x * x
	}
	s.Mean = sum / float64(s.N)
	variance := sum2/float64(s.N) - s.Mean*s.Mean
	if variance > 0 {
		s.StdDev = math.Sqrt(variance)
	}
	s.P50 = Quantile(sorted, 0.50)
	s.P90 = Quantile(sorted, 0.90)
	s.P99 = Quantile(sorted, 0.99)
	return s
}

// Quantile returns the q-quantile (0<=q<=1) of a sorted sample using linear
// interpolation between closest ranks.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram accumulates counts over explicit bin edges.
// A value x lands in bin i when Edges[i] <= x < Edges[i+1]; values below
// Edges[0] are dropped, values at or above the last edge land in the final
// (open-ended) overflow bin.
type Histogram struct {
	Edges  []float64 // len(Edges) >= 1, strictly increasing
	Counts []int64   // len(Edges) bins: last bin is [Edges[last], +inf)
	total  int64
}

// NewHistogram builds a histogram over the given strictly-increasing edges.
func NewHistogram(edges []float64) *Histogram {
	if len(edges) == 0 {
		panic("stats: NewHistogram with no edges")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("stats: NewHistogram edges must be strictly increasing")
		}
	}
	return &Histogram{
		Edges:  append([]float64(nil), edges...),
		Counts: make([]int64, len(edges)),
	}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	if x < h.Edges[0] {
		return
	}
	i := sort.SearchFloat64s(h.Edges, x)
	// SearchFloat64s returns the first edge >= x; bin index is that edge's
	// position unless x is exactly on an edge, in which case it opens that bin.
	if i == len(h.Edges) || h.Edges[i] != x {
		i--
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.total++
}

// Fraction returns the share of observations in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}

// CDF is an empirical cumulative distribution over a float64 sample.
type CDF struct {
	sorted []float64
}

// NewCDF copies and sorts the sample.
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Points samples the CDF at n evenly spaced x positions across the data range
// and returns (x, P(X<=x)) pairs, suitable for plotting.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	if hi == lo {
		return [][2]float64{{lo, 1}}
	}
	pts := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		pts = append(pts, [2]float64{x, c.At(x)})
	}
	return pts
}
