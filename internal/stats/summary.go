package stats

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Count is one distinct value of a Sample and its number of observations.
type Count struct {
	X float64
	N int64
}

// Sample is a sample held as counts: each distinct value once, in ascending
// order, with how often it was observed — as many entries as distinct values,
// however long the stream.
type Sample []Count

// Tally returns the Sample of the observations m counts, value to count.
func Tally(m map[float64]int64) Sample {
	s := make(Sample, 0, len(m))
	for x, n := range m {
		s = append(s, Count{x, n})
	}
	slices.SortFunc(s, func(a, b Count) int { return cmp.Compare(a.X, b.X) })
	return s
}

// Len returns the number of observations.
func (s Sample) Len() int64 {
	var n int64
	for _, c := range s {
		n += c.N
	}
	return n
}

// at returns the observation of rank i (from 0) in ascending order.
func (s Sample) at(i int64) float64 {
	for _, c := range s {
		if i < c.N {
			return c.X
		}
		i -= c.N
	}
	return math.NaN()
}

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

// Summarize computes a Summary.
func Summarize(s Sample) Summary {
	n := s.Len()
	if n == 0 {
		return Summary{}
	}
	out := Summary{N: int(n), Min: s[0].X, Max: s[len(s)-1].X}
	// Each value is added its count times, in ascending order: the sum a
	// sorted slice of the observations gives, to the last bit.
	sum, sum2 := 0.0, 0.0
	for _, c := range s {
		for range c.N {
			sum += c.X
			sum2 += c.X * c.X
		}
	}
	out.Mean = sum / float64(n)
	variance := sum2/float64(n) - out.Mean*out.Mean
	if variance > 0 {
		out.StdDev = math.Sqrt(variance)
	}
	out.P50 = quantile(n, s.at, 0.50)
	out.P90 = quantile(n, s.at, 0.90)
	out.P99 = quantile(n, s.at, 0.99)
	return out
}

// Quantile returns the q-quantile (0<=q<=1) of a sorted sample using linear
// interpolation between closest ranks.
func Quantile(sorted []float64, q float64) float64 {
	return quantile(int64(len(sorted)), func(i int64) float64 { return sorted[i] }, q)
}

// quantile is Quantile over n sorted observations, at(i) the one of rank i.
func quantile(n int64, at func(int64) float64, q float64) float64 {
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return at(0)
	}
	if q >= 1 {
		return at(n - 1)
	}
	pos := q * float64(n-1)
	lo := int64(math.Floor(pos))
	hi := int64(math.Ceil(pos))
	if lo == hi {
		return at(lo)
	}
	frac := pos - float64(lo)
	return at(lo)*(1-frac) + at(hi)*frac
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

// Add records n observations of x.
func (h *Histogram) Add(x float64, n int64) {
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
	h.Counts[i] += n
	h.total += n
}

// Fraction returns the share of observations in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}

// CDF is an empirical cumulative distribution over a counted sample.
type CDF struct {
	s Sample
	n int64
}

// NewCDF builds the distribution of s.
func NewCDF(s Sample) *CDF { return &CDF{s: s, n: s.Len()} }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	var below int64
	for _, e := range c.s {
		if e.X > x {
			break
		}
		below += e.N
	}
	if below == 0 {
		return 0
	}
	return float64(below) / float64(c.n)
}

// Points samples the CDF at n evenly spaced x positions across the data range
// and returns (x, P(X<=x)) pairs, suitable for plotting.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.s) == 0 || n <= 0 {
		return nil
	}
	lo, hi := c.s[0].X, c.s[len(c.s)-1].X
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
