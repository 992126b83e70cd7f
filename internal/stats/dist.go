package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sampler produces float64 variates.
type Sampler interface {
	Sample(r *RNG) float64
}

// IntSampler produces integer variates.
type IntSampler interface {
	SampleInt(r *RNG) int
}

// Uniform is a continuous uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// Sample draws from the distribution.
func (u Uniform) Sample(r *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// Exponential is an exponential distribution with the given Mean.
type Exponential struct {
	Mean float64
}

// Sample draws from the distribution.
func (e Exponential) Sample(r *RNG) float64 { return e.Mean * r.ExpFloat64() }

// LogNormal is parameterized by the median and the shape sigma of the
// underlying normal (mu = ln(Median)).
type LogNormal struct {
	Median float64
	Sigma  float64
}

// Sample draws from the distribution.
func (l LogNormal) Sample(r *RNG) float64 {
	return l.Median * math.Exp(l.Sigma*r.normFloat64())
}

// Pareto is a continuous Pareto distribution with scale Xm and shape Alpha.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// Sample draws from the distribution.
func (p Pareto) Sample(r *RNG) float64 {
	u := 1 - r.Float64() // (0,1]
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

// BoundedPareto draws Pareto(Xm, Alpha) truncated to [Xm, Max].
type BoundedPareto struct {
	Xm    float64
	Max   float64
	Alpha float64
}

// Sample draws from the distribution via inverse-CDF of the truncated law.
func (p BoundedPareto) Sample(r *RNG) float64 {
	u := r.Float64()
	la := math.Pow(p.Xm, p.Alpha)
	ha := math.Pow(p.Max, p.Alpha)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/p.Alpha)
	if x < p.Xm {
		x = p.Xm
	}
	if x > p.Max {
		x = p.Max
	}
	return x
}

// Zipf samples ranks 0..N-1 with probability proportional to 1/(rank+1)^S.
// It precomputes the CDF, so sampling is O(log N).
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf sampler over n ranks with exponent s >= 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{cdf: cdf}
}

// SampleInt returns a rank in [0, N).
func (z *Zipf) SampleInt(r *RNG) int {
	u := r.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// DiscretePowerLaw samples integers n in [Min, Max] with
// P(n) proportional to n^(-Alpha). This is the flow-length model used by the
// synthetic Web generator: the paper reports 98% of Web flows below 51
// packets, which an Alpha around 2.4 with Min=2 reproduces.
type DiscretePowerLaw struct {
	Min, Max int
	Alpha    float64

	cdf []float64
}

// NewDiscretePowerLaw precomputes the CDF for the given support.
func NewDiscretePowerLaw(minN, maxN int, alpha float64) *DiscretePowerLaw {
	if minN < 1 || maxN < minN {
		panic(fmt.Sprintf("stats: invalid power-law support [%d,%d]", minN, maxN))
	}
	d := &DiscretePowerLaw{Min: minN, Max: maxN, Alpha: alpha}
	d.cdf = make([]float64, maxN-minN+1)
	total := 0.0
	for n := minN; n <= maxN; n++ {
		total += math.Pow(float64(n), -alpha)
		d.cdf[n-minN] = total
	}
	for i := range d.cdf {
		d.cdf[i] /= total
	}
	return d
}

// SampleInt draws a flow length.
func (d *DiscretePowerLaw) SampleInt(r *RNG) int {
	u := r.Float64()
	return d.Min + sort.SearchFloat64s(d.cdf, u)
}

// Discrete is an arbitrary discrete distribution over values with the given
// weights (not necessarily normalized).
type Discrete struct {
	values []int
	cdf    []float64
}

// NewDiscrete builds the sampler. values and weights must have equal nonzero
// length and non-negative weights with a positive sum.
func NewDiscrete(values []int, weights []float64) *Discrete {
	if len(values) == 0 || len(values) != len(weights) {
		panic("stats: NewDiscrete needs matching non-empty values/weights")
	}
	d := &Discrete{values: append([]int(nil), values...)}
	d.cdf = make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("stats: NewDiscrete negative weight")
		}
		total += w
		d.cdf[i] = total
	}
	if total <= 0 {
		panic("stats: NewDiscrete zero total weight")
	}
	for i := range d.cdf {
		d.cdf[i] /= total
	}
	return d
}

// SampleInt draws one of the configured values.
func (d *Discrete) SampleInt(r *RNG) int {
	u := r.Float64()
	return d.values[sort.SearchFloat64s(d.cdf, u)]
}
