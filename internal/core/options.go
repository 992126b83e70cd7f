package core

import (
	"fmt"

	"flowzip/internal/flow"
)

// Options tune the codec: exactly the values an archive's header records, so
// an archive decodes the same wherever it is read. The zero value is
// unusable; start from DefaultOptions.
type Options struct {
	// Weights of the characterization mapping (paper: 16, 4, 1).
	Weights flow.Weights
	// ShortMax is the largest packet count treated as a short flow
	// (paper: 50).
	ShortMax int
	// LimitPct is the similarity threshold as a percentage of the maximum
	// inter-flow distance (paper: 2%).
	LimitPct float64
}

// DefaultOptions returns the paper's parameters.
func DefaultOptions() Options {
	return Options{
		Weights:  flow.DefaultWeights,
		ShortMax: 50,
		LimitPct: 2.0,
	}
}

// Validate checks option consistency.
func (o Options) Validate() error {
	if o.ShortMax < 2 {
		return fmt.Errorf("core: ShortMax %d < 2", o.ShortMax)
	}
	if o.LimitPct < 0 {
		return fmt.Errorf("core: negative LimitPct %g", o.LimitPct)
	}
	if o.Weights.Flag <= 0 || o.Weights.Dep <= 0 || o.Weights.Size <= 0 {
		return fmt.Errorf("core: non-positive weight %v", o.Weights)
	}
	if o.Weights.MaxF() > 255 {
		return fmt.Errorf("core: weights %v overflow the byte-sized f encoding (MaxF=%d)",
			o.Weights, o.Weights.MaxF())
	}
	return nil
}

// limit returns the distance-limit function for the options.
func (o Options) limit() func(n int) int {
	pct := o.LimitPct
	return func(n int) int { return flow.DistanceLimitPct(n, pct) }
}
