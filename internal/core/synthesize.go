package core

import (
	"fmt"
	"time"

	"flowzip/internal/stats"
	"flowzip/internal/trace"
)

// Synthesize implements the paper's stated future work — "implement a
// synthetic packet trace generator based on the described methodology": it
// treats a compressed archive as a *traffic model* and generates a brand-new
// trace of arbitrary size from it, rather than replaying the recorded
// time-seq.
//
// Flows are drawn by sampling the archive's time-seq records (template,
// address and RTT jointly, preserving their empirical correlations) and
// scheduled with Poisson arrivals at the archive's measured flow rate scaled
// by cfg.Scale. The result is statistically faithful to the source trace —
// same template mix, same address popularity, same RTT distribution — but
// as long as requested.

// SynthConfig parameterizes trace synthesis from an archive.
type SynthConfig struct {
	// Seed drives all sampling.
	Seed uint64
	// Flows is the number of flows to generate.
	Flows int
	// Scale multiplies the archive's measured flow arrival rate
	// (0 means 1.0: same offered load as the source trace).
	Scale float64
}

// DefaultSynthConfig synthesizes a trace the size of the source.
func DefaultSynthConfig(a *Archive) SynthConfig {
	return SynthConfig{Seed: 1, Flows: a.Flows(), Scale: 1.0}
}

// Synthesize generates a new trace from the archive under cfg.
func Synthesize(a *Archive, cfg SynthConfig) (*trace.Trace, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if len(a.TimeSeq) == 0 {
		return trace.New("synth"), nil
	}
	if cfg.Flows <= 0 {
		return trace.New("synth"), nil
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}

	// Measured arrival rate: flows per unit time over the source span.
	span := a.TimeSeq[len(a.TimeSeq)-1].FirstTS - a.TimeSeq[0].FirstTS
	if span <= 0 {
		span = time.Second
	}
	meanGap := time.Duration(float64(span) / float64(len(a.TimeSeq)) / cfg.Scale)
	if meanGap <= 0 {
		meanGap = time.Microsecond
	}

	rng := stats.NewRNG(cfg.Seed)
	arrivalRNG := rng.Split()
	sampleRNG := rng.Split()
	d := &Decompressor{archive: a, rng: rng.Split()}

	gap := stats.Exponential{Mean: float64(meanGap)}
	start := time.Duration(0)
	synthetic := make([]TimeSeqRecord, cfg.Flows)
	for i := range synthetic {
		start += time.Duration(gap.Sample(arrivalRNG))
		src := a.TimeSeq[sampleRNG.Intn(len(a.TimeSeq))]
		src.FirstTS = start
		synthetic[i] = src
	}
	synthetic = sortedTimeSeq(synthetic)

	// Reuse the decompression machinery over the synthetic time-seq.
	model := &Archive{
		ShortTemplates: a.ShortTemplates,
		LongTemplates:  a.LongTemplates,
		Addresses:      a.Addresses,
		TimeSeq:        synthetic,
		Opts:           a.Opts,
	}
	d.archive = model
	tr := d.Decompress()
	tr.Name = fmt.Sprintf("synth-%d", cfg.Flows)
	return tr, nil
}
