// Package figures is the experiment harness: one entry point per table and
// figure of the paper, each returning printable stats.Table / stats.Figure
// values. cmd/figures and the repository-root benchmarks drive these.
//
// Experiment index, each entry the paper's table, figure or section it
// reproduces:
//
//	Fig1             — file size vs elapsed time, five methods (Figure 1)
//	RatioTable       — end-to-end compression ratios (Sections 1/5)
//	AnalyticTable    — equations 5–8 on the measured flow-length dist
//	FlowLengthTable  — Section 3 flow statistics (98%/75%/80%)
//	MemStudy + Fig2  — memory accesses per packet, four traces (Figure 2)
//	Fig3             — cache-miss-rate buckets, four traces (Figure 3)
//	ClusterStudy     — Section 2.1 flow-diversity study
//	WeightAblation   — Section 2 weight flexibility
//	ThresholdAblation— eq. 4 similarity threshold sweep
//	CacheAblation    — cache-geometry sensitivity of Figure 3
//	P2PTable/P2PDiversity — §7 future work: applicability to P2P traffic
package figures

import (
	"time"

	"flowzip/internal/flowgen"
	"flowzip/internal/memsim"
	"flowzip/internal/netbench"
	"flowzip/internal/trace"
)

// Config scales every experiment. The zero value is unusable; start from
// DefaultConfig (CI-sized, seconds of runtime) or PaperScaleConfig.
type Config struct {
	// Seed drives all generators.
	Seed uint64
	// Flows and Duration size the base Web trace.
	Flows    int
	Duration time.Duration
	// Steps is the number of elapsed-time samples in Figure 1.
	Steps int
	// TableBackground is the number of synthetic routes beside the covering
	// prefixes in the memory studies.
	TableBackground int
	// MinPrefixSources is the distinct-source count qualifying a destination
	// /24 for table coverage.
	MinPrefixSources int
	// Kernel selects the benchmark program for Figures 2 and 3.
	Kernel netbench.KernelKind
	// Cache is the modelled cache geometry for Figure 3.
	Cache memsim.CacheConfig
	// FractalPackets sizes the fracexp trace (0 = match the base trace).
	FractalPackets int
}

// DefaultConfig is a laptop-scale configuration: every experiment finishes
// in seconds while preserving the paper's qualitative shapes.
func DefaultConfig() Config {
	return Config{
		Seed:             1,
		Flows:            20000,
		Duration:         100 * time.Second,
		Steps:            10,
		TableBackground:  20000,
		MinPrefixSources: 5,
		Kernel:           netbench.KindRoute,
		Cache:            memsim.DefaultCacheConfig(),
	}
}

// PaperScaleConfig approaches the paper's trace sizes (hundreds of MB of
// TSH); minutes of runtime.
func PaperScaleConfig() Config {
	c := DefaultConfig()
	c.Flows = 400000
	c.TableBackground = 100000
	return c
}

// baseTrace generates the experiment's Web trace. Client networks scale
// with the flow count so that client-side /24s stay sparse (it is the
// servers whose prefixes a covering table should carry — see
// netbench.CoveringTable).
func (c Config) baseTrace() *trace.Trace {
	cfg := flowgen.DefaultWebConfig()
	cfg.Seed = c.Seed
	cfg.Flows = c.Flows
	cfg.Duration = c.Duration
	if cfg.ClientNets < c.Flows {
		cfg.ClientNets = c.Flows
	}
	tr := flowgen.Web(cfg)
	tr.Name = "RedIRIS" // the paper's label for the original trace
	return tr
}
