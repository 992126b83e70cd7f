package flowgen

import (
	"math"
	"time"

	"flowzip/internal/pkt"
	"flowzip/internal/stats"
	"flowzip/internal/trace"
)

// RandomizeAddresses builds the paper's third validation trace: the same
// packets and timestamps as base, but with uniformly random destination
// addresses — destroying the spatial and temporal locality the radix tree
// exploits. Source addresses and everything else are preserved. It drains
// RandomizeSource over base.
func RandomizeAddresses(base *trace.Trace, seed uint64) *trace.Trace {
	out := &trace.Trace{Name: base.Name + "-random", Packets: make([]pkt.Packet, 0, base.Len())}
	// An in-memory source does not fail.
	_ = trace.Each(RandomizeSource(trace.Batches(base, 0), seed), func(batch []pkt.Packet) {
		out.Packets = append(out.Packets, batch...)
	})
	return out
}

// RandomSource is RandomizeAddresses as a packet source.
type RandomSource struct {
	src trace.Source
	rng *stats.RNG
	buf []pkt.Packet
}

// RandomizeSource streams src's packets with their destinations replaced by
// uniformly random addresses, drawn in packet order. Each batch is a copy in
// a buffer the next call reuses; src's batches are left as they are.
func RandomizeSource(src trace.Source, seed uint64) *RandomSource {
	return &RandomSource{src: src, rng: stats.NewRNG(seed)}
}

// Next returns the next batch, or src's error.
func (r *RandomSource) Next() ([]pkt.Packet, error) {
	batch, err := r.src.Next()
	if err != nil {
		return nil, err
	}
	r.buf = append(r.buf[:0], batch...)
	for i := range r.buf {
		r.buf[i].DstIP = pkt.IPv4(r.rng.Uint32())
	}
	return r.buf, nil
}

// FractalConfig parameterizes the fourth validation trace: destination
// addresses from a multiplicative process replayed through an LRU stack
// model with exponential inter-packet times.
type FractalConfig struct {
	Seed    uint64
	Packets int
	// MeanGap is the exponential inter-packet time mean.
	MeanGap time.Duration
	// Bias is the multiplicative-process bit bias in (0.5, 1): each address
	// bit is 1 with probability Bias or 1-Bias depending on the level key,
	// producing a self-similar (fractal) address popularity structure.
	Bias float64
	// StackDepth is the LRU stack size; ReuseProb is the probability a packet
	// re-references a stacked address instead of drawing a fresh one.
	StackDepth int
	ReuseProb  float64
	// DepthZipf skews which stack depth is re-referenced (higher = nearer
	// the top, i.e. stronger temporal locality).
	DepthZipf float64
}

// DefaultFractalConfig gives locality comparable to real traces.
func DefaultFractalConfig() FractalConfig {
	return FractalConfig{
		Seed:       7,
		Packets:    100000,
		MeanGap:    100 * time.Microsecond,
		Bias:       0.75,
		StackDepth: 256,
		ReuseProb:  0.8,
		DepthZipf:  1.2,
	}
}

// Fractal generates the multiplicative-process/LRU-stack trace ("fracexp" in
// the paper's figures). The packets are plain ACK segments — the memory
// study consumes only destination addresses and timing.
func Fractal(cfg FractalConfig) *trace.Trace {
	return &trace.Trace{Name: "fracexp", Packets: fractal(cfg)(nil, math.MaxInt)}
}

// FractalSource streams Fractal(cfg), packet for packet, in batches of up to
// batch packets (trace.DefaultBatch when batch <= 0).
func FractalSource(cfg FractalConfig, batch int) *Stream {
	return newStream(fractal(cfg), batch)
}

// fractal returns the generator of cfg's trace: each call appends the next
// packets to dst until it holds max of them or all cfg.Packets are out.
func fractal(cfg FractalConfig) func(dst []pkt.Packet, max int) []pkt.Packet {
	if cfg.StackDepth <= 0 {
		cfg.StackDepth = 1
	}
	root := stats.NewRNG(cfg.Seed)
	addrRNG := root.Split()
	timeRNG := root.Split()
	modelRNG := root.Split()

	depths := stats.NewZipf(cfg.StackDepth, cfg.DepthZipf)
	gap := stats.Exponential{Mean: float64(cfg.MeanGap)}

	// Per-level orientation of the multiplicative bias: a fixed random key
	// decides whether bit i prefers 1 or 0, giving a reproducible cascade.
	levelKey := addrRNG.Uint32()

	cascade := func() pkt.IPv4 {
		var a uint32
		for bit := 0; bit < 32; bit++ {
			p := cfg.Bias
			if levelKey&(1<<uint(bit)) != 0 {
				p = 1 - cfg.Bias
			}
			if addrRNG.Bool(p) {
				a |= 1 << uint(31-bit)
			}
		}
		return pkt.IPv4(a)
	}

	stack := make([]pkt.IPv4, 0, cfg.StackDepth)
	ts := time.Duration(0)
	srcBase := uint32(pkt.Addr(10, 10, 0, 0))
	i := 0
	return func(dst []pkt.Packet, max int) []pkt.Packet {
		for ; i < cfg.Packets && len(dst) < max; i++ {
			ts += time.Duration(gap.Sample(timeRNG))
			var to pkt.IPv4
			if len(stack) > 0 && modelRNG.Bool(cfg.ReuseProb) {
				d := depths.SampleInt(modelRNG)
				if d >= len(stack) {
					d = len(stack) - 1
				}
				to = stack[d]
				// Move to top (LRU touch).
				copy(stack[1:d+1], stack[:d])
				stack[0] = to
			} else {
				to = cascade()
				if len(stack) < cfg.StackDepth {
					stack = append(stack, 0)
				}
				copy(stack[1:], stack[:len(stack)-1])
				stack[0] = to
			}
			dst = append(dst, pkt.Packet{
				Timestamp:  ts / time.Microsecond * time.Microsecond,
				SrcIP:      pkt.IPv4(srcBase | uint32(i%65536)),
				DstIP:      to,
				SrcPort:    uint16(1024 + i%60000),
				DstPort:    80,
				Proto:      pkt.ProtoTCP,
				Flags:      pkt.FlagACK,
				TTL:        64,
				PayloadLen: 0,
			})
		}
		return dst
	}
}
