package flow

import (
	"fmt"
	"math"

	"flowzip/internal/pkt"
)

// Flag classes (P1 values). The paper restricts the study to the most common
// arrangements; everything else folds into the nearest class.
const (
	FlagClassSYN      = 1 // connection request
	FlagClassSYNACK   = 2 // handshake reply
	FlagClassACK      = 3 // data segment or pure acknowledgment
	FlagClassTeardown = 4 // FIN, FIN+ACK or RST
)

// Dependence classes (P2 values).
const (
	DepDependent    = 1 // waits on a packet from the opposite endpoint
	DepNotDependent = 2 // follows a same-direction packet immediately
)

// Size classes (P3 values). SmallPayloadMax is the paper's 500-byte split.
const (
	SizeClassEmpty = 1
	SizeClassSmall = 2
	SizeClassLarge = 3

	SmallPayloadMax = 500
)

// Weights are the w_i multipliers of the mapping.
type Weights struct {
	Flag int // w1, paper value 16
	Dep  int // w2, paper value 4
	Size int // w3, paper value 1
}

// DefaultWeights are the paper's (16, 4, 1).
var DefaultWeights = Weights{Flag: 16, Dep: 4, Size: 1}

// String renders "(w1,w2,w3)".
func (w Weights) String() string { return fmt.Sprintf("(%d,%d,%d)", w.Flag, w.Dep, w.Size) }

// MaxDistance is the paper's stated maximum |f_a - f_b| between two packets
// (Section 3). With the default weights the exact bound is 16·3+4·1+1·2 = 54;
// the paper rounds to 50 and d_lim derives from this constant.
const MaxDistance = 50

// FlagClass computes P1 for a packet.
func FlagClass(p *pkt.Packet) int {
	switch {
	case p.Flags.Has(pkt.FlagSYN) && p.Flags.Has(pkt.FlagACK):
		return FlagClassSYNACK
	case p.Flags.Has(pkt.FlagSYN):
		return FlagClassSYN
	case p.Flags&(pkt.FlagFIN|pkt.FlagRST) != 0:
		return FlagClassTeardown
	default:
		return FlagClassACK
	}
}

// SizeClass computes P3 for a payload length.
func SizeClass(payload int) int {
	// The classes are consecutive (Empty, Small, Large), so the two threshold
	// tests sum directly — conditional increments the compiler lowers to
	// SETcc+ADD. Payload sizes are bimodal (empty acks vs full segments), so
	// a branchy switch here is mispredicted constantly on the per-packet path.
	c := SizeClassEmpty
	if payload > 0 {
		c++
	}
	if payload > SmallPayloadMax {
		c++
	}
	return c
}

// F computes the characterization integer for explicit parameter values.
func (w Weights) F(flagClass, depClass, sizeClass int) int {
	return w.Flag*flagClass + w.Dep*depClass + w.Size*sizeClass
}

// MaxF returns the largest representable f value for the weights.
func (w Weights) MaxF() int { return w.F(FlagClassTeardown, DepNotDependent, SizeClassLarge) }

// Decompose inverts F: it recovers (flagClass, depClass, sizeClass) from an
// f value. It is exact for the default weights (and any weights where each
// term's range fits under the next weight). Values outside the valid range
// are clamped to the nearest class.
func (w Weights) Decompose(f int) (flagClass, depClass, sizeClass int) {
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	flagClass = clamp(f/w.Flag, FlagClassSYN, FlagClassTeardown)
	rem := f - w.Flag*flagClass
	if rem < 0 {
		rem = 0
	}
	depClass = clamp(rem/w.Dep, DepDependent, DepNotDependent)
	rem -= w.Dep * depClass
	if rem < 0 {
		rem = 0
	}
	sizeClass = clamp(rem/w.Size, SizeClassEmpty, SizeClassLarge)
	return flagClass, depClass, sizeClass
}

// Vector is the per-flow F_f vector of packet characterization values.
// The distance kernels over vectors (Distance, DistanceWithin, distanceUnder,
// DistanceWithinBatch, Sum) live in kernel.go.
type Vector []uint8

// DistanceLimit computes d_lim for an n-packet flow (paper eq. 4):
// 2% of the maximum inter-flow distance n·MaxDistance.
func DistanceLimit(n int) int { return DistanceLimitPct(n, 2.0) }

// DistanceLimitPct generalizes eq. 4 to an arbitrary percentage, used by the
// threshold-ablation experiment. The returned integer bound implements the
// paper's strict "difference lower than pct% of the maximum" over integer
// distances: d < ceil(x) is exactly d < x for any real x and integer d, so
// fractional limits still admit exact matches (distance 0) while pct = 0
// disables clustering entirely.
func DistanceLimitPct(n int, pct float64) int {
	return int(math.Ceil(float64(n) * MaxDistance * pct / 100.0))
}
