package flow

import (
	"encoding/binary"
	"fmt"
)

// This file holds the distance kernels: the L1 metric of the compressor,
// computed eight elements at a time over uint64 words (SWAR — SIMD within a
// register). The word kernels are branch-light straight-line integer code
// that the compiler turns into a handful of ALU ops per 8 bytes on any
// 64-bit target (and plain 32-bit arithmetic pairs under GOARCH=386), with
// no assembly and no build tags; under GOAMD64=v3 the compiler is free to
// lower the loads and masks onto the wider ALU forms. Vectors shorter than
// one word take the scalar byte loop, which is also the reference the word
// kernels are fuzzed against (FuzzDistanceKernels).
//
// The SWAR identities, per 8-byte word x, y:
//
//   - swarSub computes the bytewise difference (x_i - y_i) mod 256 without
//     borrows crossing byte lanes: force the high bit of every x byte and
//     clear it in every y byte so the low 7 bits subtract cleanly, then
//     patch bit 7 of each lane back to x_7 ^ y_7 ^ borrow_in.
//   - the lanes where x_i < y_i are exactly the lanes with a borrow out of
//     bit 7 (the standard full-subtractor borrow recurrence evaluated at
//     the top bit), giving a mask to negate just those lanes: |x_i - y_i|.
//   - the eight per-lane absolute differences (each <= 255, summing to at
//     most 2040) fold to one integer with two lane-halving adds and one
//     multiply-accumulate shift.
//
// None of this changes the metric: every exported function agrees exactly
// with the one-byte-at-a-time definition in distanceScalar.

const (
	swarH = 0x8080808080808080 // bit 7 of every byte lane
	swarE = 0x00FF00FF00FF00FF // even byte of every 16-bit lane
	swarL = 0x0001000100010001 // LSB of every 16-bit lane
)

// absDiffBytes returns the bytewise |x_i - y_i| of two packed words.
func absDiffBytes(x, y uint64) uint64 {
	d := ((x | swarH) - (y &^ swarH)) ^ ((x ^ ^y) & swarH)
	// Borrow out of each byte: set iff x_i < y_i. The borrow into bit 7 is
	// recovered from the difference (d7 = x7 ^ y7 ^ bin7).
	lt := ((^x & y) | ((^x | y) & (x ^ y ^ d))) & swarH
	m := lt >> 7          // 0x01 in every lane that went negative
	full := m * 0xFF      // 0xFF in those lanes
	return (d ^ full) + m // bytewise negate the negative lanes
}

// sumBytesWord folds the eight byte lanes of w into one sum (<= 2040).
func sumBytesWord(w uint64) int {
	t := (w & swarE) + ((w >> 8) & swarE) // four 16-bit lanes, each <= 510
	return int((t * swarL) >> 48)         // their sum lands in the top lane
}

// distanceScalar is the reference byte-loop kernel: the L1 distance between
// two same-length vectors, one element at a time. The word kernels must
// agree with it exactly; it also serves vectors shorter than one word.
func distanceScalar(a, b Vector) int {
	d := 0
	for i := range a {
		if a[i] > b[i] {
			d += int(a[i] - b[i])
		} else {
			d += int(b[i] - a[i])
		}
	}
	return d
}

// distanceUnderScalar is the reference early-exit kernel behind the word
// tail and the parity tests: (distance, true) when strictly below cap,
// (partial lower bound >= cap, false) as soon as that is proven.
func distanceUnderScalar(a, b Vector, cap int) (int, bool) {
	d := 0
	for i := range a {
		if a[i] > b[i] {
			d += int(a[i] - b[i])
		} else {
			d += int(b[i] - a[i])
		}
		if d >= cap {
			return d, false
		}
	}
	return d, true
}

// Distance is the L1 distance between two vectors of equal length; the
// similarity metric of the compressor. Vectors of different length are
// incomparable (the paper only compares flows with the same packet count)
// and Distance panics in that case.
func Distance(a, b Vector) int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("flow: Distance over different lengths %d vs %d", len(a), len(b)))
	}
	d := 0
	i := 0
	for ; i+8 <= len(a); i += 8 {
		d += sumBytesWord(absDiffBytes(
			binary.LittleEndian.Uint64(a[i:]),
			binary.LittleEndian.Uint64(b[i:])))
	}
	return d + distanceScalar(a[i:], b[i:])
}

// Sum returns the sum of the vector's elements. |Sum(a)-Sum(b)| is a lower
// bound on Distance(a, b) (triangle inequality applied per element), which
// the cluster store uses to reject match candidates without touching their
// elements.
func Sum(v Vector) int {
	s := 0
	i := 0
	for ; i+8 <= len(v); i += 8 {
		s += sumBytesWord(binary.LittleEndian.Uint64(v[i:]))
	}
	for ; i < len(v); i++ {
		s += int(v[i])
	}
	return s
}

// DistanceWithin reports whether Distance(a, b) < lim without always paying
// for the full element walk: the partial sum is monotonically non-decreasing,
// so the kernel aborts as soon as it reaches lim. Like Distance it panics on
// length mismatch; lim <= 0 is never satisfiable (distances are >= 0).
func DistanceWithin(a, b Vector, lim int) bool {
	_, ok := distanceUnder(a, b, lim)
	return ok
}

// distanceUnder is the early-exit distance kernel behind DistanceWithin: it
// returns (Distance(a, b), true) when the distance is strictly below cap, and
// (partial, false) as soon as the running sum proves it is not — the partial
// value is only a lower bound then, accumulated a word at a time. Panics on
// length mismatch, mirroring Distance.
func distanceUnder(a, b Vector, cap int) (int, bool) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("flow: distanceUnder over different lengths %d vs %d", len(a), len(b)))
	}
	if cap <= 0 {
		return 0, false
	}
	d := 0
	i := 0
	for ; i+8 <= len(a); i += 8 {
		d += sumBytesWord(absDiffBytes(
			binary.LittleEndian.Uint64(a[i:]),
			binary.LittleEndian.Uint64(b[i:])))
		if d >= cap {
			return d, false
		}
	}
	if i == len(a) {
		return d, true
	}
	t, ok := distanceUnderScalar(a[i:], b[i:], cap-d)
	return d + t, ok
}

// DistanceWithinBatch is the wide first-fit kernel behind the cluster
// store's arena walk: arena holds count candidate vectors of len(v) bytes
// each, back to back, and the kernel returns the index of the first
// candidate whose L1 distance to v is strictly below lim, or -1 when none
// qualifies. Candidates are visited in arena order, so the answer is
// exactly the first-fit answer of calling DistanceWithin per candidate;
// batching the scan keeps the per-candidate setup (bounds checks, slice
// headers, call overhead) out of the inner loop and walks the arena
// linearly, which is what makes dense buckets — the adversarial case where
// the sum bound rejects little — cache-resident.
//
// Zero-length vectors are all at distance 0, so any positive limit matches
// the first candidate. Panics when arena does not hold exactly count
// vectors, mirroring the length-mismatch panic of the pairwise kernels.
func DistanceWithinBatch(arena []byte, count int, v Vector, lim int) int {
	n := len(v)
	if len(arena) != count*n {
		panic(fmt.Sprintf("flow: DistanceWithinBatch arena of %d bytes for %d vectors of %d", len(arena), count, n))
	}
	if lim <= 0 {
		return -1
	}
	if n == 0 {
		if count > 0 {
			return 0
		}
		return -1
	}
	if n < 8 {
		// Short vectors: the word setup costs more than it saves.
		for i := 0; i < count; i++ {
			if _, ok := distanceUnderScalar(arena[i*n:(i+1)*n], v, lim); ok {
				return i
			}
		}
		return -1
	}
	words := n / 8
	for i := 0; i < count; i++ {
		c := arena[i*n : (i+1)*n]
		d := 0
		for w := 0; w < words; w++ {
			d += sumBytesWord(absDiffBytes(
				binary.LittleEndian.Uint64(c[w*8:]),
				binary.LittleEndian.Uint64(v[w*8:])))
			if d >= lim {
				d = -1
				break
			}
		}
		if d < 0 {
			continue
		}
		if tail := words * 8; tail < n {
			t, ok := distanceUnderScalar(c[tail:], v[tail:], lim-d)
			if !ok {
				continue
			}
			d += t
		}
		return i
	}
	return -1
}
