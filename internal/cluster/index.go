package cluster

import (
	"bytes"
	"encoding/binary"

	"flowzip/internal/flow"
)

// This file holds the two building blocks of the store's pruned,
// allocation-free match path:
//
//   - vecIndex, an exact-vector hash index (hash-of-bytes two-level map with
//     full-vector verification) that never builds string keys, so probing it
//     allocates nothing. Store's memo uses it.
//   - signature/sigDist, a packed coarse summary of a vector whose distance
//     lower-bounds the L1 metric, so a match candidate can be rejected in
//     O(1) before its elements are ever touched.

// hashVec mixes the vector bytes a word at a time with the FNV-1a constants
// (whole little-endian words folded per step rather than single bytes — the
// hash only keys in-memory indexes, so the exact byte-at-a-time FNV sequence
// buys nothing over an 8x cheaper word variant). Vector lengths are not
// mixed in separately: two vectors of different length virtually never
// collide, and every probe verifies the full vector anyway.
func hashVec(v flow.Vector) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	i := 0
	for ; i+8 <= len(v); i += 8 {
		h = (h ^ binary.LittleEndian.Uint64(v[i:])) * prime
	}
	for ; i < len(v); i++ {
		h = (h ^ uint64(v[i])) * prime
	}
	return h
}

// vecEntry is one interned vector and the id registered for it, plus the
// cached vector hash so rehashing never re-reads the vectors.
type vecEntry struct {
	vec  flow.Vector
	hash uint64
	id   int32
}

// vecIndex maps exact vectors to int32 ids. Lookups hash the vector in place
// and verify candidates byte-for-byte, so they are allocation-free — unlike a
// map[string]T store whose writes must materialize string keys. The index is
// a flat open-addressed table rather than a runtime map: the memo probe runs
// once per short flow, and linear probing over power-of-two slots keyed by
// the cached hash is both cheaper per probe and free of map-bucket overhead.
// The zero value is a valid empty read-only index; call init (via
// newVecIndex) before writing.
type vecIndex struct {
	t *vecTab
}

type vecTab struct {
	slots []vecEntry // vec == nil marks an empty slot
	mask  uint64
	n     int
}

// newVecIndex returns a writable index sized for about hint vectors.
func newVecIndex(hint int) vecIndex {
	size := uint64(64)
	for size*7 < uint64(hint)*8 {
		size *= 2
	}
	return vecIndex{t: &vecTab{slots: make([]vecEntry, size), mask: size - 1}}
}

// get resolves v to its registered id. Probing a zero-value index is safe
// and always misses.
func (x vecIndex) get(v flow.Vector) (int32, bool) {
	if x.t == nil {
		return 0, false
	}
	h := hashVec(v)
	for i := h & x.t.mask; ; i = (i + 1) & x.t.mask {
		e := &x.t.slots[i]
		if e.vec == nil {
			return 0, false
		}
		if e.hash == h && bytes.Equal(e.vec, v) {
			return e.id, true
		}
	}
}

// put registers id for v, overwriting any previous registration. The caller
// must own v: the index retains the slice, so hot paths pass either a fresh
// copy or an already-interned vector (e.g. a template's stored copy).
func (x vecIndex) put(v flow.Vector, id int32) {
	t := x.t
	if uint64(t.n+1)*8 > (t.mask+1)*7 {
		t.grow()
	}
	h := hashVec(v)
	i := h & t.mask
	for t.slots[i].vec != nil {
		if t.slots[i].hash == h && bytes.Equal(t.slots[i].vec, v) {
			t.slots[i].id = id
			return
		}
		i = (i + 1) & t.mask
	}
	t.slots[i] = vecEntry{vec: v, hash: h, id: id}
	t.n++
}

// grow doubles the slot array and reinserts every entry by its cached hash.
func (t *vecTab) grow() {
	old := t.slots
	size := (t.mask + 1) * 2
	t.slots = make([]vecEntry, size)
	t.mask = size - 1
	for _, e := range old {
		if e.vec == nil {
			continue
		}
		j := e.hash & t.mask
		for t.slots[j].vec != nil {
			j = (j + 1) & t.mask
		}
		t.slots[j] = e
	}
}

// enabled reports whether the index is writable (initialized).
func (x vecIndex) enabled() bool { return x.t != nil }

// pruneKeys computes both prune keys of the store's candidate walk — the
// element sum and the packed signature — in one pass over the vector (the
// signature's unclamped segment sums total exactly the element sum, so a
// second walk would be pure waste on the per-flow hot path). Each segment
// sum goes through the word kernel flow.Sum; segment boundaries are the
// same s*n/8 cuts as the scalar reference, so the keys are bit-identical
// to pruneKeysScalar (pinned by TestPruneKeysWordMatchesScalar). Keys are
// computed once at arena-append time — Store.create stores them in parallel
// slices — and every later walk reuses the stored values.
func pruneKeys(v flow.Vector) (sum int, sig uint64) {
	n := len(v)
	if n == 0 {
		return 0, 0
	}
	for s := 0; s < 8; s++ {
		seg := flow.Sum(v[s*n/8 : (s+1)*n/8])
		sum += seg
		if seg > 255 {
			seg = 255
		}
		sig |= uint64(seg) << (8 * s)
	}
	return sum, sig
}

// pruneKeysScalar is the byte-loop reference for pruneKeys, kept for the
// parity test pinning the word-kernel path to the original definition.
func pruneKeysScalar(v flow.Vector) (sum int, sig uint64) {
	n := len(v)
	if n == 0 {
		return 0, 0
	}
	for s := 0; s < 8; s++ {
		seg := 0
		for _, x := range v[s*n/8 : (s+1)*n/8] {
			seg += int(x)
		}
		sum += seg
		if seg > 255 {
			seg = 255
		}
		sig |= uint64(seg) << (8 * s)
	}
	return sum, sig
}

// signature packs a coarse shape summary of v into eight bytes: the vector
// is cut into eight contiguous segments and each byte holds that segment's
// element sum, clamped to 255. Clamping is 1-Lipschitz and a segment's
// summed |difference| never exceeds its L1 contribution, so
//
//	sigDist(signature(a), signature(b)) <= Distance(a, b)
//
// for any same-length a, b — a candidate whose signature distance already
// reaches the limit can be rejected without touching its elements.
func signature(v flow.Vector) uint64 {
	_, sig := pruneKeys(v)
	return sig
}

// sigDist is the L1 distance between two packed signatures — a lower bound
// on the vectors' distance (see signature).
func sigDist(a, b uint64) int {
	if a == b {
		return 0
	}
	d := 0
	for i := 0; i < 8; i++ {
		x, y := int(a&0xff), int(b&0xff)
		if x > y {
			d += x - y
		} else {
			d += y - x
		}
		a >>= 8
		b >>= 8
	}
	return d
}
