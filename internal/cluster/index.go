package cluster

import (
	"bytes"
	"encoding/binary"

	"flowzip/internal/flow"
)

// This file holds the store's exact-vector memo: an open-addressed hash
// index of 16-byte slots with full-vector verification that never builds
// string keys, so probing it allocates nothing. Store.EnableMemo turns it on.

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

// memoSlot is one memo entry: the key's cached hash (so rehashing never
// re-reads a key), the key, and the template id registered for it. key is 0
// in an empty slot and j+1 when it is the memo's copy j. The slot holds no
// pointer, so the collector never scans the slot array.
type memoSlot struct {
	hash uint64
	key  int32
	id   int32
}

// memo maps exact vectors to int32 template ids. Lookups hash the vector in
// place and verify candidates byte for byte, lengths included, so they are
// allocation-free — unlike a map[string]T whose writes must materialize
// string keys. The table is flat and open-addressed: the memo probe runs once
// per short flow, and linear probing over power-of-two slots keyed by the
// cached hash is both cheaper per probe and free of map-bucket overhead.
//
// Every key is a copy, in copies, one byte arena the memo owns, where copy j
// is copies[ends[j]:ends[j+1]] — no slice header and no allocation of its
// own.
//
// The zero value is a valid empty read-only memo; newMemo makes a writable
// one.
type memo struct {
	slots  []memoSlot // nil when the memo is off
	mask   uint64
	n      int
	copies []byte
	ends   []int // ends[0] = 0, then the end of each copy
}

// newMemo returns a writable, empty memo.
func newMemo() memo {
	const size = 64
	return memo{slots: make([]memoSlot, size), mask: size - 1, ends: []int{0}}
}

// enabled reports whether the memo is writable (made by newMemo).
func (m *memo) enabled() bool { return m.slots != nil }

// keyBytes returns the vector key names.
func (m *memo) keyBytes(key int32) flow.Vector {
	return flow.Vector(m.copies[m.ends[key-1]:m.ends[key]])
}

// get resolves v to its registered id. Probing a zero-value memo is safe and
// always misses.
func (m *memo) get(v flow.Vector) (int32, bool) {
	if m.slots == nil {
		return 0, false
	}
	h := hashVec(v)
	for i := h & m.mask; ; i = (i + 1) & m.mask {
		e := &m.slots[i]
		if e.key == 0 {
			return 0, false
		}
		if e.hash == h && bytes.Equal(m.keyBytes(e.key), v) {
			return e.id, true
		}
	}
}

// put registers id for a copy of v, which get has just missed, so the caller
// may reuse v's backing afterwards.
func (m *memo) put(v flow.Vector, id int32) {
	if uint64(m.n+1)*8 > (m.mask+1)*7 {
		m.grow()
	}
	h := hashVec(v)
	i := h & m.mask
	for m.slots[i].key != 0 {
		i = (i + 1) & m.mask
	}
	m.copies = append(grow(m.copies, len(v)), v...)
	m.ends = append(grow(m.ends, 1), len(m.copies))
	m.slots[i] = memoSlot{hash: h, key: int32(len(m.ends) - 1), id: id}
	m.n++
}

// grow doubles the slot array and reinserts every entry by its cached hash.
func (m *memo) grow() {
	old := m.slots
	size := (m.mask + 1) * 2
	m.slots = make([]memoSlot, size)
	m.mask = size - 1
	for _, e := range old {
		if e.key == 0 {
			continue
		}
		j := e.hash & m.mask
		for m.slots[j].key != 0 {
			j = (j + 1) & m.mask
		}
		m.slots[j] = e
	}
}
