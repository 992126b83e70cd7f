package flow

import (
	"math/rand/v2"

	"flowzip/internal/pkt"
)

// flowTab is the open-addressing hash table behind Table.active together with
// the flow storage its slots index: canonical 5-tuple keys to open flows,
// linear probing over a power-of-two slot array, backward-shift deletion
// instead of tombstones. Every packet probes it, every opened flow inserts
// and every FIN/RST deletes, so the slot is as small as a slot can be — one
// pointer-free word:
//
//	bits 32-63  tag: the low 32 bits of probeHash(key)
//	bits 0-31   flow index + 1; the zero word is the empty slot
//
// A probe compares the tag in the slot and loads the flow for the full key
// comparison only when it matches — on a hit that is the flow the caller is
// about to touch anyway, and a miss walks eight slots a cache line without
// leaving the array. The tag also carries the home slot (tag & mask, since
// the array never exceeds 2^32 slots), so deletion shifts and the doubling
// rehash read nothing but the slots. The array holds no pointers: the
// collector never scans it and moving a slot trips no write barrier.
//
// Flows live in flowSlabLen-flow slabs listed in a directory; flow i is
// slabs[i>>flowSlabShift][i&(flowSlabLen-1)]. Slabs are appended and never
// moved or dropped, so a *Flow stays valid for as long as the table does.
//
// Each table draws a random seed that its probe hash mixes in, so keys
// chosen to share a home slot in one table (a complexity attack: n such
// keys cost n²/2 probe steps) land apart in every other. The slot order is
// never output — the flush walks the open list — so the seed moves no
// archive byte.
type flowTab struct {
	slots  []uint64
	mask   uint64 // len(slots)-1; len is a power of two
	n      int
	seed   uint64
	slabs  []*[flowSlabLen]Flow
	carved uint32 // flows handed out of slabs so far; the next one's index
}

const (
	// flowTabMinSlots is the initial table size: the table starts big enough
	// for the thousands of concurrent conversations a real trace holds,
	// skipping the first doubling rehashes.
	flowTabMinSlots = 4096

	flowSlabShift = 8
	flowSlabLen   = 1 << flowSlabShift

	// maxFlows is the most flows one table can carve: at 7/8 load they fill
	// exactly 2^32 slots, the largest array whose home slots a 32-bit tag
	// recovers (and their indices + 1 fit the slot's low half with room to
	// spare). That is 270 GB of Flow structs.
	maxFlows = 7 << 29
)

// probeHash mixes a canonical key and the table's seed into a probe
// position.
func (t *flowTab) probeHash(k pkt.FlowKey) uint64 { return seededHash(k, t.seed) }

// seededHash mixes a canonical key and a seed into a 64-bit word: the flow
// table's probe hash and the shard split's. This is deliberately not
// pkt.FlowKey.Hash: that hash feeds the flush tie-break ordering, so it is
// part of the output format and must not change, and it is unseeded — while
// this one is free to be a cheap two-multiply finalizer (splitmix64) instead
// of thirteen rounds of byte-at-a-time FNV. The address word is finalized
// with the seed before the port word joins it: XORed together first, keys
// whose two words differ in the same bits would hash alike under every seed.
func seededHash(k pkt.FlowKey, seed uint64) uint64 {
	x := splitmix64((uint64(k.LoIP)<<32 | uint64(k.HiIP)) ^ seed)
	return splitmix64(x ^ (uint64(k.LoPort)<<24 | uint64(k.HiPort)<<8 | uint64(k.Proto)))
}

// splitmix64 is the splitmix64 finalizer, a bijection on 64-bit words.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func newFlowTab() flowTab {
	return flowTab{slots: make([]uint64, flowTabMinSlots), mask: flowTabMinSlots - 1, seed: rand.Uint64()}
}

// flow returns the flow with index i.
func (t *flowTab) flow(i uint32) *Flow {
	return &t.slabs[i>>flowSlabShift][i&(flowSlabLen-1)]
}

// carve returns a flow no one has used yet, opening a new slab when the last
// one is spent — one allocation per slab, not one per flow.
func (t *flowTab) carve() *Flow {
	if t.carved == uint32(len(t.slabs))<<flowSlabShift {
		if t.carved == maxFlows {
			panic("flow: table holds more flows than its slots can index")
		}
		t.slabs = append(t.slabs, new([flowSlabLen]Flow))
	}
	fl := t.flow(t.carved)
	fl.idx = t.carved
	t.carved++
	return fl
}

// get returns the open flow stored under key, or nil. h must be
// t.probeHash(key).
func (t *flowTab) get(h uint64, key pkt.FlowKey) *Flow {
	tag := uint32(h)
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			return nil
		}
		if uint32(s>>32) == tag {
			if fl := t.flow(uint32(s) - 1); fl.Key == key {
				return fl
			}
		}
	}
}

// put inserts fl, whose key must not be present. h must be
// t.probeHash(fl.Key).
func (t *flowTab) put(h uint64, fl *Flow) {
	// Grow at 7/8 load: linear probe runs stay short and the array stays a
	// small constant factor over the live flow count.
	if uint64(t.n+1)*8 > (t.mask+1)*7 {
		t.grow()
	}
	i := h & t.mask
	for t.slots[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.slots[i] = h<<32 | uint64(fl.idx+1)
	t.n++
}

// del removes fl's entry, compacting the probe window behind it
// (backward-shift deletion): every entry displaced past the hole that could
// legally live closer to its home slot moves back, so lookups never need
// tombstones. h must be t.probeHash(fl.Key); the entry is found by its flow
// index, with no key comparison, and deleting a flow that is not in the table
// is a no-op.
func (t *flowTab) del(h uint64, fl *Flow) {
	mask := t.mask
	want := h<<32 | uint64(fl.idx+1)
	i := h & mask
	for t.slots[i] != want {
		if t.slots[i] == 0 {
			return
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		// Find the next entry allowed to fill the hole at i: one whose home
		// slot is not inside the cyclic window (i, j] — moving it to i keeps
		// it reachable from its home by the same linear probe.
		for {
			j = (j + 1) & mask
			if t.slots[j] == 0 {
				t.slots[i] = 0
				t.n--
				return
			}
			if (j-t.slots[j]>>32)&mask >= (j-i)&mask {
				break
			}
		}
		t.slots[i] = t.slots[j]
		i = j
	}
}

// grow doubles the table and reinserts every live entry.
func (t *flowTab) grow() {
	old := t.slots
	slots := (t.mask + 1) * 2
	t.slots = make([]uint64, slots)
	t.mask = slots - 1
	for _, s := range old {
		if s == 0 {
			continue
		}
		j := s >> 32 & t.mask
		for t.slots[j] != 0 {
			j = (j + 1) & t.mask
		}
		t.slots[j] = s
	}
}

// drain empties the table in O(slots) without per-entry deletion shifts —
// the end-of-trace flush removes everything at once. The slabs stay.
func (t *flowTab) drain() {
	clear(t.slots)
	t.n = 0
}
