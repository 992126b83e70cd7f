package flow

import (
	"math/rand/v2"

	"flowzip/internal/pkt"
	"flowzip/internal/segtab"
)

// flowTab is the hash table behind Table.active together with the flow
// storage its slots index: canonical 5-tuple keys to open flows. Every packet
// probes it, every opened flow inserts and every FIN/RST deletes, so the slot
// is as small as a slot can be — one pointer-free word of a segtab.Table:
//
//	bits 32-63  tag: the low 32 bits of probeHash(key)
//	bits 0-31   flow index + 1; the zero word is the empty slot
//
// A probe compares the tag in the slot and loads the flow for the full key
// comparison only when it matches — on a hit that is the flow the caller is
// about to touch anyway, and a miss walks eight slots a cache line without
// leaving the segment. The tag's top bits pick the segment through the
// table's directory and its low 9 bits the home slot within it, so a split
// reads nothing but the slots.
//
// The words sit in 4 KiB segments of 512. One that an insert would take past
// 7/8 load splits in two by the next tag bit; no slot is ever copied into a
// larger array, so a table grown to n open flows has allocated the segments
// it holds them in and its directory of pointers, not the doubled arrays of
// a whole-table rehash, and the old and the new array are never live at once.
// A table starts at one segment, and drain clears its segments in place, so a
// pooled table fills the next run's flows into the segments of the last.
//
// Flows live in flowSlabLen-flow slabs listed in a directory; flow i is
// slabs[i>>flowSlabShift].flows[i&(1<<flowSlabShift-1)], so the index of a
// slab's last place, 255, names no flow and carve skips it. Slabs are
// appended and never moved or dropped, so a *Flow stays valid for as long as
// the table does. A slab holds the one pointer to the table its flows belong
// to, first, so the flows themselves hold none and the collector scans 8
// bytes of a slab.
//
// Each table draws a random seed that its probe hash mixes in, so keys
// chosen to share a home slot or a segment in one table (a complexity
// attack: n keys that share a home cost n²/2 probe steps, and keys that share
// every tag bit a split could use fill a segment no split divides) land apart
// in every other. The slot order is never output — the flush walks the open
// list — so the seed moves no archive byte.
type flowTab struct {
	tab    segtab.Table
	seed   uint64
	slabs  []*flowSlab
	carved uint32 // the next carved flow's index
}

// flowSlab is flowSlabLen flows and their table. 255 flows, not 256: with
// the pointer and the allocator's 8-byte header 256 would take the slab past
// the 14 336-byte size class (TestRecordSizes).
type flowSlab struct {
	t     *Table
	flows [flowSlabLen]Flow
}

const (
	flowSlabShift = 8
	flowSlabLen   = 1<<flowSlabShift - 1

	// maxFlows is the most flows one table can carve: the most words a
	// segtab.Table holds, 2^23 segments (the top 23 tag bits pick one, the
	// low 9 a slot in it) of at most 7/8 · 512 words, rounded down to whole
	// slabs, and their indices + 1, one skipped a slab, fit the slot's low
	// half with room to spare. That is 210 GB of Flow structs.
	maxFlows = 7 << 29 / flowSlabLen * flowSlabLen

	// maxBlocks is the most packet-arena blocks one table can carve: the
	// blocks a 32-bit word id names, 2^32 words (32 GiB of them). The table
	// panics before it opens one more, as carve does at maxFlows.
	maxBlocks = 1 << 32 / blockLen
)

// probeHash mixes a canonical key and the table's seed into a probe
// position.
func (t *flowTab) probeHash(k pkt.FlowKey) uint64 { return seededHash(&k, t.seed) }

// seededHash mixes a canonical key and a seed into a 64-bit word: the flow
// table's probe hash. This is deliberately not
// pkt.FlowKey.Hash: that hash feeds the flush tie-break ordering, so it is
// part of the output format and must not change, and it is unseeded — while
// this one is free to be a cheap two-multiply finalizer (splitmix64) instead
// of thirteen rounds of byte-at-a-time FNV. The address word is finalized
// with the seed before the port word joins it: XORed together first, keys
// whose two words differ in the same bits would hash alike under every seed.
//
// k is a pointer so that an inlined call reads the fields where they are:
// copying the five-field key whole loads it 16 bytes at once from the
// narrower stores that wrote it, which the CPU cannot forward.
func seededHash(k *pkt.FlowKey, seed uint64) uint64 {
	return splitmix64(splitmix64(uint64(k.LoIP)<<32|uint64(k.HiIP)^seed) ^ uint64(k.LoPort)<<24 ^ uint64(k.HiPort)<<8 ^ uint64(k.Proto))
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
	return flowTab{tab: segtab.New(), seed: rand.Uint64()}
}

// flow returns the flow with index i.
func (t *flowTab) flow(i uint32) *Flow {
	return &t.slabs[i>>flowSlabShift].flows[i&(1<<flowSlabShift-1)]
}

// carve returns a flow no one has used yet, opening a new slab, for the table
// owner, when the last one is spent — one allocation per slab, not one per
// flow.
func (t *flowTab) carve(owner *Table) *Flow {
	if t.carved == uint32(len(t.slabs))<<flowSlabShift {
		if uint32(len(t.slabs))*flowSlabLen == maxFlows {
			panic("flow: table holds more flows than its slots can index")
		}
		t.slabs = append(t.slabs, &flowSlab{t: owner})
	}
	fl := t.flow(t.carved)
	fl.idx = t.carved
	if t.carved++; t.carved&(1<<flowSlabShift-1) == flowSlabLen {
		t.carved++
	}
	return fl
}

// get returns key's probe hash and the open flow stored under key, or nil:
// each word under the key's tag names a flow, and the one with the key is it.
// The hash comes back for the insert that follows a miss.
func (t *flowTab) get(key pkt.FlowKey) (h uint64, fl *Flow) {
	h = seededHash(&key, t.seed) // t.probeHash(key), which is a call too many to inline here
	var v, skip uint32
	for {
		if v, skip = t.tab.Get(uint32(h), skip); v == 0 {
			return h, nil
		}
		if fl = t.flow(v - 1); fl.Key == key {
			return h, fl
		}
	}
}

// put inserts fl, whose key must not be present. h must be
// t.probeHash(fl.Key).
func (t *flowTab) put(h uint64, fl *Flow) { t.tab.Put(uint32(h), fl.idx+1) }

// del removes fl's entry; the entry is found by its flow index, with no key
// comparison, and deleting a flow that is not in the table is a no-op. h
// must be t.probeHash(fl.Key).
func (t *flowTab) del(h uint64, fl *Flow) { t.tab.Del(uint32(h), fl.idx+1) }

// drain empties the table without per-entry deletion shifts — the
// end-of-trace flush removes everything at once. The segments and the slabs
// stay.
func (t *flowTab) drain() { t.tab.Drain() }

// count returns the number of open flows.
func (t *flowTab) count() int { return t.tab.Len() }
