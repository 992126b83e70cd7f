package flow

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"
	"time"

	"flowzip/internal/pkt"
)

// PacketInfo is what a Flow retains of one packet, packed into one word: the
// three characterization classes, the direction, and the time since the
// flow's previous packet. That is everything the compressor reads off a
// packet when its flow closes (f = w1·flag + w2·dep + w3·size and the
// inter-packet time), and every open flow holds one word per packet, so at
// peak the table carries millions of them: the word is most of the flow
// table's memory and copy traffic.
//
//	bits 0-1   flag class - 1   (FlagClassSYN .. FlagClassTeardown)
//	bit  2     dep class - 1    (DepDependent, DepNotDependent)
//	bits 3-4   size class - 1   (SizeClassEmpty .. SizeClassLarge)
//	bit  5     FromLo           direction relative to the canonical flow key
//	bits 6-63  gap              signed ns since the flow's previous packet
//
// The gap, not the timestamp: consumers only ever subtract neighbours, the
// first timestamp lives once on the Flow, and a gap leaves six bits of the
// word for the classes. It is signed because collect-mode input may be
// unsorted, and it is exact within ±2^57 ns (about 4.5 years). A packet whose
// gap does not fit is never truncated: Table.Add closes the open flow there
// and the packet starts a new one (see Add). The first packet's gap is zero.
type PacketInfo uint64

const (
	infoDepShift  = 2
	infoSizeShift = 3
	infoFromLo    = 1 << 5
	infoGapShift  = 6
)

// packInfo builds the word. The classes must be valid class values and the
// gap must fit (gapBetween says whether it does).
func packInfo(gap time.Duration, fromLo bool, flagClass, depClass, sizeClass int) PacketInfo {
	w := uint64(gap)<<infoGapShift | uint64(flagClass-1) | uint64(depClass-1)<<infoDepShift | uint64(sizeClass-1)<<infoSizeShift
	if fromLo {
		w |= infoFromLo
	}
	return PacketInfo(w)
}

// gapBetween returns now-prev and whether the gap field holds it exactly:
// the subtraction must not wrap and the result must survive the round trip
// through 58 bits.
func gapBetween(prev, now time.Duration) (time.Duration, bool) {
	gap := now - prev
	wrapped := (now^prev)&(now^gap) < 0
	return gap, !wrapped && gap<<infoGapShift>>infoGapShift == gap
}

// FlagClass returns the packet's P1 value.
func (p PacketInfo) FlagClass() int { return int(p&3) + 1 }

// depClass returns the packet's P2 value.
func (p PacketInfo) depClass() int { return int(p>>infoDepShift&1) + 1 }

// SizeClass returns the packet's P3 value.
func (p PacketInfo) SizeClass() int { return int(p>>infoSizeShift&3) + 1 }

// FromLo reports the packet's direction relative to the canonical flow key.
func (p PacketInfo) FromLo() bool { return p&infoFromLo != 0 }

// gap returns the time since the flow's previous packet (zero for the first).
func (p PacketInfo) gap() time.Duration { return time.Duration(int64(p) >> infoGapShift) }

// Flow is one assembled bidirectional TCP conversation. The struct is 72
// bytes and a flowSlabLen slab 18 432, which the allocator serves, with its
// 8-byte header, from the 19 072-byte size class; a field that takes the
// struct past 72 moves every slab up to the 21 760-byte class at least
// (TestRecordSizes). That is why nothing derivable or merely statistical is
// stored on it: the endpoints are a function of Key and the first packet's
// direction, Key.Hash() is only needed for flush ties and once per flow by
// the sharded front end, the probe hash is two multiplies at finalize, and a
// flow's byte count is MeasureLengths's to sum from the packets.
type Flow struct {
	Key     pkt.FlowKey
	Packets []PacketInfo

	// first and last are the timestamps of the first and the latest packet,
	// which the packet words do not carry.
	first, last time.Duration

	// idx is the flow's index in its table's slab directory: what the table's
	// slots and lists hold in place of a pointer. Set once when the flow is
	// carved, kept across Recycle.
	idx uint32

	// prev and next link the flow into one of its table's two lists, as flow
	// index + 1 with 0 ending the list: the open list, in first-timestamp
	// order, from open to finalize, and the free list (next only) from Recycle
	// until the flow is handed out again.
	prev, next uint32

	// Closed marks flows finalized by FIN/RST rather than table flush.
	Closed bool

	finLo, finHi bool // FIN seen from the Lo / Hi endpoint

	// lastFromLo mirrors Packets[len-1].FromLo() so the per-packet dependence
	// check never reloads the tail of the packet array.
	lastFromLo bool
}

// Len returns the packet count n.
func (f *Flow) Len() int { return len(f.Packets) }

// FirstTimestamp returns the timestamp of the first packet.
func (f *Flow) FirstTimestamp() time.Duration { return f.first }

// ServerIP returns the destination address of the first packet: its sender
// is the inferred client (for Web traffic it sends the SYN), its destination
// the server. An empty flow has a zero key, so either side is address zero.
func (f *Flow) ServerIP() pkt.IPv4 {
	if len(f.Packets) == 0 || f.Packets[0].FromLo() {
		return f.Key.HiIP
	}
	return f.Key.LoIP
}

// Vector computes F_f under the given weights.
func (f *Flow) Vector(w Weights) Vector {
	return f.AppendVector(nil, w)
}

// AppendVector computes F_f under the given weights into dst's backing array,
// growing it only when the capacity runs out, and returns the result. The
// compressor's finalize hot path passes a per-compressor scratch slice here
// so characterizing a flow allocates nothing in steady state (the template
// store copies any vector it retains, so reusing the backing is safe).
func (f *Flow) AppendVector(dst Vector, w Weights) Vector {
	for _, p := range f.Packets {
		dst = append(dst, uint8(w.F(p.FlagClass(), p.depClass(), p.SizeClass())))
	}
	return dst
}

// InterPacketTimes returns the n-1 gaps between consecutive packets.
func (f *Flow) InterPacketTimes() []time.Duration {
	if len(f.Packets) < 2 {
		return nil
	}
	out := make([]time.Duration, len(f.Packets)-1)
	for i, p := range f.Packets[1:] {
		out[i] = p.gap()
	}
	return out
}

// EstimateRTT returns the flow's round-trip-time estimate: the median gap
// preceding dependent packets (a dependent packet waits one RTT by the
// paper's model, e.g. SYN→SYN+ACK). Zero when the flow has no dependent
// packets.
func (f *Flow) EstimateRTT() time.Duration {
	// Short flows (the only callers on the hot path) have at most ShortMax-1
	// gaps, so a fixed stack buffer keeps the estimate allocation-free;
	// longer flows spill to the heap through the ordinary append growth.
	var buf [64]time.Duration
	gaps := buf[:0]
	for i := 1; i < len(f.Packets); i++ {
		if p := f.Packets[i]; p.depClass() == DepDependent {
			gaps = append(gaps, p.gap())
		}
	}
	if len(gaps) == 0 {
		return 0
	}
	// Tiny inputs (at most ShortMax-1 gaps): a hand-rolled insertion sort
	// skips the generic sort dispatch that showed up in the flow profile.
	for i := 1; i < len(gaps); i++ {
		g := gaps[i]
		j := i - 1
		for j >= 0 && gaps[j] > g {
			gaps[j+1] = gaps[j]
			j--
		}
		gaps[j+1] = g
	}
	return gaps[len(gaps)/2]
}

// Table assembles packets into flows, mirroring the paper's construction: a
// list of per-flow nodes keyed by the 5-tuple hash, each holding the list of
// its packets; a FIN or RST finalizes the flow.
type Table struct {
	active    flowTab
	completed []*Flow
	onDone    func(*Flow)

	// head and tail end the open list (flow index + 1, 0 when it is empty):
	// the paper's list of flow nodes, every open flow in order of its first
	// timestamp. Packets arrive timestamp sorted, so a new flow belongs at the
	// tail; Flush is a walk from the head.
	head, tail uint32

	// last short-circuits the table probe for packet bursts within one
	// conversation — on real traffic consecutive packets very often belong
	// to the same flow, and the canonical-key comparison is far cheaper
	// than a probe. A pointer (not a slot index): deletion shifts relocate
	// slots, which would invalidate an index cache mid-burst, and the lost
	// hits cost more than the pointer write's GC barrier.
	last *Flow

	// free heads the list of flows handed back through Recycle, linked through
	// Flow.next: their Flow structs and PacketInfo backings are reused, as they
	// are, for the next flows the table opens, which removes the per-flow
	// allocations from the compressor's steady state. When the free list is
	// empty, fresh flows are carved from the slabs behind active — one
	// allocation per slab, not one per flow — with a class-0 backing from the
	// packet arena below.
	free uint32

	// The packet arena. Every Flow.Packets backing the table hands out has
	// one of the power-of-two capacities pktClassMin<<k (its class k). A
	// flow that fills its backing moves to class k+1 and leaves the old
	// array on spare[k], where the next flow needing that class finds it, so
	// growing flows feed each other instead of the garbage collector. A
	// class with no spare is carved from pktSlab while it is small and
	// allocated on its own beyond pktSlabMaxCap; Recycle returns those large
	// arrays to their spare list rather than parking them under the next short
	// flow. A backing has exactly one owner at any time: a flow (active,
	// emitted or on the free list) or a spare list.
	spare   [pktClasses][][]PacketInfo
	pktSlab []PacketInfo
}

// Arena sizes. Packet classes start at one packet, 8 bytes (a one-packet SYN
// probe is the commonest flow of a scan, and most flows in the paper's traces
// are a handful of packets); classes up to pktSlabMaxCap packets are carved
// from pktSlab, so a slab's unusable tail is under 2 % of it.
const (
	pktSlabLen    = 4096
	pktClassMin   = 1
	pktSlabMaxCap = 64
	pktClasses    = 32
)

// newFlow returns a zeroed flow ready for use, from the free list when
// Recycle has stocked it, otherwise from the slabs and the arena.
func (t *Table) newFlow() *Flow {
	if t.free != 0 {
		fl := t.active.flow(t.free - 1)
		t.free, fl.next = fl.next, 0
		return fl
	}
	fl := t.active.carve()
	fl.Packets = t.backing(0)
	return fl
}

// backing returns an empty class-k packet array that nothing else references.
func (t *Table) backing(k int) []PacketInfo {
	if s := t.spare[k]; len(s) > 0 {
		b := s[len(s)-1]
		t.spare[k] = s[:len(s)-1]
		return b
	}
	c := pktClassMin << k
	if c > pktSlabMaxCap {
		return make([]PacketInfo, 0, c)
	}
	if len(t.pktSlab) < c {
		t.pktSlab = make([]PacketInfo, pktSlabLen)
	}
	b := t.pktSlab[0:0:c]
	t.pktSlab = t.pktSlab[c:]
	return b
}

// pktClass returns the class of a backing of capacity c.
func pktClass(c int) int { return bits.Len(uint(c/pktClassMin)) - 1 }

// grow moves fl, whose backing is full, to the next class and hands the old
// backing to its class's spare list.
func (t *Table) grow(fl *Flow) {
	old := fl.Packets
	k := pktClass(cap(old))
	fl.Packets = append(t.backing(k+1), old...)
	t.spare[k] = append(t.spare[k], old[:0])
}

// NewTable returns an empty table. If onDone is non-nil it is invoked for
// every finalized flow instead of accumulating them in memory — the
// streaming path the compressor uses. Pass nil to collect flows for Flows().
func NewTable(onDone func(*Flow)) *Table {
	return &Table{active: newFlowTab(), onDone: onDone}
}

// tablePool recirculates drained Tables between compressor runs: the slot
// array, flow slabs, free list and spare lists of a released table are the
// dominant per-run allocations of the whole pipeline, and every one of them
// is reusable as-is.
var tablePool sync.Pool

// AcquireTable returns a released table when one is pooled, else a fresh one.
// Functionally identical to NewTable — a recycled table starts empty — but
// its slabs, free list and spare lists arrive warm.
func AcquireTable(onDone func(*Flow)) *Table {
	if v := tablePool.Get(); v != nil {
		t := v.(*Table)
		t.onDone = onDone
		return t
	}
	return NewTable(onDone)
}

// Release drains the table and hands its storage to the pool. Only a caller
// that retains nothing reachable from the table may release it: every flow it
// emitted must have been handed back through Recycle (the streaming
// compressors do exactly that), since the pooled free list and slabs will
// back the flows of an unrelated future table. The spare lists need no such
// care — a backing reaches one only after its flow has copied out of it or
// been recycled. Flows still open (a run abandoned mid-stream) are recycled
// here, off the open list, unemitted: the slab directory keeps every flow it
// ever carved, so one left off the free list would be storage no later run
// could reach. Collect-mode users (Flows() consumers) must not call it.
func (t *Table) Release() {
	for at := t.head; at != 0; {
		fl := t.active.flow(at - 1)
		at = fl.next
		t.Recycle(fl)
	}
	t.head, t.tail = 0, 0
	t.active.drain()
	t.last = nil
	t.completed = nil
	t.onDone = nil
	tablePool.Put(t)
}

// Recycle hands a finalized flow's storage back to the table for reuse. Only
// an onDone consumer may call it, for a flow it received and has finished
// with: the flow, its Packets backing and everything reachable from it must
// not be touched afterwards. Consumers that retain flows (Assemble, the
// diversity studies) simply never call it.
//
// The flow keeps a slab-sized backing for its next life. A larger one goes to
// its class's spare list instead, where the flows still growing find it: left
// on the flow it would sit under whichever flow opens next — most often a
// short one — while they allocate fresh arrays of the very class that just
// went idle.
func (t *Table) Recycle(f *Flow) {
	b := f.Packets[:0]
	if cap(b) > pktSlabMaxCap {
		k := pktClass(cap(b))
		t.spare[k] = append(t.spare[k], b)
		b = t.backing(0)
	}
	*f = Flow{Packets: b, idx: f.idx, next: t.free}
	t.free = f.idx + 1
}

// open starts key's flow with p as its first packet. h must be
// t.active.probeHash(key).
func (t *Table) open(h uint64, key pkt.FlowKey, p *pkt.Packet) *Flow {
	fl := t.newFlow()
	fl.Key = key
	fl.first = p.Timestamp
	fl.last = p.Timestamp
	t.active.put(h, fl)
	// The flow goes on the open list behind the last one that started no
	// later: the tail when packets arrive sorted, a walk back from it when
	// they do not (collect mode takes any order and Flush still has its).
	at := t.tail
	for at != 0 && t.active.flow(at-1).first > fl.first {
		at = t.active.flow(at - 1).prev
	}
	fl.prev, fl.next = at, t.head
	if at != 0 {
		before := t.active.flow(at - 1)
		fl.next, before.next = before.next, fl.idx+1
	} else {
		t.head = fl.idx + 1
	}
	if fl.next != 0 {
		t.active.flow(fl.next - 1).prev = fl.idx + 1
	} else {
		t.tail = fl.idx + 1
	}
	return fl
}

// Add routes one packet into its flow. Packets must arrive in timestamp
// order for dependence classification to be meaningful.
//
// A packet further from its flow's previous one than the gap field holds
// (±2^57 ns; only a crafted or corrupt capture gets there) is a flow
// boundary: the open flow is finalized the way Flush would finalize it,
// not Closed, and the packet opens a new flow under the same key.
func (t *Table) Add(p *pkt.Packet) {
	// Canonicalize once: the key and the packet's direction relative to it
	// share the same comparison, and recomputing them per use (Key, FromLo)
	// dominated the assembly profile.
	key, fromLo := p.KeyDir()
	fl := t.last
	if fl == nil || fl.Key != key {
		h := t.active.probeHash(key)
		fl = t.active.get(h, key)
		if fl == nil {
			fl = t.open(h, key, p)
		}
		t.last = fl
	}
	gap, fits := gapBetween(fl.last, p.Timestamp)
	if !fits {
		t.finalize(fl)
		fl = t.open(t.active.probeHash(key), key, p)
		t.last = fl
		gap = 0
	}
	fl.last = p.Timestamp
	dep := DepNotDependent
	if len(fl.Packets) > 0 && fl.lastFromLo != fromLo {
		// Previous packet of the conversation came from the opposite
		// endpoint: this packet waited on it (ack dependence).
		dep = DepDependent
	}
	fl.lastFromLo = fromLo
	n := len(fl.Packets)
	if n == cap(fl.Packets) {
		t.grow(fl)
	}
	fl.Packets = fl.Packets[:n+1]
	fl.Packets[n] = packInfo(gap, fromLo, FlagClass(p), dep, SizeClass(int(p.PayloadLen)))
	if p.Flags.Has(pkt.FlagFIN) {
		if fromLo {
			fl.finLo = true
		} else {
			fl.finHi = true
		}
	}
	// An RST tears the flow down immediately (the paper's trigger); a FIN
	// closes it once both directions have FINed, so the peer's answering FIN
	// does not spawn a spurious one-packet flow.
	if p.Flags.Has(pkt.FlagRST) || (fl.finLo && fl.finHi) {
		fl.Closed = true
		t.finalize(fl)
	}
}

func (t *Table) finalize(fl *Flow) {
	t.active.del(t.active.probeHash(fl.Key), fl)
	if t.last == fl {
		t.last = nil
	}
	if fl.prev != 0 {
		t.active.flow(fl.prev - 1).next = fl.next
	} else {
		t.head = fl.next
	}
	if fl.next != 0 {
		t.active.flow(fl.next - 1).prev = fl.prev
	} else {
		t.tail = fl.prev
	}
	fl.prev, fl.next = 0, 0
	t.emit(fl)
}

func (t *Table) emit(fl *Flow) {
	if t.onDone != nil {
		t.onDone(fl)
		return
	}
	t.completed = append(t.completed, fl)
}

// Flush finalizes every still-active flow (end of trace) in the deterministic
// flush order, by (first packet timestamp, 5-tuple hash), which is part of
// the output format. That is the open list's own order up to the flows that
// share a first timestamp (rare, and few at a time), so the flush is one walk
// of the list that sorts nothing but those runs, by a hash computed where the
// tie asks for it, and allocates nothing for the rest. ActiveCount, read
// before the call, is the number of flows it will emit, so a consumer can
// reserve for them once.
func (t *Table) Flush() {
	at := t.head
	t.head, t.tail = 0, 0
	if t.onDone == nil {
		// The largest push the list sees (traces leave most flows open).
		t.completed = slices.Grow(t.completed, t.active.n)
	}
	// The table is emptied wholesale — no reason to pay a per-flow
	// deletion shift for every resident entry.
	t.active.drain()
	t.last = nil
	var run []*Flow // the flows sharing one first timestamp: nearly always one
	for at != 0 {
		// A flow's links are read before it is emitted: the consumer's Recycle
		// puts it on the free list through the same field.
		first := t.active.flow(at - 1).first
		run = run[:0]
		for at != 0 && t.active.flow(at-1).first == first {
			fl := t.active.flow(at - 1)
			at = fl.next
			fl.prev, fl.next = 0, 0
			run = append(run, fl)
		}
		if len(run) > 1 {
			slices.SortFunc(run, func(a, b *Flow) int { return cmp.Compare(a.Key.Hash(), b.Key.Hash()) })
		}
		for _, fl := range run {
			t.emit(fl)
		}
	}
}

// ActiveCount returns the number of open flows.
func (t *Table) ActiveCount() int { return t.active.n }

// Flows returns the finalized flows (only meaningful when onDone was nil).
func (t *Table) Flows() []*Flow { return t.completed }

// Assemble runs a whole packet slice through a fresh table and returns the
// flows ordered by first-packet timestamp.
func Assemble(packets []pkt.Packet) []*Flow {
	t := NewTable(nil)
	for i := range packets {
		t.Add(&packets[i])
	}
	t.Flush()
	flows := t.Flows()
	slices.SortStableFunc(flows, func(a, b *Flow) int {
		return cmp.Compare(a.FirstTimestamp(), b.FirstTimestamp())
	})
	return flows
}
