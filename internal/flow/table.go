package flow

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"
	"time"

	"flowzip/internal/pkt"
)

// PacketInfo is the per-packet information a Flow retains: enough to rebuild
// the characterization vector and the timing model, nothing more. The class
// fields are deliberately narrow — every active flow holds one PacketInfo
// per packet, so at peak the table carries millions of these, and packing
// them to 16 bytes (from the naive 40) is most of the flow table's memory
// and copy traffic.
type PacketInfo struct {
	Timestamp time.Duration
	Payload   int32 // TCP payload bytes
	FromLo    bool  // direction relative to the canonical flow key
	FlagClass uint8
	DepClass  uint8
	SizeClass uint8
}

// Flow is one assembled bidirectional TCP conversation.
type Flow struct {
	Key     pkt.FlowKey
	Hash    uint64
	Packets []PacketInfo

	// ClientIP/ServerIP are the inferred endpoints: the sender of the first
	// packet is the client (for Web traffic it sends the SYN).
	ClientIP pkt.IPv4
	ServerIP pkt.IPv4
	// ServerPort is the destination port of the first packet.
	ServerPort uint16

	// Closed marks flows finalized by FIN/RST rather than table flush.
	Closed bool

	finLo, finHi bool // FIN seen from the Lo / Hi endpoint

	// lastFromLo mirrors Packets[len-1].FromLo so the per-packet dependence
	// check never reloads the tail of the packet array.
	lastFromLo bool

	// probeH caches probeHash(Key) from insertion, sparing finalize the
	// recompute when it deletes the flow from the table.
	probeH uint64
}

// Len returns the packet count n.
func (f *Flow) Len() int { return len(f.Packets) }

// Bytes returns the sum of wire bytes (header + payload) of the flow.
func (f *Flow) Bytes() int64 {
	var b int64
	for i := range f.Packets {
		b += int64(pkt.HeaderBytes) + int64(f.Packets[i].Payload)
	}
	return b
}

// FirstTimestamp returns the timestamp of the first packet.
func (f *Flow) FirstTimestamp() time.Duration {
	if len(f.Packets) == 0 {
		return 0
	}
	return f.Packets[0].Timestamp
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
	for i := range f.Packets {
		p := &f.Packets[i]
		dst = append(dst, uint8(w.F(int(p.FlagClass), int(p.DepClass), int(p.SizeClass))))
	}
	return dst
}

// InterPacketTimes returns the n-1 gaps between consecutive packets.
func (f *Flow) InterPacketTimes() []time.Duration {
	if len(f.Packets) < 2 {
		return nil
	}
	out := make([]time.Duration, len(f.Packets)-1)
	for i := 1; i < len(f.Packets); i++ {
		out[i-1] = f.Packets[i].Timestamp - f.Packets[i-1].Timestamp
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
		if f.Packets[i].DepClass == DepDependent {
			gaps = append(gaps, f.Packets[i].Timestamp-f.Packets[i-1].Timestamp)
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

	// last short-circuits the table probe for packet bursts within one
	// conversation — on real traffic consecutive packets very often belong
	// to the same flow, and the canonical-key comparison is far cheaper
	// than a probe. A pointer (not a slot index): deletion shifts relocate
	// slots, which would invalidate an index cache mid-burst, and the lost
	// hits cost more than the pointer write's GC barrier.
	last *Flow

	// free holds flows handed back through Recycle: their Flow structs and
	// PacketInfo backings are reused, as they are, for the next flows the
	// table opens, which removes the per-flow allocations from the
	// compressor's steady state. When the free list is empty, fresh flows
	// come from flowSlab — one allocation per slab, not one per flow — with
	// a class-0 backing from the packet arena below.
	free     []*Flow
	flowSlab []Flow

	// The packet arena. Every Flow.Packets backing the table hands out has
	// one of the power-of-two capacities pktClassMin<<k (its class k). A
	// flow that fills its backing moves to class k+1 and leaves the old
	// array on spare[k], where the next flow needing that class finds it, so
	// growing flows feed each other instead of the garbage collector. A
	// class with no spare is carved from pktSlab while it is small and
	// allocated on its own beyond pktSlabMaxCap. A backing has exactly one
	// owner at any time: a flow (active, emitted or on the free list) or a
	// spare list.
	spare   [pktClasses][][]PacketInfo
	pktSlab []PacketInfo
}

// Slab and arena sizes. Flows are carved from flowSlab one struct at a time.
// Packet classes start at two packets (a one-packet SYN probe is the commonest
// flow of a scan, and most flows in the paper's traces are a handful of
// packets); classes up to pktSlabMaxCap packets are carved from pktSlab, so a
// slab's unusable tail is under 2 % of it.
const (
	flowSlabLen   = 256
	pktSlabLen    = 4096
	pktClassMin   = 2
	pktSlabMaxCap = 64
	pktClasses    = 32
)

// newFlow returns a zeroed flow ready for use, from the free list when
// Recycle has stocked it, otherwise from the slab and the arena.
func (t *Table) newFlow() *Flow {
	if n := len(t.free); n > 0 {
		fl := t.free[n-1]
		t.free = t.free[:n-1]
		return fl
	}
	if len(t.flowSlab) == 0 {
		t.flowSlab = make([]Flow, flowSlabLen)
	}
	fl := &t.flowSlab[0]
	t.flowSlab = t.flowSlab[1:]
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

// grow moves fl, whose backing is full, to the next class and hands the old
// backing to its class's spare list.
func (t *Table) grow(fl *Flow) {
	old := fl.Packets
	k := bits.Len(uint(cap(old)/pktClassMin)) - 1
	fl.Packets = append(t.backing(k+1), old...)
	t.spare[k] = append(t.spare[k], old[:0])
}

// NewTable returns an empty table. If onDone is non-nil it is invoked for
// every finalized flow instead of accumulating them in memory — the
// streaming path the compressor uses. Pass nil to collect flows for Flows().
func NewTable(onDone func(*Flow)) *Table {
	// The free list is presized: Recycle pushes every finalized flow, so on
	// a streaming consumer it reaches the table's peak concurrency and
	// append-doubling a pointer slice there is pure churn.
	return &Table{active: newFlowTab(), onDone: onDone, free: make([]*Flow, 0, 1024)}
}

// tablePool recirculates drained Tables between compressor runs: the slot
// array, free list, spare lists and slabs of a released table are the dominant
// per-run allocations of the whole pipeline, and every one of them is
// reusable as-is.
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
// care — a backing reaches one only after its flow has copied out of it — and
// flows still open are dropped with their backings, which nothing pooled
// references. Collect-mode users (Flows() consumers) must not call it.
func (t *Table) Release() {
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
func (t *Table) Recycle(f *Flow) {
	*f = Flow{Packets: f.Packets[:0]}
	t.free = append(t.free, f)
}

// Add routes one packet into its flow. Packets must arrive in timestamp
// order for dependence classification to be meaningful.
func (t *Table) Add(p *pkt.Packet) {
	// Canonicalize once: the key and the packet's direction relative to it
	// share the same comparison, and recomputing them per use (Key, FromLo)
	// dominated the assembly profile.
	key, fromLo := p.KeyDir()
	fl := t.last
	if fl == nil || fl.Key != key {
		h := probeHash(key)
		fl, _ = t.active.get(h, key)
		if fl == nil {
			fl = t.newFlow()
			fl.Key = key
			fl.Hash = key.Hash()
			fl.probeH = h
			fl.ClientIP = p.SrcIP
			fl.ServerIP = p.DstIP
			fl.ServerPort = p.DstPort
			t.active.put(h, key, fl)
		}
		t.last = fl
	}
	dep := uint8(DepNotDependent)
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
	fl.Packets[n] = PacketInfo{
		Timestamp: p.Timestamp,
		FromLo:    fromLo,
		FlagClass: uint8(FlagClass(p)),
		DepClass:  dep,
		SizeClass: uint8(SizeClass(int(p.PayloadLen))),
		Payload:   int32(p.PayloadLen),
	}
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
		t.finalize(key, fl)
	}
}

func (t *Table) finalize(key pkt.FlowKey, fl *Flow) {
	t.active.del(fl.probeH, key)
	if t.last == fl {
		t.last = nil
	}
	t.emit(fl)
}

func (t *Table) emit(fl *Flow) {
	if t.onDone != nil {
		t.onDone(fl)
		return
	}
	t.completed = append(t.completed, fl)
}

// Flush finalizes every still-active flow (end of trace). ActiveCount, read
// before the call, is the number of flows it will emit, so a consumer can
// reserve for them once.
func (t *Table) Flush() {
	n := t.active.n
	flows := make([]*Flow, 0, n)
	for i := range t.active.slots {
		if fl := t.active.slots[i].fl; fl != nil {
			flows = append(flows, fl)
		}
	}
	// The table is emptied wholesale — no reason to pay a per-flow
	// deletion shift for every resident entry.
	t.active.drain()
	t.last = nil
	// Every emitted flow lands on exactly one of these lists: reserve it
	// once, not by doubling through the flush (traces leave most flows open,
	// making this the largest push either list sees).
	if t.onDone != nil {
		t.free = slices.Grow(t.free, n)
	} else {
		t.completed = slices.Grow(t.completed, n)
	}
	t.emitFlushOrder(flows)
}

// emitFlushOrder emits flows in the deterministic flush order, by (first
// packet timestamp, hash), which is part of the output format. For the
// big end-of-trace flush that is an LSD radix sort over (key, index) pairs
// hoisted off the flows — compact and pointer-free, so the counting passes
// move 16-byte rows, never chase a Flow pointer and never trip a GC write
// barrier — skipping byte positions that never vary, which for sub-minute
// traces leaves three or four counting passes. Equal-timestamp runs are then
// ordered by hash (runs are rare and tiny: same first-packet timestamp), and
// the flows are emitted straight off the sorted pairs. Small flushes take a
// comparison sort directly; either path yields exactly the same order.
func (t *Table) emitFlushOrder(flows []*Flow) {
	if len(flows) < 128 {
		slices.SortFunc(flows, func(a, b *Flow) int {
			if c := cmp.Compare(a.FirstTimestamp(), b.FirstTimestamp()); c != 0 {
				return c
			}
			return cmp.Compare(a.Hash, b.Hash)
		})
		for _, fl := range flows {
			t.emit(fl)
		}
		return
	}
	type tsIdx struct {
		key uint64 // ts with the sign bit flipped: int64 order as unsigned
		idx int32
	}
	pairs := make([]tsIdx, len(flows))
	for i, fl := range flows {
		pairs[i] = tsIdx{key: uint64(fl.FirstTimestamp()) ^ (1 << 63), idx: int32(i)}
	}
	buf := make([]tsIdx, len(pairs))
	src, dst := pairs, buf
	for shift := 0; shift < 64; shift += 8 {
		var cnt [257]int
		for i := range src {
			cnt[int(byte(src[i].key>>shift))+1]++
		}
		if cnt[int(byte(src[0].key>>shift))+1] == len(src) {
			continue // every element shares this byte; pass is the identity
		}
		for i := 1; i < len(cnt); i++ {
			cnt[i] += cnt[i-1]
		}
		for i := range src {
			b := src[i].key >> shift & 0xFF
			dst[cnt[b]] = src[i]
			cnt[b]++
		}
		src, dst = dst, src
	}
	// Order equal-timestamp runs by hash (stable: a run keeps insertion
	// order through the radix passes, so sorting it by hash alone gives the
	// (ts, hash) order).
	for i := 0; i < len(src); {
		j := i + 1
		for j < len(src) && src[j].key == src[i].key {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(src[i:j], func(a, b tsIdx) int {
				return cmp.Compare(flows[a.idx].Hash, flows[b.idx].Hash)
			})
		}
		i = j
	}
	for _, p := range src {
		t.emit(flows[p.idx])
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
