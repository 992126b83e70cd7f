package flow

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"time"
	"unsafe"

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

// Flow is one assembled bidirectional TCP conversation. The struct is 56
// bytes and holds no pointer: a slab of flowSlabLen of them behind the one
// pointer to their table is 14 288 bytes, which the allocator serves, with
// its 8-byte header, from the 14 336-byte size class, and of which the
// collector scans 8 bytes (TestRecordSizes). A field that takes the struct
// past 56 moves every slab up to the 16 384-byte class at least, and a
// pointer on it makes the collector scan the whole slab. That is why nothing
// derivable or merely statistical is stored on it: the table is the slab's,
// the endpoints are a function of Key and the first packet's direction,
// Key.Hash() is only needed for flush ties, the probe hash is two multiplies
// at finalize, and a flow's byte
// count is MeasureLengths's to sum from the packets. It is also why the
// packet words are not a slice: a 32-bit word id and a class byte take 5 of
// the 24 bytes a slice header would. A Flow is used in place, through the
// pointer its table hands out: it finds its table from its own address, so a
// copy of one reads no packet.
type Flow struct {
	Key pkt.FlowKey

	// first and last are the timestamps of the first and the latest packet,
	// which the packet words do not carry.
	first, last time.Duration

	// idx is the flow's index in its table's slab directory: what the table's
	// slots and lists hold in place of a pointer, and how the flow finds its
	// slab, and through it its table (see table). Set once when the flow is
	// carved, kept across Recycle.
	idx uint32

	// prev and next link the flow into one of its table's two lists, as flow
	// index + 1 with 0 ending the list: the open list, in first-timestamp
	// order, from open to finalize, and the free list (next only) from Recycle
	// until the flow is handed out again.
	prev, next uint32

	// n is the packet count.
	n uint32

	// w is the word id (see Table) of the first of the 1<<class words the
	// flow writes to: its head while its words fit it, then the last page of
	// its ring. The pages of a flow past its head, the head first, form a
	// ring through their directory links, the last naming the first, so one
	// id reaches both ends.
	w uint32

	class uint8 // w's array holds 1<<class words

	// lastFromLo is the direction bit of the flow's latest word, kept here
	// so the per-packet dependence check never reloads that word.
	lastFromLo bool

	// Closed marks flows finalized by FIN/RST rather than table flush.
	Closed bool

	fins uint8 // finLo | finHi: the endpoints a FIN was seen from
}

const (
	finLo = 1 << iota // FIN seen from the Lo endpoint
	finHi             // FIN seen from the Hi endpoint
)

// maxFlowLen is the most packets a flow holds: the largest count n holds,
// 32 GiB of packet words.
const maxFlowLen = math.MaxUint32

// Len returns the packet count n.
func (f *Flow) Len() int { return int(f.n) }

// FirstTimestamp returns the timestamp of the first packet.
func (f *Flow) FirstTimestamp() time.Duration { return f.first }

// ServerIP returns the destination address of the first packet: its sender
// is the inferred client (for Web traffic it sends the SYN), its destination
// the server. An empty flow has a zero key, so either side is address zero.
func (f *Flow) ServerIP() pkt.IPv4 {
	if run, _ := f.firstRun(); len(run) == 0 || run[0].FromLo() {
		return f.Key.HiIP
	}
	return f.Key.LoIP
}

// table returns the table that carved f: the one pointer f's slab holds,
// found from f's own address and its index in the slab. Only a flow carved
// from a slab has one, so a flow that holds no packet never asks.
func (f *Flow) table() *Table {
	at := -int(f.idx&(1<<flowSlabShift-1))*int(unsafe.Sizeof(*f)) - int(unsafe.Offsetof(flowSlab{}.flows))
	return (*flowSlab)(unsafe.Add(unsafe.Pointer(f), at)).t
}

// A flow's words are read run by run in packet order, each run a plain
// slice: all of them while they fit the head, else each page of the ring from
// the first, the last cut at the count.
//
//	for run, id := f.firstRun(); len(run) > 0; run, id = f.nextRun(id) {
//
// firstRun returns the first run and the page it is on, 0 when it is the
// last run (a flow within its head has one).
func (f *Flow) firstRun() ([]PacketInfo, uint32) {
	if f.n == 0 {
		return nil, 0
	}
	t := f.table()
	if f.n <= pageLen {
		return t.words(f.w, f.n), 0
	}
	id := *t.link(pageOf(f.w))
	return t.words(firstWord(id), pageLen), id
}

// nextRun returns the run after the one on page id, and the page it is on or
// 0 if it is the last; nil after the last.
func (f *Flow) nextRun(id uint32) ([]PacketInfo, uint32) {
	if id == 0 {
		return nil, 0
	}
	return f.pageAfter(id)
}

// pageAfter is nextRun past its first check, kept out of line so that
// nextRun inlines and a flow within its head is read without a call.
//
//go:noinline
func (f *Flow) pageAfter(id uint32) ([]PacketInfo, uint32) {
	t := f.table()
	id = *t.link(id)
	run := t.words(firstWord(id), pageLen)
	if id == pageOf(f.w) {
		return run[:(f.n-1)%pageLen+1], 0
	}
	return run, id
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
	for run, id := f.firstRun(); len(run) > 0; run, id = f.nextRun(id) {
		for _, p := range run {
			dst = append(dst, uint8(w.F(p.FlagClass(), p.depClass(), p.SizeClass())))
		}
	}
	return dst
}

// AppendVectorGaps appends F_f under the given weights to dst, then the
// Len()-1 gaps between consecutive packets as a packed run — each the uvarint
// (binary.AppendUvarint) of uint64(gap in whole µs, rounded down), the unit
// the container codes, so a negative gap stays negative and takes ten bytes —
// and returns the result, growing dst only when it lacks room for four bytes a
// packet (a reused scratch soon has it). It reads the flow's words in one
// walk: a long flow's pages lie among every other flow's, so each read of
// them is a jump per page.
func (f *Flow) AppendVectorGaps(dst []byte, w Weights) []byte {
	first, n := len(dst), int(f.n)
	dst = slices.Grow(dst, 4*n)[:first+n]
	v := first // where the next f value goes
	for run, id := f.firstRun(); len(run) > 0; run, id = f.nextRun(id) {
		for _, p := range run {
			dst[v] = uint8(w.F(p.FlagClass(), p.depClass(), p.SizeClass()))
			if v > first {
				g := p.gap()
				us := g / time.Microsecond
				if g%time.Microsecond < 0 {
					us--
				}
				dst = binary.AppendUvarint(dst, uint64(us))
			}
			v++
		}
	}
	return dst
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
	skip := 1 // the first packet has no gap
	for run, id := f.firstRun(); len(run) > 0; run, id = f.nextRun(id) {
		for _, p := range run[skip:] {
			if p.depClass() == DepDependent {
				gaps = append(gaps, p.gap())
			}
		}
		skip = 0
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
	// than a probe. A pointer, not a flow index: flows never move from their
	// slabs, and the pointer spares each packet of a burst the slab lookup an
	// index costs.
	last *Flow

	// free heads the list of flows handed back through Recycle, linked through
	// Flow.next: their Flow structs and heads are reused, as they are, for the
	// next flows the table opens, which removes the per-flow allocations from
	// the compressor's steady state. When the free list is empty, fresh flows
	// are carved from the slabs behind active — one allocation per slab, not
	// one per flow — with a class-0 head from the packet arena below.
	free uint32

	// The packet arena. A flow's first words go to its head, which has one
	// of the power-of-two capacities 1<<k up to pageLen (its class k). A flow
	// that fills a head below pageLen moves to class k+1 and leaves the old
	// array on spare[k], where the next flow needing that class finds it, so
	// growing flows feed each other instead of the garbage collector. A
	// class-6 head is a page, and the words past it go to a new page each
	// time the last fills, so no word past the first 32 is ever copied.
	// Recycle leaves a flow its head for its next life, unless the flow went
	// past it: its ring then goes, whole, to the free page list, which
	// newPage serves first, and the flow takes a class-0 head. A head or a
	// page has exactly one owner at any time: a flow (active, emitted or on
	// the free list), a spare list or the free page list.
	//
	// Words are named by 32-bit word ids, not pointers: word x is
	// blocks[x/blockLen][x%blockLen], in blocks that hold no pointer, so the
	// collector scans none of them and neither a Flow nor a spare list holds
	// a pointer into them. Heads are carved up from the low end of the open
	// block, from lo, and pages down from its high end, from hi, so every page
	// is pageLen-aligned and named by arithmetic on its first word's id: page
	// p starts at word (p-1)*pageLen.
	spare  [headClasses - 1][]uint32
	blocks []*[blockLen]PacketInfo
	lo, hi uint32

	// dir is the page directory: link(p) is the id of the page after page p,
	// in its flow's ring or on the free page list headed by freePage (0 ends
	// it), in one pointer-free array a block, allocated with the block, that
	// never moves.
	dir      []*[blockPages]uint32
	freePage uint32
}

// Arena sizes. Head classes start at one packet, 8 bytes (a one-packet SYN
// probe is the commonest flow of a scan, and most flows in the paper's traces
// are a handful of packets); heads and pages, at most pageLen packets, are
// carved from blockLen-word blocks, so a block's unusable middle is under 2 %
// of it. maxBlocks (next to maxFlows) bounds the blocks a word id can name.
const (
	blockLen    = 4096
	headClasses = 7 // heads of 1, 2, 4, ..., pageLen words
	pageLen     = 1 << (headClasses - 1)
	blockPages  = blockLen / pageLen // directory entries a block's pages take
)

// word returns the word with id x. The address is computed, not indexed, so
// the per-packet write loads nothing of the block but the word itself: an
// index into the array would first load its first word, as a nil check.
func (t *Table) word(x uint32) *PacketInfo {
	return (*PacketInfo)(unsafe.Add(unsafe.Pointer(t.blocks[x/blockLen]), uintptr(x%blockLen)*unsafe.Sizeof(PacketInfo(0))))
}

// words returns the n words from id x on, which must lie in one block.
func (t *Table) words(x, n uint32) []PacketInfo { return unsafe.Slice(t.word(x), n) }

// link returns page p's directory entry, the id of the page after it.
func (t *Table) link(p uint32) *uint32 { return &t.dir[(p-1)/blockPages][(p-1)%blockPages] }

// pageOf returns the id of the page whose first word is x, and firstWord
// the first word of page p.
func pageOf(x uint32) uint32    { return x/pageLen + 1 }
func firstWord(p uint32) uint32 { return (p - 1) * pageLen }

// newFlow returns a zeroed flow ready for use, from the free list when
// Recycle has stocked it, otherwise from the slabs and the arena.
func (t *Table) newFlow() *Flow {
	if t.free != 0 {
		fl := t.active.flow(t.free - 1)
		t.free, fl.next = fl.next, 0
		return fl
	}
	fl := t.active.carve(t)
	fl.w = t.backing(0)
	return fl
}

// backing returns the first word id of a head of class k, below pageLen
// words, that nothing else references.
func (t *Table) backing(k int) uint32 {
	if s := t.spare[k]; len(s) > 0 {
		t.spare[k] = s[:len(s)-1]
		return s[len(s)-1]
	}
	return t.carve(1 << k)
}

// carve returns the id of the first of c words taken from the low end of
// the open block's free words, opening a new block when fewer are left.
func (t *Table) carve(c uint32) uint32 {
	if t.hi-t.lo < c {
		t.grow()
	}
	x := t.lo
	t.lo += c
	return x
}

// newPage returns the id of a page that nothing else references: the first
// on the free page list, else one carved from the high end of the open
// block's free words.
func (t *Table) newPage() uint32 {
	if id := t.freePage; id != 0 {
		t.freePage = *t.link(id)
		return id
	}
	if t.hi-t.lo < pageLen {
		t.grow()
	}
	t.hi -= pageLen
	return pageOf(t.hi)
}

// grow opens a new block: its words become the free words, and what the last
// one had left (under a page) is never used.
func (t *Table) grow() {
	b := uint32(len(t.blocks))
	if b == maxBlocks {
		panic("flow: table holds more packet words than a word id can name")
	}
	t.blocks = append(t.blocks, new([blockLen]PacketInfo))
	t.dir = append(t.dir, new([blockPages]uint32))
	// The last block's hi wraps to 0, and hi-lo still counts its free words.
	t.lo, t.hi = b*blockLen, b*blockLen+blockLen
}

// slot returns where f's next word goes while f's array has room for it, else
// nil: the word is then spill's. A head holds words 0 to 1<<class-1 and each
// page 64 more, so for n >= 1 f's array holds (n-1)%pageLen+1 words and the
// next goes to index n%pageLen; for the first word (n = 0) the unsigned n-1
// wraps, the array reads as full and spill writes it.
func (t *Table) slot(f *Flow) *PacketInfo {
	n := f.n
	if (n-1)%pageLen+1 < 1<<f.class {
		return t.word(f.w + n%pageLen)
	}
	return nil
}

// spill writes w, f's next word, where slot found no room: the first word
// into the head; into the next head class, leaving the full head on its
// spare list, while the head is below pageLen; else into a new page at the
// end of f's ring.
func (t *Table) spill(f *Flow, w PacketInfo) {
	k := int(f.class)
	switch {
	case f.n == 0:
		*t.word(f.w) = w
	case k < headClasses-1:
		var h uint32
		if k+1 < headClasses-1 {
			h = t.backing(k + 1)
		} else {
			id := t.newPage()
			*t.link(id) = id
			h = firstWord(id)
		}
		dst := t.words(h, 2<<k)
		dst[copy(dst, t.words(f.w, 1<<k))] = w
		t.spare[k] = append(t.spare[k], f.w)
		f.w, f.class = h, uint8(k+1)
	default:
		id := t.newPage()
		tail := t.link(pageOf(f.w))
		*t.link(id), *tail = *tail, id
		f.w = firstWord(id)
		*t.word(f.w) = w
	}
}

// NewTable returns an empty table. If onDone is non-nil it is invoked for
// every finalized flow instead of accumulating them in memory — the
// streaming path the compressor uses. Pass nil to collect flows for Flows().
func NewTable(onDone func(*Flow)) *Table {
	return &Table{active: newFlowTab(), onDone: onDone}
}

// tablePool recirculates drained Tables between compressor runs: the
// table's segments and directory, flow slabs, free list, spare lists, arena
// blocks and page directory of a released table are the dominant per-run
// allocations of the whole pipeline, and every one of them is reusable as-is.
var tablePool sync.Pool

// AcquireTable returns a released table when one is pooled, else a fresh one.
// Functionally identical to NewTable — a recycled table starts empty — but
// its slabs, free list, spare lists and pages arrive warm.
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
// back the flows of an unrelated future table. The spare lists and the free
// page list need no such care — a head or a page reaches one only after its
// flow has copied out of it or been recycled. Flows still open (a run
// abandoned mid-stream) are recycled here, off the open list, unemitted: the
// slab directory keeps every flow it ever carved, so one left off the free
// list would be storage no later run could reach. Collect-mode users (Flows()
// consumers) must not call it.
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
// with: the flow, its words and everything reachable from it must not be
// touched afterwards. Consumers that retain flows (Assemble, the diversity
// studies) simply never call it.
//
// The flow keeps its head for its next life. A flow past its head hands its
// ring of pages, the head among them, in one step to the front of the free
// page list, where the flows still growing find them, and takes a class-0
// head: a page left on it would sit under whichever flow opens next, most
// often a short one, while the growing flows took fresh pages.
func (t *Table) Recycle(f *Flow) {
	w, class := f.w, f.class
	if f.n > pageLen {
		tail := t.link(pageOf(w))
		*tail, t.freePage = t.freePage, *tail
		w, class = t.backing(0), 0
	}
	*f = Flow{w: w, class: class, idx: f.idx, next: t.free}
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
// (±2^57 ns; only a crafted or corrupt capture gets there), or one past a
// flow's maxFlowLen packets, is a flow boundary: the open flow is finalized
// the way Flush would finalize it, not Closed, and the packet opens a new
// flow under the same key.
func (t *Table) Add(p *pkt.Packet) {
	// Canonicalize once: the key and the packet's direction relative to it
	// share the same comparison, and recomputing them per use (Key, FromLo)
	// dominated the assembly profile.
	key, fromLo := p.KeyDir()
	fl := t.last
	if fl == nil || fl.Key != key {
		var h uint64
		if h, fl = t.active.get(key); fl == nil {
			fl = t.open(h, key, p)
		}
		t.last = fl
	}
	gap, fits := gapBetween(fl.last, p.Timestamp)
	if !fits || fl.n == maxFlowLen {
		t.finalize(fl)
		fl = t.open(t.active.probeHash(key), key, p)
		t.last = fl
		gap = 0
	}
	fl.last = p.Timestamp
	dep := DepNotDependent
	if fl.n > 0 && fl.lastFromLo != fromLo {
		// Previous packet of the conversation came from the opposite
		// endpoint: this packet waited on it (ack dependence).
		dep = DepDependent
	}
	fl.lastFromLo = fromLo
	w := packInfo(gap, fromLo, FlagClass(p), dep, SizeClass(int(p.PayloadLen)))
	if at := t.slot(fl); at != nil {
		*at = w
	} else {
		t.spill(fl, w)
	}
	fl.n++
	if p.Flags.Has(pkt.FlagFIN) {
		if fromLo {
			fl.fins |= finLo
		} else {
			fl.fins |= finHi
		}
	}
	// An RST tears the flow down immediately (the paper's trigger); a FIN
	// closes it once both directions have FINed, so the peer's answering FIN
	// does not spawn a spurious one-packet flow.
	if p.Flags.Has(pkt.FlagRST) || fl.fins == finLo|finHi {
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
		t.completed = slices.Grow(t.completed, t.active.count())
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
func (t *Table) ActiveCount() int { return t.active.count() }

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
