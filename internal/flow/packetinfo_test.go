package flow

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"flowzip/internal/alloctest"
)

// gapMax is the largest gap one flow holds (gapSpan); the smallest is
// -gapMax-1.
const gapMax = time.Duration(1)<<57 - 1

// usEscape is the first gap in whole µs that the word's field does not hold.
const usEscape = gapEscape * time.Microsecond

// TestRecordSizes pins the sizes the table is built around: one 4-byte word
// per packet (a slot is one pointer-free word too; segtab pins that); a
// 56-byte Flow on 64-bit and 32-bit hosts alike, so that a slab of
// flowSlabLen of them behind their table pointer, with its malloc header, is
// one 14 336-byte allocation; and a one-word head under a fresh flow (a
// one-packet probe, a scan's commonest flow, holds 4 bytes of packet words).
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(PacketInfo(0)); got != 4 {
		t.Errorf("PacketInfo is %d bytes, want 4", got)
	}
	if got := unsafe.Sizeof(Flow{}); got != 56 {
		t.Errorf("Flow is %d bytes, want 56", got)
	}
	if got := 1 << NewTable(nil).newFlow().class; got != 1 {
		t.Errorf("a fresh flow's head holds %d packets, want 1", got)
	}
	// The bytes carving a flow from an empty table allocates, its directory
	// made first.
	tab := flowTab{slabs: make([]*flowSlab, 0, 1)}
	slab := alloctest.Least(func() {
		tab = flowTab{slabs: tab.slabs[:0]}
		tab.carve(nil)
	})
	if slab != 14336 {
		t.Errorf("a slab of %d flows is a %d-byte allocation, want 14 336", flowSlabLen, slab)
	}
}

// holdsPointers reports whether a value of type typ holds anything the
// collector scans.
func holdsPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return typ.Len() > 0 && holdsPointers(typ.Elem())
	case reflect.Struct:
		for i := range typ.NumField() {
			if holdsPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true
}

// TestFlowsHoldNoPointers: a Flow, a page-directory entry, an arena block and
// a spare list's entries hold no pointer, so the collector scans none of
// them, and a slab's one pointer, to its table, comes first, so the collector
// scans one word of a slab (beside segtab's TestSlotsHoldNoPointers).
func TestFlowsHoldNoPointers(t *testing.T) {
	var tbl Table
	for name, typ := range map[string]reflect.Type{
		"Flow":                 reflect.TypeFor[Flow](),
		"page-directory entry": reflect.TypeOf(tbl.dir).Elem().Elem(),
		"arena block":          reflect.TypeOf(tbl.blocks).Elem().Elem(),
		"spare head":           reflect.TypeOf(tbl.spare).Elem().Elem(),
	} {
		if holdsPointers(typ) {
			t.Errorf("a %s (%v) holds a pointer", name, typ)
		}
	}
	slab := reflect.TypeFor[flowSlab]()
	if slab.NumField() != 2 || slab.Field(0).Offset != 0 || slab.Field(1).Type != reflect.TypeFor[[flowSlabLen]Flow]() {
		t.Errorf("a flow slab is %v, want its table pointer first and then its flows", slab)
	}
}

// TestArenaWordIDLimit: a table whose arena reaches the last block a 32-bit
// word id names carves heads and pages from it, with the ids at the top of
// the id space, and panics before it opens one more, as carve does at
// maxFlows. The block and page directories are started one short of the limit
// by hand: the words behind them would take 16 GiB.
func TestArenaWordIDLimit(t *testing.T) {
	tbl := NewTable(nil)
	tbl.blocks = make([]*[blockLen]PacketInfo, maxBlocks-1, maxBlocks)
	tbl.dir = make([]*[blockPages]uint32, maxBlocks-1, maxBlocks)
	f := tbl.newFlow()
	if f.w != math.MaxUint32-blockLen+1 {
		t.Fatalf("the last block's first head starts at word %#x", f.w)
	}
	// Heads of 1 to 32 words take 63 words at the block's low end, and 63
	// pages its high end down to them: 4 032 words, one of the block left.
	var words []PacketInfo
	for i := range 63 * pageLen {
		words = append(words, push(tbl, f, time.Duration(i)*time.Microsecond, i%2 == 0, FlagClassACK, DepNotDependent, SizeClassSmall))
	}
	pages := pagesOf(f)
	got, _ := wordsOf(f)
	if !slices.Equal(got, words) || len(pages) != 63 || pages[0] != math.MaxUint32/pageLen+1 || len(tbl.blocks) != maxBlocks {
		t.Fatalf("a flow of %d words in the last block reads back equal %v, on %d pages from id %#x", len(words), slices.Equal(got, words), len(pages), pages[0])
	}
	msg := func() (msg any) {
		defer func() { msg = recover() }()
		push(tbl, f, 0, true, FlagClassACK, DepNotDependent, SizeClassSmall)
		return nil
	}()
	if msg == nil {
		t.Fatal("a page past the last block a word id names was carved")
	}
	t.Logf("panic: %v", msg)
}

// TestPacketInfoRoundTrip packs every class combination with every edge gap
// and reads each field back, the gap through the table, then checks
// AppendVector over the packed words against Weights.F of the classes that
// went in. A gap escapes exactly when it is negative, not a whole µs, or
// 2^26-1 µs or more; the 528 words take nine pages, the flow's 64-word head
// the first, so escaped words are copied from head to head and reads cross
// page boundaries.
func TestPacketInfoRoundTrip(t *testing.T) {
	type fields struct {
		gap             time.Duration
		fromLo          bool
		flag, dep, size int
	}
	gaps := []time.Duration{0, 1, 999, time.Microsecond, usEscape - time.Microsecond, usEscape, -1, -time.Microsecond, time.Hour, gapMax, -gapMax - 1}
	var all []fields
	var words []PacketInfo
	tbl := NewTable(nil)
	f := tbl.newFlow()
	for flag := FlagClassSYN; flag <= FlagClassTeardown; flag++ {
		for dep := DepDependent; dep <= DepNotDependent; dep++ {
			for size := SizeClassEmpty; size <= SizeClassLarge; size++ {
				for _, fromLo := range []bool{false, true} {
					for _, gap := range gaps {
						if _, fits := gapBetween(0, gap); !fits {
							t.Fatalf("gapBetween says %d ns does not fit", gap)
						}
						p := push(tbl, f, gap, fromLo, flag, dep, size)
						escape := gap < 0 || gap%time.Microsecond != 0 || gap >= usEscape
						if p.escaped() != escape || !escape && time.Duration(p>>infoGapShift)*time.Microsecond != gap ||
							p.FromLo() != fromLo || p.FlagClass() != flag || p.depClass() != dep || p.SizeClass() != size {
							t.Fatalf("packed (gap %d, fromLo %v, classes %d/%d/%d), read back (field %d, escaped %v, fromLo %v, classes %d/%d/%d)",
								gap, fromLo, flag, dep, size, p>>infoGapShift, p.escaped(), p.FromLo(), p.FlagClass(), p.depClass(), p.SizeClass())
						}
						all = append(all, fields{gap, fromLo, flag, dep, size})
						words = append(words, p)
					}
				}
			}
		}
	}
	if want := 4 * 2 * 3 * 2 * len(gaps); len(all) != want {
		t.Fatalf("covered %d combinations, want %d", len(all), want)
	}
	got, gotGaps := wordsOf(f)
	if !slices.Equal(got, words) || f.Len() != len(words) || len(pagesOf(f)) != 9 {
		t.Fatalf("a flow of %d words on %d pages reads back %d words, equal %v", f.Len(), len(pagesOf(f)), len(got), slices.Equal(got, words))
	}
	for i, a := range all {
		if gotGaps[i] != a.gap {
			t.Fatalf("word %d: gap %d reads back %d", i, a.gap, gotGaps[i])
		}
	}
	for _, w := range []Weights{DefaultWeights, {Flag: 1, Dep: 1, Size: 1}, {Flag: 50, Dep: 20, Size: 5}} {
		if w.Flag <= 0 || w.Dep <= 0 || w.Size <= 0 || w.MaxF() > 255 {
			t.Fatalf("weights %v would not pass Options.Validate", w)
		}
		v := f.AppendVector(nil, w)
		if len(v) != len(all) {
			t.Fatalf("weights %v: vector has %d values for %d packets", w, len(v), len(all))
		}
		for i, a := range all {
			if int(v[i]) != w.F(a.flag, a.dep, a.size) {
				t.Fatalf("weights %v: packet %d (classes %d/%d/%d) has f = %d, want %d", w, i, a.flag, a.dep, a.size, v[i], w.F(a.flag, a.dep, a.size))
			}
		}
		if !slices.Equal(f.Vector(w), v) {
			t.Fatalf("weights %v: Vector and AppendVector disagree", w)
		}
	}
}

// TestEscapedWordsMoveWithTheirHead: an escaped word's exact gap goes with it
// when its head fills and spill copies it into the next class, and the head
// left behind, taken by the next flow for escaped words of its own, changes
// none of it. The two flows leapfrog through the head classes and on into
// pages, as in TestArenaGrowthDoesNotAliasLiveFlow, each checked after every
// word; every other gap escapes, negative or a µs and some ns.
func TestEscapedWordsMoveWithTheirHead(t *testing.T) {
	tbl := NewTable(nil)
	flows := [2]*Flow{tbl.newFlow()}
	var want [2][]time.Duration
	add := func(k, i int) {
		g := time.Duration(i) * time.Microsecond
		switch i % 4 {
		case 0:
			g = -g - time.Duration(k+1)
		case 2:
			g += time.Duration(k + 1)
		}
		push(tbl, flows[k], g, k == 0, FlagClassACK, DepNotDependent, SizeClassSmall)
		want[k] = append(want[k], g)
	}
	add(0, 0)
	abandoned := flows[0].w
	add(0, 1) // the escaped first word moves to a class-1 head
	if flows[1] = tbl.newFlow(); flows[1].w != abandoned {
		t.Fatal("the next flow did not take the head the first one left")
	}
	for i := 0; i < 3*pageLen; i++ {
		k := i % 3 % 2 // 0, 1, 0, 0, 1, 0, ...
		add(k, len(want[k]))
		for k, f := range flows {
			if _, gaps := wordsOf(f); !slices.Equal(gaps, want[k]) {
				t.Fatalf("after %d words: flow %d reads gaps %v, want %v", i, k, gaps, want[k])
			}
		}
	}
	if len(pagesOf(flows[0])) < 2 || len(pagesOf(flows[1])) < 1 {
		t.Fatalf("flows of %d and %d words on %d and %d pages", flows[0].Len(), flows[1].Len(), len(pagesOf(flows[0])), len(pagesOf(flows[1])))
	}
}

// addOneKey runs the timestamps through a table as packets of one 5-tuple
// (dataPacket's conversation 1) and returns the emitted flows in emission
// order, having checked that together they hold every packet in input order
// and that each flow's first timestamp and inter-packet times equal the plain
// subtraction of its own packets' timestamps.
func addOneKey(t *testing.T, collect bool, stamps []time.Duration) []*Flow {
	t.Helper()
	var flows []*Flow
	var tbl *Table
	if collect {
		tbl = NewTable(nil)
	} else {
		tbl = NewTable(func(f *Flow) { flows = append(flows, f) })
	}
	for _, ts := range stamps {
		p := dataPacket(1, ts)
		tbl.Add(&p)
	}
	tbl.Flush()
	if collect {
		flows = tbl.Flows()
	}
	rest := stamps
	for i, f := range flows {
		if f.Len() == 0 || f.Len() > len(rest) {
			t.Fatalf("flow %d has %d packets, %d left to account for", i, f.Len(), len(rest))
		}
		own := rest[:f.Len()]
		rest = rest[f.Len():]
		var want []time.Duration
		for j := 1; j < len(own); j++ {
			want = append(want, own[j]-own[j-1])
		}
		if got := interPacketTimes(t, f); !slices.Equal(got, want) {
			t.Errorf("flow %d: inter-packet times %v, want %v", i, got, want)
		}
		if f.FirstTimestamp() != own[0] {
			t.Errorf("flow %d: first timestamp %v, want %v", i, f.FirstTimestamp(), own[0])
		}
		if f.Closed {
			t.Errorf("flow %d is Closed without a FIN or RST", i)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d packets are in no emitted flow", len(rest))
	}
	return flows
}

// TestAddOversizeGap: a gap past ±2^57 ns (gapSpan) is a flow boundary,
// never a truncated or wrapped value, and every gap within it, escaped or
// not, reads back exact (addOneKey). pcap and TSH carry absolute seconds in
// a uint32, so a crafted capture reaches 2^32-1 s between two packets of one
// 5-tuple; collect mode takes unsorted input, so the same jump backwards; and
// the API takes any time.Duration, so a subtraction that wraps int64. Idle
// gaps of 70 s and 2^40 ns, past what the word's field holds, stay in the
// flow.
func TestAddOversizeGap(t *testing.T) {
	const far = (1<<32 - 1) * time.Second
	for _, tc := range []struct {
		name      string
		collect   bool
		stamps    []time.Duration
		wantFlows []int // packets per emitted flow
	}{
		{"forward", false, []time.Duration{0, time.Second, far, far + time.Millisecond}, []int{2, 2}},
		{"forward, collected", true, []time.Duration{0, far}, []int{1, 1}},
		{"backward, collected", true, []time.Duration{far, far + time.Millisecond, 0, 5 * time.Millisecond}, []int{2, 2}},
		{"wraps int64", true, []time.Duration{math.MaxInt64, math.MinInt64, math.MinInt64 + 1}, []int{1, 2}},
		{"long idle gaps", false, []time.Duration{0, 70 * time.Second, 70*time.Second + 1<<40, 70*time.Second + 1<<40 + time.Microsecond}, []int{4}},
		// The field's exact edges: one nanosecond inside is one flow with the
		// gap exact, one nanosecond outside is two flows.
		{"largest gap that fits", false, []time.Duration{0, gapMax}, []int{2}},
		{"smallest gap that does not", false, []time.Duration{0, gapMax + 1}, []int{1, 1}},
		{"most negative gap that fits", true, []time.Duration{0, -gapMax - 1}, []int{2}},
		{"first negative gap that does not", true, []time.Duration{0, -gapMax - 2}, []int{1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flows := addOneKey(t, tc.collect, tc.stamps)
			var got []int
			for _, f := range flows {
				got = append(got, f.Len())
			}
			if !slices.Equal(got, tc.wantFlows) {
				t.Fatalf("flows of %v packets, want %v", got, tc.wantFlows)
			}
		})
	}
}

// TestAddFlowLengthLimit: a flow counts its packets in 32 bits, so the packet
// after its maxFlowLen-th is a flow boundary, as an oversize gap is, never a
// count that wraps. The count is set by hand: the words behind it would take
// 16 GiB.
func TestAddFlowLengthLimit(t *testing.T) {
	var flows []*Flow
	tbl := NewTable(func(f *Flow) { flows = append(flows, f) })
	p := dataPacket(1, time.Microsecond)
	tbl.Add(&p)
	tbl.last.n = maxFlowLen
	q := dataPacket(1, 2*time.Microsecond)
	tbl.Add(&q)
	tbl.Flush()
	if len(flows) != 2 || flows[0].n != maxFlowLen || flows[0].Closed || flows[1].n != 1 || flows[1].FirstTimestamp() != q.Timestamp {
		t.Fatalf("%d flows emitted; want one of %d packets, not Closed, and one of 1 from %v", len(flows), uint32(maxFlowLen), q.Timestamp)
	}
}

// TestNegativeGaps: collect mode accepts unsorted input, and the gaps it
// reports are the signed differences, exactly as when flows kept timestamps,
// down to -1 ns.
func TestNegativeGaps(t *testing.T) {
	ms, us := time.Millisecond, time.Microsecond
	flows := addOneKey(t, true, []time.Duration{10 * ms, 5 * ms, 7 * ms, 7*ms - 1, 7*ms - 1 - us})
	if len(flows) != 1 {
		t.Fatalf("%d flows, want 1", len(flows))
	}
	if got, want := interPacketTimes(t, flows[0]), []time.Duration{-5 * ms, 2 * ms, -1, -us}; !slices.Equal(got, want) {
		t.Fatalf("gaps %v, want %v", got, want)
	}
}
