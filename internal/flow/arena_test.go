package flow

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"flowzip/internal/alloctest"
	"flowzip/internal/pkt"
)

// refPacket is what the reference keeps of a packet: plain fields, absolute
// timestamp, nothing packed.
type refPacket struct {
	ts              time.Duration
	payload         int
	fromLo          bool
	flag, dep, size int
}

// refTable is the naive model the arena is held against: one plain
// append-grown packet list per open conversation, nothing shared and nothing
// recycled. It does not decide when a flow ends — the table under test does —
// it only knows what the flow must contain when that happens.
type refTable map[pkt.FlowKey][]refPacket

func (r refTable) add(p *pkt.Packet) {
	key, fromLo := p.KeyDir()
	pk := r[key]
	dep := DepNotDependent
	if n := len(pk); n > 0 && pk[n-1].fromLo != fromLo {
		dep = DepDependent
	}
	r[key] = append(pk, refPacket{
		ts:      p.Timestamp,
		payload: int(p.PayloadLen),
		fromLo:  fromLo,
		flag:    FlagClass(p),
		dep:     dep,
		size:    SizeClass(int(p.PayloadLen)),
	})
}

// matchesRef reports whether f holds exactly the reference's packets: every
// class and direction through the accessors, every gap, read through the
// table, equal to the reference's timestamp subtraction, and the first
// timestamp, which the words do not carry.
func matchesRef(f *Flow, want []refPacket) bool {
	words, gaps := wordsOf(f)
	if f.Len() != len(want) || len(words) != len(want) {
		return false
	}
	for i, w := range want {
		p := words[i]
		gap := time.Duration(0)
		if i > 0 {
			gap = w.ts - want[i-1].ts
		}
		if p.FlagClass() != w.flag || p.depClass() != w.dep || p.SizeClass() != w.size || p.FromLo() != w.fromLo || gaps[i] != gap {
			return false
		}
	}
	return len(want) == 0 || f.FirstTimestamp() == want[0].ts
}

// wordsOf returns f's words in packet order, read run by run, and each one's
// exact gap as the table reads it (Flow.gapOf).
func wordsOf(f *Flow) ([]PacketInfo, []time.Duration) {
	var (
		words []PacketInfo
		gaps  []time.Duration
	)
	for run, id := f.firstRun(); len(run) > 0; run, id = f.nextRun(id) {
		for i, p := range run {
			words = append(words, p)
			gaps = append(gaps, f.gapOf(p, id, i))
		}
	}
	return words, gaps
}

// push appends the word of the given gap and classes to f's words the way
// Table.Add does, the exact gap to the wide store when the word escapes.
func push(t *Table, f *Flow, gap time.Duration, fromLo bool, flag, dep, size int) PacketInfo {
	w := packInfo(gap, fromLo, flag, dep, size)
	if at := t.slot(f); at != nil {
		*at = w
	} else {
		t.spill(f, w)
	}
	if w.escaped() {
		*t.wideAt(f.w + f.n%pageLen) = gap
	}
	f.n++
	return w
}

// pagesOf returns the ids of f's pages, first to last: its ring, a class-6
// head the first of them.
func pagesOf(f *Flow) []uint32 {
	if f.class < headClasses-1 {
		return nil
	}
	t, tail := f.table(), pageOf(f.w)
	var ids []uint32
	for id := *t.link(tail); ; id = *t.link(id) {
		ids = append(ids, id)
		if id == tail {
			return ids
		}
	}
}

// freePages returns the length of t's free page list.
func freePages(t *Table) int {
	n := 0
	for id := t.freePage; id != 0; id = *t.link(id) {
		n++
	}
	return n
}

// arenaPacket draws one packet of conversation conv (either direction),
// mostly data, now and then a FIN or an RST so flows close on their own.
func arenaPacket(rng *rand.Rand, conv int, ts time.Duration) pkt.Packet {
	client, server := pkt.IPv4(0x0a000000+conv), pkt.IPv4(0x14000000+conv%7)
	p := pkt.Packet{Timestamp: ts, Proto: pkt.ProtoTCP, Flags: pkt.FlagACK, PayloadLen: uint16(rng.Intn(1461))}
	if rng.Intn(2) == 0 {
		p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = client, server, uint16(1024+conv), 80
	} else {
		p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = server, client, 80, uint16(1024+conv)
	}
	switch r := rng.Intn(100); {
	case r < 4:
		p.Flags |= pkt.FlagFIN
	case r < 5:
		p.Flags = pkt.FlagRST
	}
	return p
}

// heldFlow is an emitted flow the consumer keeps for a while before handing
// it back, with a private copy of what it held at emit time.
type heldFlow struct {
	fl   *Flow
	want []refPacket
}

// arenaWalk drives one randomized interleaving of Add, FIN/RST closes, late
// and immediate Recycle, Flush and Release → AcquireTable, and requires every
// emitted flow to equal the reference's at emit time and to stay equal until
// the consumer recycles it, and the open list and the free list to account
// for every other flow the table has carved (checkLists, every 1 000 steps).
func arenaWalk(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	// Few conversations make long flows (rings of pages past a full head);
	// many make flushes of hundreds of flows with shared first timestamps. The
	// fourth shape mixes the two: three long-lived conversations and a stream
	// of fresh short ones, so a long flow recycled late hands its pages to the
	// free page list while new flows are opening and the other long ones grow.
	shape := int(seed) % 4
	convs := []int{3, 40, 400, 3}[shape]
	fresh := shape == 3
	ref := refTable{}
	var held []heldFlow
	var tbl *Table
	emitted := 0
	onDone := func(f *Flow) {
		emitted++
		want, ok := ref[f.Key]
		if !ok {
			t.Errorf("seed %d: emitted flow %v is not open in the reference", seed, f.Key)
			return
		}
		if !matchesRef(f, want) {
			t.Errorf("seed %d: flow %v emitted %d packets that differ from the reference's %d", seed, f.Key, f.Len(), len(want))
		}
		delete(ref, f.Key)
		if rng.Intn(3) == 0 {
			held = append(held, heldFlow{f, want})
			return
		}
		tbl.Recycle(f)
	}
	recycleHeld := func(n int) {
		for ; n > 0 && len(held) > 0; n-- {
			i := rng.Intn(len(held))
			h := held[i]
			if !matchesRef(h.fl, h.want) {
				t.Errorf("seed %d: held flow changed while the table kept running", seed)
			}
			tbl.Recycle(h.fl)
			held = slices.Delete(held, i, i+1)
		}
	}
	tbl = AcquireTable(onDone)
	ts := time.Duration(0)
	const steps = 30000
	for i := 0; i < steps; i++ {
		if i%1000 == 0 {
			checkLists(t, tbl, len(held))
		}
		switch r := rng.Intn(1000); {
		case r < 2:
			tbl.Flush()
			if tbl.ActiveCount() != 0 || len(ref) != 0 {
				t.Errorf("seed %d: after Flush %d flows active, %d open in the reference", seed, tbl.ActiveCount(), len(ref))
			}
		case r < 3:
			// Release needs every emitted flow back; flows still open are
			// dropped by it, in the reference too.
			recycleHeld(len(held))
			tbl.Release()
			clear(ref)
			tbl = AcquireTable(onDone)
		case r < 30:
			recycleHeld(1 + rng.Intn(4))
		default:
			ts += time.Duration(rng.Intn(3)) * time.Microsecond
			conv := rng.Intn(convs)
			if fresh && rng.Intn(3) == 0 {
				conv = 1000 + i/6 // a new conversation every few steps, a packet or two each
			}
			p := arenaPacket(rng, conv, ts)
			ref.add(&p)
			tbl.Add(&p)
			if tbl.ActiveCount() != len(ref) {
				t.Errorf("seed %d: step %d: %d flows active, %d open in the reference", seed, i, tbl.ActiveCount(), len(ref))
				return
			}
		}
	}
	tbl.Flush()
	recycleHeld(len(held))
	tbl.Release()
	if len(ref) != 0 || emitted == 0 {
		t.Errorf("seed %d: %d flows never emitted (%d were)", seed, len(ref), emitted)
	}
}

// abandonWalk releases tables with flows still open, the way a run that fails
// mid-stream does, and opens as many flows again on the table that comes back:
// they must all come off the free list — no slab allocated, nothing carved —
// each on a Flow, a head and pages no other open flow holds, and flush equal
// to the reference. Every fortieth conversation is long, so abandoned pages
// change hands too.
func abandonWalk(t *testing.T) {
	// With one P the pool hands back the table just released (the race
	// build's pool drops a quarter of its Puts on purpose; those rounds
	// prove nothing and are skipped).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const convs = 3 * flowSlabLen
	ref := refTable{}
	var tbl *Table
	onDone := func(f *Flow) {
		if want, ok := ref[f.Key]; !ok || !matchesRef(f, want) {
			t.Errorf("flow %v flushed %d packets that differ from the reference", f.Key, f.Len())
		}
		delete(ref, f.Key)
		tbl.Recycle(f)
	}
	ts := time.Duration(0)
	// open starts convs conversations numbered from base and returns the
	// flow each one was given.
	open := func(base int) map[*Flow]int {
		flows := map[*Flow]int{}
		for c := base; c < base+convs; c++ {
			n := 1 + c%3
			if c%40 == 0 {
				n = 3*pageLen + 5
			}
			for i := 0; i < n; i++ {
				ts += time.Microsecond
				p := dataPacket(c, ts)
				ref.add(&p)
				tbl.Add(&p)
			}
			if prev, dup := flows[tbl.last]; dup {
				t.Fatalf("conversations %d and %d were given the same Flow", prev, c)
			}
			flows[tbl.last] = c
		}
		return flows
	}
	reused := 0
	for round := 0; round < 16; round++ {
		tbl = AcquireTable(onDone)
		open(2 * round * convs)
		abandoned, slabs, carved := tbl, len(tbl.active.slabs), carvedFlows(&tbl.active)
		tbl.Release()
		clear(ref)
		tbl = AcquireTable(onDone)
		if tbl == abandoned {
			reused++
			flows := open((2*round + 1) * convs)
			if len(tbl.active.slabs) != slabs || carvedFlows(&tbl.active) != carved {
				t.Fatalf("round %d: reopening %d flows on the abandoned table took it from %d flows in %d slabs to %d in %d",
					round, convs, carved, slabs, carvedFlows(&tbl.active), len(tbl.active.slabs))
			}
			heads, pages, paged := map[*PacketInfo]bool{}, map[uint32]bool{}, 0
			for fl := range flows {
				run, _ := fl.firstRun()
				heads[&run[0]] = true
				for _, id := range pagesOf(fl) {
					pages[id] = true
					paged++
				}
			}
			if len(heads) != convs || len(pages) != paged || paged == 0 {
				t.Fatalf("round %d: %d open flows share %d heads, and %d pages are held %d times", round, convs, len(heads), len(pages), paged)
			}
		}
		tbl.Flush()
		if len(ref) != 0 {
			t.Fatalf("round %d: %d flows never flushed", round, len(ref))
		}
		tbl.Release()
	}
	if reused == 0 {
		t.Error("the pool never handed an abandoned table back")
	}
}

// TestArenaMatchesNaiveReference runs the walk from several goroutines at
// once, so released tables — slabs, free lists, spare lists and the page
// directory — change hands
// through tablePool while the others are mid-run (meaningful under -race),
// then abandons tables mid-run on its own.
func TestArenaMatchesNaiveReference(t *testing.T) {
	var wg sync.WaitGroup
	for seed := int64(1); seed <= 8; seed++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arenaWalk(t, seed)
		}()
	}
	wg.Wait()
	abandonWalk(t)
}

// dataPacket is one client→server data packet of conversation conv.
func dataPacket(conv int, ts time.Duration) pkt.Packet {
	return pkt.Packet{
		Timestamp: ts, Proto: pkt.ProtoTCP, Flags: pkt.FlagACK, PayloadLen: uint16(ts),
		SrcIP: pkt.IPv4(0x0a000000 + conv), DstIP: pkt.Addr(20, 0, 0, 1), SrcPort: uint16(1024 + conv), DstPort: 80,
	}
}

// TestArenaGrowthDoesNotAliasLiveFlow pins the hand-over itself: flow B is
// given the very head flow A abandoned, writes into it, and A — by then in
// the next class — is unchanged. The two then leapfrog through the head
// classes and on into pages, their pages interleaved in the directory.
func TestArenaGrowthDoesNotAliasLiveFlow(t *testing.T) {
	tbl := NewTable(func(*Flow) {})
	ref := refTable{}
	ts := time.Duration(0)
	add := func(conv int) *Flow {
		ts += time.Microsecond
		p := dataPacket(conv, ts)
		ref.add(&p)
		tbl.Add(&p)
		return tbl.last
	}
	a := add(1)
	for a.Len() < 1<<a.class {
		add(1)
	}
	abandoned := a.w
	add(1) // a fills its class and moves on
	if a.w == abandoned {
		t.Fatal("flow did not move to a new head when its class filled")
	}
	b := add(2)
	if b.w != abandoned {
		t.Fatal("the next flow did not reuse the abandoned head")
	}
	// Walk both through the rest of the classes and several pages, each
	// picking up what the other leaves behind, checking both after every
	// packet.
	for i := 0; i < 600; i++ {
		add(1 + i%3%2) // a, b, a, a, b, a, ... so they leapfrog through the classes
		for _, fl := range []*Flow{a, b} {
			if !matchesRef(fl, ref[fl.Key]) {
				t.Fatalf("packet %d: flow %v differs from the reference", i, fl.Key)
			}
		}
	}
	if pa, pb := pagesOf(a), pagesOf(b); len(pa) < 4 || len(pb) < 2 || slices.ContainsFunc(pa, func(id uint32) bool { return slices.Contains(pb, id) }) {
		t.Fatalf("flows of %d and %d packets on pages %v and %v", a.Len(), b.Len(), pa, pb)
	}
}

// TestArenaCollectModeFlowsStayIntact: with onDone nil (Assemble) nothing is
// ever recycled, so flows already completed must survive any amount of later
// growth, reuse of abandoned backings and the final flush.
func TestArenaCollectModeFlowsStayIntact(t *testing.T) {
	tbl := NewTable(nil)
	ref := refTable{}
	var closed [][]refPacket // reference packets of the RST-closed flows, in completion order
	check := func(when string) {
		for i, fl := range tbl.Flows() {
			want := ref[fl.Key]
			if i < len(closed) {
				want = closed[i]
			}
			if !matchesRef(fl, want) {
				t.Fatalf("%s: collected flow %d (%v) differs from the reference", when, i, fl.Key)
			}
		}
	}
	ts := time.Duration(0)
	for round := 0; round < 40; round++ {
		// Conversation c sends c+1 packets a round and every fifth one is
		// then reset: lengths from 1 to rings of dozens of pages, closing at
		// different times while the others keep growing.
		for c := 0; c < 50; c++ {
			for i := 0; i <= c; i++ {
				ts += time.Microsecond
				p := dataPacket(c, ts)
				if i == c && (c+round)%5 == 0 {
					p.Flags = pkt.FlagRST
				}
				ref.add(&p)
				tbl.Add(&p)
				if p.Flags == pkt.FlagRST {
					key, _ := p.KeyDir()
					closed = append(closed, ref[key])
					delete(ref, key)
				}
			}
		}
		if len(tbl.Flows()) != len(closed) {
			t.Fatalf("round %d: %d flows completed, want %d", round, len(tbl.Flows()), len(closed))
		}
		check("while running")
	}
	tbl.Flush()
	if len(tbl.Flows()) != len(closed)+len(ref) {
		t.Fatalf("%d flows collected, want %d closed + %d flushed", len(tbl.Flows()), len(closed), len(ref))
	}
	check("after Flush")
}

// longFlow adds n packets of conversation conv to tbl, one microsecond
// apart from *ts on, the last one an RST when closed is set.
func longFlow(tbl *Table, ts *time.Duration, conv, n int, closed bool) {
	for i := 0; i < n; i++ {
		*ts += time.Microsecond
		p := dataPacket(conv, *ts)
		if closed && i == n-1 {
			p.Flags = pkt.FlagRST
		}
		tbl.Add(&p)
	}
}

// TestLongFlowPagesRecycled: Recycle hands a finished long flow's pages to
// the flows still to come, so a second long flow, opened after the first is
// recycled, takes no page and no word of the packet arena: its Flow is the
// first one's, its heads below 64 words the ones the first left on the spare
// lists, and its pages, the class-6 head among them, come off the free page
// list. From then on a long flow allocates nothing at all.
func TestLongFlowPagesRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are held without the race detector")
	}
	const n = 20 * pageLen
	var tbl *Table
	emitted, wrong := 0, 0
	tbl = NewTable(func(f *Flow) {
		emitted++
		if f.Len() != n || !f.Closed {
			wrong++
		}
		tbl.Recycle(f)
	})
	ts := time.Duration(0)
	longFlow(tbl, &ts, 1, n, true)
	blocks, lo, hi, pages := len(tbl.blocks), tbl.lo, tbl.hi, freePages(tbl)
	longFlow(tbl, &ts, 2, n, true)
	if len(tbl.blocks) != blocks || tbl.lo != lo || tbl.hi != hi || pages != n/pageLen || freePages(tbl) != pages {
		t.Fatalf("the second %d-packet flow carved from the arena, or the free page list went from %d pages to %d (want %d)", n, pages, freePages(tbl), n/pageLen)
	}
	if allocs := testing.AllocsPerRun(5, func() { longFlow(tbl, &ts, 3, n, true) }); allocs != 0 {
		t.Errorf("a %d-packet flow after the first allocates %.0f times", n, allocs)
	}
	if emitted != 8 || wrong != 0 {
		t.Fatalf("%d flows emitted, %d of them not %d packets closed by RST", emitted, wrong, n)
	}
}

// TestLongFlowWordsWrittenOnce: a flow of n packets holds its words in a
// 64-word head and ⌈(n-64)/64⌉ pages, each word past the first 32 written
// once, so what a flow costs in words is n rounded up to a page, not the next
// power of two with every smaller one before it. Flows of each length are
// added one after the other and left open, each on its own pages, so the
// spare heads one leaves behind serve the next; the bytes they allocate, less
// those of as many one-packet flows (Flow slabs, slots, a one-word head
// each), are held to the words per flow plus the page directory's share and
// one slab over them all. With one array a flow, doubled at each fill past 64
// words, a flow of 4 097 packets took 69 588 bytes and one of 20 000 took
// 278 486; in pages of 8-byte words they took 34 354 and 165 570, and of
// 4-byte words they take 16 705 and 81 393.
func TestLongFlowWordsWrittenOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are held without the race detector")
	}
	alloc := func(flows, n int) (uint64, *Table) {
		tbl := NewTable(func(*Flow) {})
		ts := time.Duration(0)
		runtime.GC()
		return alloctest.Bytes(func() {
			for c := 0; c < flows; c++ {
				longFlow(tbl, &ts, c, n, false)
			}
		}), tbl
	}
	for _, n := range []int{63, 64, 65, 128, 129, 4097, 20000} {
		flows := max(16, 1<<16/n)
		got, tbl := alloc(flows, n)
		base, _ := alloc(flows, 1)
		pages := (n + pageLen - 1) / pageLen // the head among them
		held := 0
		for at := tbl.head; at != 0; at = tbl.active.flow(at - 1).next {
			held += len(pagesOf(tbl.active.flow(at - 1)))
		}
		if held != flows*pages {
			t.Fatalf("%d flows of %d packets hold %d pages, want %d each", flows, n, held, pages)
		}
		// The directory's arrays, and the slices naming them and the blocks
		// at most twice.
		dirBytes := float64(len(tbl.dir)) * float64(unsafe.Sizeof(*tbl.dir[0])+2*unsafe.Sizeof(tbl.dir[0])+2*unsafe.Sizeof(tbl.blocks[0]))
		words := 4 * pages * pageLen
		budget := float64(words) + (dirBytes+8*blockLen)/float64(flows)
		perFlow := float64(got-base) / float64(flows)
		t.Logf("%d packets: %.0f B a flow (%d B of words, directory %.0f B a flow), %d flows", n, perFlow, words, dirBytes/float64(flows), flows)
		if perFlow > budget {
			t.Errorf("a flow of %d packets allocates %.0f bytes, budget %.0f: %d of words, the page directory's share and a slab's", n, perFlow, budget, words)
		}
	}
}
