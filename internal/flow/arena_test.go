package flow

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

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
// class and direction through the accessors, every gap equal to the
// reference's timestamp subtraction, and the first timestamp, which the words
// do not carry.
func matchesRef(f *Flow, want []refPacket) bool {
	if len(f.Packets) != len(want) {
		return false
	}
	for i, w := range want {
		p := f.Packets[i]
		gap := time.Duration(0)
		if i > 0 {
			gap = w.ts - want[i-1].ts
		}
		if p.FlagClass() != w.flag || p.depClass() != w.dep || p.SizeClass() != w.size || p.FromLo() != w.fromLo || p.gap() != gap {
			return false
		}
	}
	return len(want) == 0 || f.FirstTimestamp() == want[0].ts
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
	// Few conversations make long flows (classes past pktSlabMaxCap); many
	// make flushes of hundreds of flows with shared first timestamps. The fourth
	// shape mixes the two: three long-lived conversations and a stream of
	// fresh short ones, so a long flow recycled late hands its array to the
	// spare list while new flows are opening and the other long ones grow.
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
			t.Errorf("seed %d: flow %v emitted %d packets that differ from the reference's %d", seed, f.Key, len(f.Packets), len(want))
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
// each on a Flow and a backing no other open flow holds, and flush equal to
// the reference. Every fortieth conversation is long, so abandoned backings
// above the slab classes change hands too.
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
			t.Errorf("flow %v flushed %d packets that differ from the reference", f.Key, len(f.Packets))
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
				n = 3 * pktSlabMaxCap
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
		abandoned, slabs, carved := tbl, len(tbl.active.slabs), tbl.active.carved
		tbl.Release()
		clear(ref)
		tbl = AcquireTable(onDone)
		if tbl == abandoned {
			reused++
			flows := open((2*round + 1) * convs)
			if len(tbl.active.slabs) != slabs || tbl.active.carved != carved {
				t.Fatalf("round %d: reopening %d flows on the abandoned table took it from %d flows in %d slabs to %d in %d",
					round, convs, carved, slabs, tbl.active.carved, len(tbl.active.slabs))
			}
			backings := map[*PacketInfo]bool{}
			for fl := range flows {
				backings[&fl.Packets[0]] = true
			}
			if len(backings) != convs {
				t.Fatalf("round %d: %d open flows share %d backings", round, convs, len(backings))
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
// once, so released tables — slabs, free lists and spare lists — change hands
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
// given the very backing flow A abandoned, writes into it, and A — by then in
// the next class — is unchanged.
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
	for len(a.Packets) < cap(a.Packets) {
		add(1)
	}
	abandoned := &a.Packets[0]
	add(1) // a fills its class and moves on
	if &a.Packets[0] == abandoned {
		t.Fatal("flow did not move to a new backing when its class filled")
	}
	b := add(2)
	if &b.Packets[0] != abandoned {
		t.Fatal("the next flow did not reuse the abandoned backing")
	}
	// Walk both through a few more classes, each picking up what the other
	// leaves behind, checking both after every packet.
	for i := 0; i < 200; i++ {
		add(1 + i%3%2) // a, b, a, a, b, a, ... so they leapfrog through the classes
		for _, fl := range []*Flow{a, b} {
			if !matchesRef(fl, ref[fl.Key]) {
				t.Fatalf("packet %d: flow %v differs from the reference", i, fl.Key)
			}
		}
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
		// then reset: lengths from 1 to past pktSlabMaxCap, closing at
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

// TestRecycleReturnsLongBackingToSpare: a recycled flow's array above the slab
// classes belongs to the flows still growing, not to whichever flow opens
// next. The next new flow starts in class 0 on a different array, and the
// recycled array is what it receives when it grows into that class.
func TestRecycleReturnsLongBackingToSpare(t *testing.T) {
	var done []*Flow
	tbl := NewTable(func(f *Flow) { done = append(done, f) })
	ref := refTable{}
	ts := time.Duration(0)
	add := func(conv int, flags pkt.TCPFlags) *Flow {
		ts += time.Microsecond
		p := dataPacket(conv, ts)
		p.Flags = flags
		ref.add(&p)
		tbl.Add(&p)
		return tbl.last
	}
	long := add(1, pkt.FlagACK)
	for len(long.Packets) <= pktSlabMaxCap {
		add(1, pkt.FlagACK)
	}
	arr, arrCap := &long.Packets[0], cap(long.Packets)
	if arrCap <= pktSlabMaxCap {
		t.Fatalf("a %d-packet flow sits on a %d-packet backing", len(long.Packets), arrCap)
	}
	add(1, pkt.FlagRST)
	if len(done) != 1 || done[0] != long {
		t.Fatalf("RST emitted %d flows", len(done))
	}
	delete(ref, long.Key)
	tbl.Recycle(long)
	if got := tbl.spare[pktClass(arrCap)]; len(got) != 1 || &got[0][:1][0] != arr {
		t.Fatalf("recycled %d-packet backing is not on its spare list", arrCap)
	}

	b := add(2, pkt.FlagACK)
	if cap(b.Packets) != pktClassMin || &b.Packets[0] == arr {
		t.Fatalf("the next new flow got a %d-packet backing (recycled array: %v)", cap(b.Packets), &b.Packets[0] == arr)
	}
	for cap(b.Packets) < arrCap {
		add(2, pkt.FlagACK)
	}
	if &b.Packets[0] != arr {
		t.Fatal("the flow growing into the recycled array's class did not receive it")
	}
	if !matchesRef(b, ref[b.Key]) {
		t.Fatal("flow on the recycled array differs from the reference")
	}
}
