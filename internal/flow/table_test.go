package flow

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"

	"flowzip/internal/pkt"
)

// webConversation builds a canonical HTTP-like exchange:
// SYN, SYN+ACK, ACK, request, response x respPkts, FIN, FIN+ACK.
func webConversation(client, server pkt.IPv4, cport uint16, start time.Duration, rtt time.Duration, respPkts int) []pkt.Packet {
	gap := 100 * time.Microsecond
	ts := start
	var out []pkt.Packet
	emit := func(fromClient bool, flags pkt.TCPFlags, payload uint16, wait time.Duration) {
		ts += wait
		p := pkt.Packet{Timestamp: ts, Proto: pkt.ProtoTCP, Flags: flags, TTL: 64, PayloadLen: payload, Window: 65535}
		if fromClient {
			p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = client, server, cport, 80
		} else {
			p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = server, client, 80, cport
		}
		out = append(out, p)
	}
	emit(true, pkt.FlagSYN, 0, 0)
	emit(false, pkt.FlagSYN|pkt.FlagACK, 0, rtt)
	emit(true, pkt.FlagACK, 0, rtt)
	emit(true, pkt.FlagACK|pkt.FlagPSH, 300, gap)
	for i := 0; i < respPkts; i++ {
		wait := gap
		if i == 0 {
			wait = rtt
		}
		emit(false, pkt.FlagACK|pkt.FlagPSH, 1460, wait)
	}
	emit(true, pkt.FlagFIN|pkt.FlagACK, 0, rtt)
	emit(false, pkt.FlagFIN|pkt.FlagACK, 0, rtt)
	return out
}

func TestAssembleSingleFlow(t *testing.T) {
	packets := webConversation(pkt.Addr(10, 0, 0, 1), pkt.Addr(192, 168, 0, 80), 5000, 0, 50*time.Millisecond, 3)
	flows := Assemble(packets)
	if len(flows) != 1 {
		t.Fatalf("flows = %d, want 1", len(flows))
	}
	f := flows[0]
	if f.Len() != len(packets) {
		t.Fatalf("flow len = %d, want %d", f.Len(), len(packets))
	}
	if !f.Closed {
		t.Fatal("FIN-terminated flow must be Closed")
	}
	if f.ServerIP() != pkt.Addr(192, 168, 0, 80) {
		t.Fatalf("server = %v", f.ServerIP())
	}
}

// TestFlowEndpoints: the server is derived, not stored — it must equal the
// first packet's destination whichever side of the canonical key the first
// packet came from, including when both sides share an address (the ports
// alone order the key) or are the same endpoint.
func TestFlowEndpoints(t *testing.T) {
	a, b := pkt.Addr(10, 0, 0, 1), pkt.Addr(192, 168, 0, 80)
	for _, first := range []pkt.Packet{
		{SrcIP: a, DstIP: b, SrcPort: 5000, DstPort: 80},
		{SrcIP: b, DstIP: a, SrcPort: 5000, DstPort: 80},
		{SrcIP: a, DstIP: b, SrcPort: 80, DstPort: 5000},
		{SrcIP: a, DstIP: a, SrcPort: 5000, DstPort: 80},
		{SrcIP: a, DstIP: a, SrcPort: 80, DstPort: 5000},
		{SrcIP: a, DstIP: a, SrcPort: 80, DstPort: 80},
	} {
		first.Proto, first.Flags = pkt.ProtoTCP, pkt.FlagSYN
		reply := first
		reply.SrcIP, reply.DstIP, reply.SrcPort, reply.DstPort = first.DstIP, first.SrcIP, first.DstPort, first.SrcPort
		reply.Timestamp, reply.Flags = time.Millisecond, pkt.FlagSYN|pkt.FlagACK
		flows := Assemble([]pkt.Packet{first, reply})
		if len(flows) != 1 || flows[0].Len() != 2 {
			t.Fatalf("%v: assembled %d flows", first.Tuple(), len(flows))
		}
		f := flows[0]
		if f.ServerIP() != first.DstIP {
			t.Errorf("%v: server %v", first.Tuple(), f.ServerIP())
		}
	}
	if f := (&Flow{}); f.ServerIP() != 0 {
		t.Error("an empty flow has a server")
	}
}

func TestDependenceClassification(t *testing.T) {
	packets := webConversation(pkt.Addr(10, 0, 0, 1), pkt.Addr(192, 168, 0, 80), 5000, 0, 50*time.Millisecond, 2)
	f := Assemble(packets)[0]
	// SYN: first packet, not dependent.
	if f.Packets[0].depClass() != DepNotDependent {
		t.Fatal("first packet must be not-dependent")
	}
	// SYN+ACK: opposite direction, dependent.
	if f.Packets[1].depClass() != DepDependent {
		t.Fatal("SYN+ACK must be dependent")
	}
	// ACK from client after SYN+ACK: dependent.
	if f.Packets[2].depClass() != DepDependent {
		t.Fatal("handshake ACK must be dependent")
	}
	// Request follows client's own ACK: not dependent.
	if f.Packets[3].depClass() != DepNotDependent {
		t.Fatal("request after own ACK must be not-dependent")
	}
	// First response packet: dependent; second: not dependent.
	if f.Packets[4].depClass() != DepDependent {
		t.Fatal("first response must be dependent")
	}
	if f.Packets[5].depClass() != DepNotDependent {
		t.Fatal("second response must be not-dependent")
	}
}

func TestVectorValues(t *testing.T) {
	packets := webConversation(pkt.Addr(10, 0, 0, 1), pkt.Addr(192, 168, 0, 80), 5000, 0, 50*time.Millisecond, 1)
	f := Assemble(packets)[0]
	v := f.Vector(DefaultWeights)
	// SYN not-dependent empty: 16+8+1 = 25.
	if v[0] != 25 {
		t.Fatalf("v[0] = %d, want 25", v[0])
	}
	// SYN+ACK dependent empty: 32+4+1 = 37.
	if v[1] != 37 {
		t.Fatalf("v[1] = %d, want 37", v[1])
	}
	// Request: ACK class, not dependent, small payload: 48+8+2 = 58.
	if v[3] != 58 {
		t.Fatalf("v[3] = %d, want 58", v[3])
	}
	// Response: ACK class, dependent, large: 48+4+3 = 55.
	if v[4] != 55 {
		t.Fatalf("v[4] = %d, want 55", v[4])
	}
}

func TestTwoInterleavedFlows(t *testing.T) {
	a := webConversation(pkt.Addr(10, 0, 0, 1), pkt.Addr(192, 168, 0, 80), 5000, 0, 40*time.Millisecond, 2)
	b := webConversation(pkt.Addr(10, 0, 0, 2), pkt.Addr(192, 168, 0, 80), 6000, 5*time.Millisecond, 60*time.Millisecond, 4)
	all := append(append([]pkt.Packet{}, a...), b...)
	// Interleave by sorting on time.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j].Timestamp < all[j-1].Timestamp; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	flows := Assemble(all)
	if len(flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(flows))
	}
	if flows[0].Len()+flows[1].Len() != len(all) {
		t.Fatal("packets lost in assembly")
	}
	// Flows ordered by first timestamp.
	if flows[0].FirstTimestamp() > flows[1].FirstTimestamp() {
		t.Fatal("flows out of order")
	}
}

func TestRSTFinalizes(t *testing.T) {
	client, server := pkt.Addr(10, 0, 0, 1), pkt.Addr(192, 168, 0, 80)
	packets := []pkt.Packet{
		{Timestamp: 0, SrcIP: client, DstIP: server, SrcPort: 5000, DstPort: 80, Proto: pkt.ProtoTCP, Flags: pkt.FlagSYN},
		{Timestamp: time.Millisecond, SrcIP: server, DstIP: client, SrcPort: 80, DstPort: 5000, Proto: pkt.ProtoTCP, Flags: pkt.FlagRST},
	}
	tbl := NewTable(nil)
	for i := range packets {
		tbl.Add(&packets[i])
	}
	if tbl.ActiveCount() != 0 {
		t.Fatal("RST must close the flow")
	}
	if len(tbl.Flows()) != 1 || !tbl.Flows()[0].Closed {
		t.Fatal("flow not finalized as closed")
	}
}

func TestFlushFinalizesOpenFlows(t *testing.T) {
	p := pkt.Packet{SrcIP: pkt.Addr(1, 2, 3, 4), DstIP: pkt.Addr(5, 6, 7, 8), SrcPort: 1234, DstPort: 80, Proto: pkt.ProtoTCP, Flags: pkt.FlagACK}
	tbl := NewTable(nil)
	tbl.Add(&p)
	if tbl.ActiveCount() != 1 {
		t.Fatal("flow should be active")
	}
	tbl.Flush()
	if tbl.ActiveCount() != 0 || len(tbl.Flows()) != 1 {
		t.Fatal("flush must finalize")
	}
	if tbl.Flows()[0].Closed {
		t.Fatal("flushed flow must not be marked Closed")
	}
}

// TestFlushOrderAnyOpenOrder: Flush emits by (first timestamp, Key.Hash())
// whatever order the flows opened in — the reference is a sort of exactly
// that pair — for opens that run forwards, backwards (every open walks the
// whole list back) and shuffled, µs-quantized so that timestamps repeat, and
// with one timestamp shared by the flows that sort 100th to 159th, a run
// across the 128-flow mark where the flush used to change algorithm. Collect
// mode takes unsorted input; a recycling consumer sees the same order while
// every emitted flow goes onto the free list through the link just read.
func TestFlushOrderAnyOpenOrder(t *testing.T) {
	type opened struct {
		first time.Duration
		hash  uint64
	}
	const flows = 300
	firsts := make([]time.Duration, flows)
	for i := range firsts {
		firsts[i] = time.Duration(min(i, 100)+max(i-159, 0)) * time.Millisecond
	}
	shuffled := slices.Clone(firsts)
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(flows, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	quantized := make([]time.Duration, flows)
	for i := range quantized {
		quantized[i] = time.Duration(rng.Intn(40)) * time.Microsecond
	}
	backwards := slices.Clone(firsts)
	slices.Reverse(backwards)
	for name, order := range map[string][]time.Duration{"sorted": firsts, "backwards": backwards, "shuffled": shuffled, "quantized": quantized} {
		for _, recycle := range []bool{false, true} {
			var got []opened
			var tbl *Table
			if recycle {
				tbl = NewTable(func(f *Flow) {
					got = append(got, opened{f.FirstTimestamp(), f.Key.Hash()})
					tbl.Recycle(f)
				})
			} else {
				tbl = NewTable(nil)
			}
			var want []opened
			for conv, ts := range order {
				p := dataPacket(conv, ts)
				tbl.Add(&p)
				want = append(want, opened{ts, p.Key().Hash()})
			}
			slices.SortFunc(want, func(a, b opened) int {
				return cmp.Or(cmp.Compare(a.first, b.first), cmp.Compare(a.hash, b.hash))
			})
			if tbl.ActiveCount() != flows {
				t.Fatalf("%s: %d flows open, want %d", name, tbl.ActiveCount(), flows)
			}
			tbl.Flush()
			for _, f := range tbl.Flows() {
				got = append(got, opened{f.FirstTimestamp(), f.Key.Hash()})
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s, recycle %v: %d flows flushed out of (first timestamp, hash) order", name, recycle, len(got))
			}
			checkLists(t, tbl, 0)
		}
	}
}

// checkLists walks the table's open list and its free list: the open list
// holds exactly the ActiveCount() flows in the table, ordered by first
// timestamp, with prev links that mirror the next links; no flow is on both;
// and together with the held flows — emitted, not yet recycled — they are
// every flow the table ever carved.
func checkLists(t *testing.T, tbl *Table, held int) {
	t.Helper()
	open := map[uint32]bool{}
	prev := uint32(0)
	for at := tbl.head; at != 0; at = tbl.active.flow(at - 1).next {
		fl := tbl.active.flow(at - 1)
		if open[at] || len(open) > tbl.ActiveCount() {
			t.Fatalf("the open list loops at flow %d", at-1)
		}
		if fl.prev != prev || (prev != 0 && tbl.active.flow(prev-1).first > fl.first) {
			t.Fatalf("open flow %d: prev link %d after flow %d, first timestamps %v", at-1, fl.prev, prev, fl.first)
		}
		if tbl.active.get(tbl.active.probeHash(fl.Key), fl.Key) != fl {
			t.Fatalf("flow %d is on the open list and not in the table", at-1)
		}
		open[at], prev = true, at
	}
	if tbl.tail != prev || len(open) != tbl.ActiveCount() {
		t.Fatalf("open list of %d flows ending at %d, tail %d, ActiveCount %d", len(open), prev, tbl.tail, tbl.ActiveCount())
	}
	free := 0
	for at := tbl.free; at != 0; at = tbl.active.flow(at - 1).next {
		if free++; open[at] || free > int(tbl.active.carved) {
			t.Fatalf("flow %d is on the free list and open, or the free list loops", at-1)
		}
	}
	if collected := len(tbl.Flows()); len(open)+free+held+collected != int(tbl.active.carved) {
		t.Fatalf("%d open + %d free + %d held + %d collected flows, %d carved", len(open), free, held, collected, tbl.active.carved)
	}
}

func TestStreamingCallback(t *testing.T) {
	var got []*Flow
	tbl := NewTable(func(f *Flow) { got = append(got, f) })
	packets := webConversation(pkt.Addr(10, 0, 0, 1), pkt.Addr(192, 168, 0, 80), 5000, 0, 10*time.Millisecond, 1)
	for i := range packets {
		tbl.Add(&packets[i])
	}
	// The conversation ends with FINs from both sides: the flow finalizes
	// exactly once, on the second FIN.
	if len(got) != 1 {
		t.Fatalf("callbacks = %d, want 1", len(got))
	}
	if got[0].Len() != len(packets) {
		t.Fatalf("flow captured %d packets, want %d", got[0].Len(), len(packets))
	}
	tbl.Flush()
	if len(got) != 1 {
		t.Fatalf("after flush callbacks = %d, want 1", len(got))
	}
	if len(tbl.Flows()) != 0 {
		t.Fatal("streaming table must not accumulate flows")
	}
}

func TestEstimateRTT(t *testing.T) {
	rtt := 80 * time.Millisecond
	packets := webConversation(pkt.Addr(10, 0, 0, 1), pkt.Addr(192, 168, 0, 80), 5000, 0, rtt, 3)
	f := Assemble(packets)[0]
	got := f.EstimateRTT()
	if got < rtt/2 || got > rtt*2 {
		t.Fatalf("RTT estimate %v, want ~%v", got, rtt)
	}
}

// flowOf builds a flow from plain records the way Table.Add packs them. A
// zero flag or dep class stands for ACK and not-dependent; the size class
// follows from the payload.
func flowOf(pk ...refPacket) *Flow {
	f := &Flow{}
	for i, p := range pk {
		if i == 0 {
			f.first, f.last = p.ts, p.ts
		}
		if p.flag == 0 {
			p.flag = FlagClassACK
		}
		if p.dep == 0 {
			p.dep = DepNotDependent
		}
		f.Packets = append(f.Packets, packInfo(p.ts-f.last, p.fromLo, p.flag, p.dep, SizeClass(p.payload)))
		f.last = p.ts
	}
	return f
}

func TestEstimateRTTNoDependent(t *testing.T) {
	f := flowOf(
		refPacket{ts: 0, dep: DepNotDependent},
		refPacket{ts: time.Millisecond, dep: DepNotDependent},
	)
	if f.EstimateRTT() != 0 {
		t.Fatal("no dependent packets must yield 0 RTT")
	}
}

func TestInterPacketTimes(t *testing.T) {
	f := flowOf(refPacket{ts: 0}, refPacket{ts: 10 * time.Millisecond}, refPacket{ts: 15 * time.Millisecond})
	gaps := f.InterPacketTimes()
	if len(gaps) != 2 || gaps[0] != 10*time.Millisecond || gaps[1] != 5*time.Millisecond {
		t.Fatalf("gaps = %v", gaps)
	}
	if (&Flow{}).InterPacketTimes() != nil {
		t.Fatal("empty flow must have nil gaps")
	}
}

func TestFlowBytes(t *testing.T) {
	p := pkt.Packet{Proto: pkt.ProtoTCP, Flags: pkt.FlagACK, SrcIP: 1, DstIP: 2, SrcPort: 1024, DstPort: 80, PayloadLen: 100}
	q := p
	q.Timestamp, q.PayloadLen = time.Millisecond, 0
	if got := MeasureLengths([]pkt.Packet{p, q}).TotalBytes; got != 2*40+100 {
		t.Fatalf("bytes = %d", got)
	}
}

func TestFirstTimestampEmpty(t *testing.T) {
	if (&Flow{}).FirstTimestamp() != 0 {
		t.Fatal("empty flow timestamp must be 0")
	}
}
