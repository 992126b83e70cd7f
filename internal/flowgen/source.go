package flowgen

import (
	"io"
	"math"
	"time"

	"flowzip/internal/pkt"
	"flowzip/internal/trace"
)

// model is what the interleaver needs of a traffic model: conversations
// handed out one at a time, in the order they start, each appended to dst in
// its own time order.
type model interface {
	remaining() int
	peekStart() time.Duration
	generate(dst []pkt.Packet) []pkt.Packet
}

// conversation is one run of the merge: a generated conversation's packets
// and the position of the next one to emit.
type conversation struct {
	pkts []pkt.Packet
	next int
}

// interleaver merges a model's conversations into the one sequence a stable
// sort by timestamp of all of them, laid end to end in arrival order, would
// give. Each conversation is a sorted run and arrivals are monotone, so a
// conversation need only exist once the merge has reached its start: the
// heap holds the conversations open at the current time, and a finished
// one's packet backing goes to the next admitted.
type interleaver struct {
	m        model
	h        trace.RunHeap[conversation]
	free     [][]pkt.Packet
	admitted int
}

// quantizeTS rounds to the microsecond resolution of capture formats. Packet
// timestamps go through it as they are made and arrival times as the
// interleaver compares them with packets, so the two compare like with like.
func quantizeTS(d time.Duration) time.Duration {
	return d / time.Microsecond * time.Microsecond
}

// drained returns a model's whole trace: its conversations interleaved into
// a slice made once, with room for n packets.
func drained(name string, m model, n int) *trace.Trace {
	g := interleaver{m: m}
	return &trace.Trace{Name: name, Packets: g.appendPackets(make([]pkt.Packet, 0, n), math.MaxInt)}
}

// Stream is a generated trace as a packet source: fill appends the next
// packets to a buffer the next call reuses, so only the generator's state is
// held, never the trace.
type Stream struct {
	fill  func(dst []pkt.Packet, max int) []pkt.Packet
	batch []pkt.Packet
}

// newStream hands out fill's packets in batches of up to batch packets
// (trace.DefaultBatch when batch <= 0).
func newStream(fill func(dst []pkt.Packet, max int) []pkt.Packet, batch int) *Stream {
	if batch <= 0 {
		batch = trace.DefaultBatch
	}
	return &Stream{fill: fill, batch: make([]pkt.Packet, 0, batch)}
}

// WebSource streams Web(cfg), packet for packet, in batches of up to batch
// packets: the conversations interleaved a batch at a time, so only those
// open at once are held.
func WebSource(cfg WebConfig, batch int) *Stream {
	g := &interleaver{m: newWebModel(cfg)}
	return newStream(g.appendPackets, batch)
}

// Next returns the next batch, or io.EOF once the generator is spent.
func (s *Stream) Next() ([]pkt.Packet, error) {
	if s.batch = s.fill(s.batch[:0], cap(s.batch)); len(s.batch) == 0 {
		return nil, io.EOF
	}
	return s.batch, nil
}

// appendPackets appends the next packets in time order to out, until it
// holds max packets or the model is spent.
func (g *interleaver) appendPackets(out []pkt.Packet, max int) []pkt.Packet {
	for len(out) < max {
		// The heap's head is safe to emit only when no ungenerated
		// conversation can precede it. A conversation's first packet
		// carries its quantized start time and no later conversation starts
		// earlier, so admitting while the head is later than the next
		// arrival makes the head globally next; at equal timestamps the
		// head goes first, being of an earlier conversation (the tie key,
		// and the stable sort's order).
		for g.m.remaining() > 0 && (g.h.Len() == 0 || g.h.TopHead() > quantizeTS(g.m.peekStart())) {
			var buf []pkt.Packet
			if k := len(g.free) - 1; k >= 0 {
				buf, g.free = g.free[k], g.free[:k]
			}
			pkts := g.m.generate(buf)
			g.h.Push(pkts[0].Timestamp, g.admitted, conversation{pkts: pkts})
			g.admitted++
		}
		if g.h.Len() == 0 {
			return out
		}
		c := g.h.Top()
		out = append(out, c.pkts[c.next])
		if c.next++; c.next < len(c.pkts) {
			g.h.FixTop(c.pkts[c.next].Timestamp)
		} else {
			g.free = append(g.free, c.pkts[:0])
			g.h.PopTop()
		}
	}
	return out
}
