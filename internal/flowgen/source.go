package flowgen

import (
	"io"
	"time"

	"flowzip/internal/pkt"
	"flowzip/internal/trace"
)

// DefaultSourceBatch is the packets-per-Next batch size WebSource uses when
// given a non-positive one; the value is shared by every streaming source.
const DefaultSourceBatch = pkt.DefaultBatch

// WebSource generates the Web trace of a WebConfig as a bounded-memory
// packet stream: conversations are produced lazily in arrival order and
// interleaved by the run merge, so memory is proportional to the
// conversations overlapping in time, not to the trace length. Web(cfg) is
// this source drained into one slice.
type WebSource struct {
	g     interleaver
	batch int
	out   []pkt.Packet
}

// NewWebSource returns a streaming generator for cfg emitting up to batch
// packets per Next call (DefaultSourceBatch when batch <= 0).
func NewWebSource(cfg WebConfig, batch int) *WebSource {
	if batch <= 0 {
		batch = DefaultSourceBatch
	}
	return &WebSource{
		g:     interleaver{m: newWebModel(cfg)},
		batch: batch,
		out:   make([]pkt.Packet, 0, batch),
	}
}

// Next returns the next batch of packets in timestamp order, or io.EOF once
// the configured flow count is exhausted. The returned slice is reused by
// the following call.
func (s *WebSource) Next() ([]pkt.Packet, error) {
	s.out = s.g.appendPackets(s.out[:0], s.batch)
	if len(s.out) == 0 {
		return nil, io.EOF
	}
	return s.out, nil
}

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
	return &trace.Trace{Name: name, Packets: g.appendPackets(make([]pkt.Packet, 0, n), n)}
}

// appendPackets appends the next n packets in time order to out, or all that
// are left if fewer.
func (g *interleaver) appendPackets(out []pkt.Packet, n int) []pkt.Packet {
	for ; n > 0; n-- {
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
			break
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
