package core

import (
	"io"
	"math"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/stats"
	"flowzip/internal/trace"
	"flowzip/internal/wire"
)

// Decompressor regenerates an archive's synthetic trace (Section 4) a batch
// at a time, as a PacketSource.
//
// Per flow it decodes the template's f values back into flag, dependence and
// size classes. Direction alternation is the exact inverse of the
// compressor's dependence classification: the first packet travels
// client→server, a dependent packet flips direction, a non-dependent packet
// keeps it. Timing uses the flow RTT for dependent packets and a fixed short
// gap otherwise (short flows), or the stored gaps (long flows).
//
// As in the paper, source addresses are random class B or C, client ports
// are random in [1024, 65000], the server port is 80 and the destination is
// the stored server address.
//
// The settings of this model are the constants below, not Options: an archive
// records no model settings, so a decode depends on the archive's bytes alone.
//
// The open flows are the paper's time-sorted list: a trace.RunHeap of flow
// cursors keyed by (timestamp, time-seq record), which orders even a flood of
// flows sharing one timestamp. Packets leave it while they are earlier than
// the next flow's start, and then that flow is admitted ("nodes with time
// stamp less than the current value are written to the decompressed file"),
// so only the flows open at once are held. Every decode drains one.
type Decompressor struct {
	archive *Archive
	rng     *stats.RNG // draws each admitted record's identity
	// The flows to admit, in (start, record) order: time-seq records from
	// record number base on, or, when slab is not nil, the cursors of slab.
	recs     []TimeSeqRecord
	base     int
	slab     []flowCursor
	admitted int
	limit    time.Duration // the start of the next flow to admit
	heap     trace.RunHeap[*flowCursor]
	free     []*flowCursor // finished cursors, for the next records
	batch    []pkt.Packet
}

// The decompression model's fixed settings (Section 4).
const (
	// modelNonDepGap spaces consecutive non-dependent packets of a short
	// flow, and stands in for the RTT of a flow that recorded none.
	modelNonDepGap = 300 * time.Microsecond
	// modelSmallPayload and modelLargePayload are the representative payload
	// sizes regenerated for size classes 2 and 3.
	modelSmallPayload = 300
	modelLargePayload = 1024
	// modelSeed seeds the random client addresses and ports.
	modelSeed = 1
)

// The flags regenerated for each flag class, and the payload for each size
// class (Weights.Decompose keeps both classes in range).
var (
	modelFlags = [...]pkt.TCPFlags{flow.FlagClassSYN: pkt.FlagSYN, flow.FlagClassSYNACK: pkt.FlagSYN | pkt.FlagACK,
		flow.FlagClassACK: pkt.FlagACK, flow.FlagClassTeardown: pkt.FlagFIN | pkt.FlagACK}
	modelPayload = [...]int{flow.SizeClassSmall: modelSmallPayload, flow.SizeClassLarge: modelLargePayload}
)

// NewDecompressor returns a Decompressor over the archive's whole time-seq.
func NewDecompressor(a *Archive) (*Decompressor, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return rangeDecompressor(a, 0, len(a.TimeSeq)), nil
}

// rangeDecompressor returns a Decompressor over time-seq records [lo, hi) of
// a valid archive, its RNG fast-forwarded past the records in front of lo.
func rangeDecompressor(a *Archive, lo, hi int) *Decompressor {
	rng := stats.NewRNG(modelSeed)
	rngSkipRecords(rng, lo)
	return &Decompressor{archive: a, rng: rng, recs: a.TimeSeq[lo:hi], base: lo}
}

// randomClassBC draws a class B (128.0.0.0/2) or class C (192.0.0.0/3)
// source address, as the paper specifies.
func randomClassBC(rng *stats.RNG) pkt.IPv4 {
	if rng.Bool(0.5) {
		// Class B: 10xx... → 128..191 in the first octet.
		return pkt.IPv4(0x80000000 | (rng.Uint32() & 0x3fffffff))
	}
	// Class C: 110x... → 192..223 in the first octet.
	return pkt.IPv4(0xc0000000 | (rng.Uint32() & 0x1fffffff))
}

// flowIdentity is the random part of one flow's reconstruction: the client
// address and port. The decompressor draws exactly one identity per time-seq
// record, in record order, so any reader that skips records can fast-forward
// the RNG deterministically (see rngSkipRecords) and stay byte-identical to
// the serial decode.
type flowIdentity struct {
	client pkt.IPv4
	cport  uint16
}

// drawIdentity consumes exactly identityDraws RNG values: one for the
// class-B/C coin, one for the address bits, one for the port.
func drawIdentity(rng *stats.RNG) flowIdentity {
	return flowIdentity{
		client: randomClassBC(rng),
		cport:  uint16(rng.IntRange(1024, 65000)),
	}
}

// identityDraws is the number of RNG values drawIdentity consumes. It is the
// contract the selective and parallel readers rely on; a property test pins
// it against drawIdentity.
const identityDraws = 3

// rngSkipRecords advances rng past n records' worth of identity draws.
func rngSkipRecords(rng *stats.RNG, n int) {
	for i := 0; i < identityDraws*n; i++ {
		rng.Uint64()
	}
}

// flowCursor iterates one flow's packets lazily for the merge: the flow's
// reconstruction recipe, its clock and direction, and the packet it stands
// on. rec is the flow's global time-seq index; it breaks timestamp ties in
// the merge so the output order is the unique total order by (timestamp,
// record, packet) — the invariant that makes selective and parallel decodes
// exactly equal to (subsets of) the serial output.
type flowCursor struct {
	archive        *Archive
	f              flow.Vector
	gaps           []byte // long flows: the template's packed gaps; nil for short
	rtt, start     time.Duration
	client, server pkt.IPv4
	cport          uint16
	rec, idx       int
	gapOff         int // the byte of gaps the next gap starts at
	ts             time.Duration
	fromClient     bool
	cSeq, sSeq     uint32
	next           pkt.Packet
	done           bool
}

// open stands c on the first packet of rec, the recIdx-th time-seq record of
// a, with the client identity id.
func (c *flowCursor) open(a *Archive, rec *TimeSeqRecord, recIdx int, id flowIdentity) {
	*c = flowCursor{archive: a, rtt: rec.RTT, start: rec.FirstTS, client: id.client, server: a.Addresses[rec.Addr],
		cport: id.cport, rec: recIdx, ts: rec.FirstTS, fromClient: true}
	if rec.Long {
		t := &a.LongTemplates[rec.Template]
		c.f, c.gaps = t.F, t.Gaps
	} else {
		c.f = a.ShortTemplates[rec.Template]
	}
	if c.rtt <= 0 {
		c.rtt = modelNonDepGap
	}
	c.advance()
}

// advance computes the next packet (cursor starts before the first packet).
func (c *flowCursor) advance() {
	if c.idx >= len(c.f) {
		c.done = true
		return
	}
	flagClass, depClass, sizeClass := c.archive.Opts.Weights.Decompose(int(c.f[c.idx]))
	if c.idx > 0 {
		// Direction: dependent packets answer the peer.
		if depClass == flow.DepDependent {
			c.fromClient = !c.fromClient
		}
		// Clock: long flows replay measured gaps; short flows model
		// dependent packets as one RTT and others as the fixed gap.
		if c.gaps != nil {
			g, n := wire.UvarintAt(c.gaps, c.gapOff)
			c.ts += time.Duration(g) * time.Microsecond
			c.gapOff += n
		} else if depClass == flow.DepDependent {
			c.ts += c.rtt
		} else {
			c.ts += modelNonDepGap
		}
	}
	c.next = c.packet(flagClass, sizeClass)
	c.idx++
}

// packet materializes the cursor's next packet from its flag and size
// classes, at the cursor's clock and in its direction, and moves the sender's
// sequence number past it.
func (c *flowCursor) packet(flagClass, sizeClass int) pkt.Packet {
	flags, payload := modelFlags[flagClass], modelPayload[sizeClass]
	if payload > 0 {
		flags |= pkt.FlagPSH
	}

	p := pkt.Packet{
		Timestamp: c.ts, Proto: pkt.ProtoTCP, Flags: flags, Window: 65535, PayloadLen: uint16(payload),
		SrcIP: c.client, DstIP: c.server, SrcPort: c.cport, DstPort: 80, TTL: 64,
	}
	seq, ack := &c.cSeq, &c.sSeq
	if !c.fromClient {
		p.SrcIP, p.DstIP, p.SrcPort, p.DstPort, p.TTL = c.server, c.client, 80, c.cport, 128
		seq, ack = ack, seq
	}
	p.Seq, p.Ack = *seq, *ack
	*seq += uint32(payload)
	if flags&(pkt.FlagSYN|pkt.FlagFIN) != 0 {
		*seq++
	}
	return p
}

// Next returns the trace's next packets in timestamp order, in a buffer of
// pkt.DefaultBatch the next call reuses, or io.EOF once the last has been
// returned, and again after that.
func (d *Decompressor) Next() ([]pkt.Packet, error) {
	if d.batch == nil {
		d.batch = make([]pkt.Packet, 0, pkt.DefaultBatch)
	}
	if d.batch = d.fill(d.batch[:0], pkt.DefaultBatch); len(d.batch) == 0 {
		return nil, io.EOF
	}
	return d.batch, nil
}

// fill appends the decode's next packets to dst until it holds max or the
// decode is done, and returns it: the one merge loop. While the earliest
// packet on the heap is earlier than the next flow's start it leaves the heap;
// otherwise that flow is admitted.
func (d *Decompressor) fill(dst []pkt.Packet, max int) []pkt.Packet {
	for len(dst) < max {
		if d.heap.Len() > 0 && d.heap.TopHead() < d.limit {
			c := *d.heap.Top()
			dst = append(dst, c.next)
			if c.advance(); c.done {
				d.heap.PopTop()
				d.release(c)
			} else {
				d.heap.FixTop(c.next.Timestamp)
			}
		} else if d.admitted < len(d.recs)+len(d.slab) {
			d.admit()
		} else {
			break
		}
	}
	return dst
}

// admit puts the next flow's cursor on the heap and moves the limit to the
// start of the flow after it.
func (d *Decompressor) admit() {
	i := d.admitted
	var c *flowCursor
	if d.slab != nil {
		c = &d.slab[i]
	} else {
		if k := len(d.free) - 1; k >= 0 {
			c, d.free = d.free[k], d.free[:k]
		} else {
			c = new(flowCursor)
		}
		c.open(d.archive, &d.recs[i], d.base+i, drawIdentity(d.rng))
	}
	d.admitted++
	switch {
	case d.admitted == len(d.recs)+len(d.slab):
		d.limit = math.MaxInt64
	case d.slab != nil:
		d.limit = d.slab[d.admitted].start
	default:
		d.limit = d.recs[d.admitted].FirstTS
	}
	if c.done {
		d.release(c)
	} else {
		d.heap.Push(c.next.Timestamp, c.rec, c)
	}
}

// release takes back a finished cursor of recs for the next record, so a
// decode allocates as many cursors as flows are ever open at once, not one
// per flow. The cursors of a slab stay where they are.
func (d *Decompressor) release(c *flowCursor) {
	if d.slab == nil {
		d.free = append(d.free, c)
	}
}

// maxOutputReserve bounds, in packets (160 MiB of them), what a decode
// reserves for its output before the first packet exists. The packet count is
// summed over the decoded datasets, and a few bytes of time-seq records that
// all name one long template can make that sum anything; past the bound the
// output grows by append like any other slice.
const maxOutputReserve = 1 << 22

// newOutput returns an empty trace with room for the packets the decode is
// about to emit, so an honest archive's output is allocated once.
func newOutput(name string, packets int64) *trace.Trace {
	return &trace.Trace{Name: name, Packets: make([]pkt.Packet, 0, min(packets, maxOutputReserve))}
}

// drain decodes all that is left into one trace, made at the packet count of
// the flows to admit.
func (d *Decompressor) drain(name string) *trace.Trace {
	total := int64(0)
	for i := range d.recs {
		total += int64(d.archive.flowLen(&d.recs[i]))
	}
	for i := range d.slab {
		total += int64(len(d.slab[i].f))
	}
	tr := newOutput(name, total)
	tr.Packets = d.fill(tr.Packets, math.MaxInt)
	return tr
}

// Decompress regenerates the archive's whole synthetic trace in timestamp
// order: a Decompressor drained into one output slice.
func Decompress(a *Archive) (*trace.Trace, error) {
	d, err := NewDecompressor(a)
	if err != nil {
		return nil, err
	}
	return d.drain("decomp"), nil
}
