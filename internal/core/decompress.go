package core

import (
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/stats"
	"flowzip/internal/trace"
	"flowzip/internal/wire"
)

// decompressor regenerates a synthetic trace from an archive (Section 4).
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
type decompressor struct {
	archive *Archive
	rng     *stats.RNG
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

// newDecompressor wraps an archive for decoding.
func newDecompressor(a *Archive) (*decompressor, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &decompressor{archive: a, rng: stats.NewRNG(modelSeed)}, nil
}

// flowSpec is the reconstruction recipe for one flow.
type flowSpec struct {
	f      flow.Vector
	gaps   []byte // long flows: the template's packed gaps; nil for short
	rtt    time.Duration
	client pkt.IPv4
	server pkt.IPv4
	cport  uint16
	start  time.Duration
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

func (d *decompressor) spec(rec *TimeSeqRecord, id flowIdentity) flowSpec {
	s := flowSpec{
		rtt:    rec.RTT,
		server: d.archive.Addresses[rec.Addr],
		client: id.client,
		cport:  id.cport,
		start:  rec.FirstTS,
	}
	if rec.Long {
		t := &d.archive.LongTemplates[rec.Template]
		s.f = t.F
		s.gaps = t.Gaps
	} else {
		s.f = d.archive.ShortTemplates[rec.Template]
	}
	if s.rtt <= 0 {
		s.rtt = modelNonDepGap
	}
	return s
}

// buildPacket materializes packet i of a spec given the running direction
// state and clock.
func (d *decompressor) buildPacket(s *flowSpec, i int, fromClient bool, ts time.Duration, cSeq, sSeq *uint32) pkt.Packet {
	w := d.archive.Opts.Weights
	flagClass, _, sizeClass := w.Decompose(int(s.f[i]))

	var flags pkt.TCPFlags
	switch flagClass {
	case flow.FlagClassSYN:
		flags = pkt.FlagSYN
	case flow.FlagClassSYNACK:
		flags = pkt.FlagSYN | pkt.FlagACK
	case flow.FlagClassTeardown:
		flags = pkt.FlagFIN | pkt.FlagACK
	default:
		flags = pkt.FlagACK
	}
	payload := 0
	switch sizeClass {
	case flow.SizeClassSmall:
		payload = modelSmallPayload
	case flow.SizeClassLarge:
		payload = modelLargePayload
	}
	if payload > 0 {
		flags |= pkt.FlagPSH
	}

	p := pkt.Packet{
		Timestamp:  ts,
		Proto:      pkt.ProtoTCP,
		Flags:      flags,
		Window:     65535,
		PayloadLen: uint16(payload),
	}
	if fromClient {
		p.SrcIP, p.DstIP = s.client, s.server
		p.SrcPort, p.DstPort = s.cport, 80
		p.TTL = 64
		p.Seq, p.Ack = *cSeq, *sSeq
		*cSeq += uint32(payload)
		if flags&(pkt.FlagSYN|pkt.FlagFIN) != 0 {
			*cSeq++
		}
	} else {
		p.SrcIP, p.DstIP = s.server, s.client
		p.SrcPort, p.DstPort = 80, s.cport
		p.TTL = 128
		p.Seq, p.Ack = *sSeq, *cSeq
		*sSeq += uint32(payload)
		if flags&(pkt.FlagSYN|pkt.FlagFIN) != 0 {
			*sSeq++
		}
	}
	return p
}

// flowCursor iterates one flow's packets lazily for the merge. rec is the
// flow's global time-seq index; it breaks timestamp ties in the merge so the
// output order is the unique total order by (timestamp, record, packet) —
// the invariant that makes selective and parallel decodes exactly equal to
// (subsets of) the serial output.
type flowCursor struct {
	d          *decompressor
	spec       flowSpec
	rec        int
	idx        int
	gapOff     int // the byte of spec.gaps the next gap starts at
	ts         time.Duration
	fromClient bool
	cSeq, sSeq uint32
	next       pkt.Packet
	done       bool
}

// cursorPool hands out flow cursors and takes finished ones back, so a full
// decode allocates as many cursors as flows are ever open at once, not one
// per flow. Each merge has its own; the zero value is ready.
type cursorPool struct{ free []*flowCursor }

// open returns a cursor standing on the first packet of rec, the recIdx-th
// time-seq record.
func (p *cursorPool) open(d *decompressor, rec *TimeSeqRecord, recIdx int, id flowIdentity) *flowCursor {
	var c *flowCursor
	if k := len(p.free) - 1; k >= 0 {
		c, p.free = p.free[k], p.free[:k]
	} else {
		c = new(flowCursor)
	}
	*c = flowCursor{d: d, spec: d.spec(rec, id), rec: recIdx, ts: rec.FirstTS, fromClient: true}
	c.advance()
	return c
}

// done takes back a cursor the merge has finished with.
func (p *cursorPool) done(c *flowCursor) { p.free = append(p.free, c) }

// advance computes the next packet (cursor starts before the first packet).
func (c *flowCursor) advance() {
	if c.idx >= len(c.spec.f) {
		c.done = true
		return
	}
	w := c.d.archive.Opts.Weights
	_, depClass, _ := w.Decompose(int(c.spec.f[c.idx]))
	if c.idx > 0 {
		// Direction: dependent packets answer the peer.
		if depClass == flow.DepDependent {
			c.fromClient = !c.fromClient
		}
		// Clock: long flows replay measured gaps; short flows model
		// dependent packets as one RTT and others as the fixed gap.
		if c.spec.gaps != nil {
			g, n := wire.UvarintAt(c.spec.gaps, c.gapOff)
			c.ts += time.Duration(g) * time.Microsecond
			c.gapOff += n
		} else if depClass == flow.DepDependent {
			c.ts += c.spec.rtt
		} else {
			c.ts += modelNonDepGap
		}
	}
	c.next = c.d.buildPacket(&c.spec, c.idx, c.fromClient, c.ts, &c.cSeq, &c.sSeq)
	c.idx++
}

// mergeCursors merges the packets of n lazily-created flow cursors into
// emit in (timestamp, record) order: the decompression algorithm's sorted
// linked list, realized as trace.RunHeap over cursors with the record index
// as the tie key, which makes the order deterministic even for floods of
// flows sharing one timestamp. cursor(i) and startOf(i) describe the i-th
// flow of the merge, which must be ordered by (start, rec) — the order
// time-seq records appear in the archive. Flows overlap in time, so the
// merge is incremental: each cursor is admitted in turn and the heap drains
// up to the next flow's start time, keeping the output globally sorted (the
// paper's "nodes with time stamp less than the current value are written to
// the decompressed file") without holding every flow open at once. done is
// called with each cursor once its last packet is out.
func mergeCursors(n int, cursor func(i int) *flowCursor, startOf func(i int) time.Duration, emit func(pkt.Packet), done func(*flowCursor)) {
	var h trace.RunHeap[*flowCursor]
	for i := 0; i < n; i++ {
		if c := cursor(i); c.done {
			done(c)
		} else {
			h.Push(c.next.Timestamp, c.rec, c)
		}
		limit := time.Duration(1<<63 - 1)
		if i+1 < n {
			limit = startOf(i + 1)
		}
		for h.Len() > 0 && h.TopHead() < limit {
			c := *h.Top()
			emit(c.next)
			c.advance()
			if c.done {
				h.PopTop()
				done(c)
			} else {
				h.FixTop(c.next.Timestamp)
			}
		}
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

// decompress regenerates the full synthetic trace in timestamp order.
func (d *decompressor) decompress() *trace.Trace {
	recs := d.archive.TimeSeq
	total := int64(0)
	for i := range recs {
		total += int64(d.flowLen(&recs[i]))
	}
	tr := newOutput("decomp", total)
	var pool cursorPool
	mergeCursors(len(recs),
		func(i int) *flowCursor { return pool.open(d, &recs[i], i, drawIdentity(d.rng)) },
		func(i int) time.Duration { return recs[i].FirstTS },
		tr.Append, pool.done)
	return tr
}

// Decompress is the one-call convenience over an archive.
func Decompress(a *Archive) (*trace.Trace, error) {
	d, err := newDecompressor(a)
	if err != nil {
		return nil, err
	}
	return d.decompress(), nil
}
