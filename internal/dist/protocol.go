package dist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"flowzip/internal/core"
	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/wire"
)

// Framed TCP protocol shared by the merge coordinator and the ingestion
// daemon: a synchronous exchange of framed messages over one connection per
// peer.
//
//	frame := type byte, uvarint payload length, payload
//
// Coordinator/worker exchange (the distributed batch pipeline):
//
//	worker → coordinator:  hello   (uvarint protocol version)
//	coordinator → worker:  assign  (uvarint shard index, count, partition
//	                                seed, then the serialized Options)
//	                       done    (no more work; hang up)
//	worker → coordinator:  result  (one EncodeShardState blob)
//	both directions:       fail    (uvarint shard index, error string) —
//	                       a worker reports a compression failure, a
//	                       coordinator reports a rejected result before
//	                       hanging up
//
// After hello, the coordinator answers each completed exchange with the
// next assign, so one worker may compress several shards; a worker that
// disconnects mid-assignment has its shard re-queued for the survivors.
//
// Session exchange (the flowzipd ingestion daemon, internal/server):
//
//	client → daemon:  hello   (uvarint protocol version)
//	client → daemon:  open    (tenant string, then the serialized Options)
//	daemon → client:  openok  (uvarint session id, uvarint credit window)
//	client → daemon:  packets (uvarint count, then the packet records)
//	daemon → client:  ack     (uvarint batch seq, uvarint cumulative
//	                  packets accepted) — sent only after the batch is
//	                  queued into the session's pipeline; acks are
//	                  cumulative, so ack(seq) covers every batch up to and
//	                  including seq
//	client → daemon:  close   (empty) — finish the stream cleanly
//	daemon → client:  closed  (session summary) — also sent unsolicited
//	                  when the daemon drains on shutdown, so a mid-stream
//	                  client learns its session was finalized early
//	daemon → client:  fail    (uvarint 0, error string) — quota exceeded,
//	                  invalid open, or a pipeline failure
//
// The data plane is pipelined: the daemon advertises a credit window in
// openok, and a client may keep up to that many packets frames in flight
// before it must block reading acks, so on a real link the throughput is
// bounded by bandwidth and compression speed, not batch_size/RTT. A window
// of 1 degenerates to the original stop-and-wait exchange. The durability
// contract is unchanged either way: a batch is acked only once it is inside
// the session's pipeline, so on disconnect or drain everything acked is
// flushed into archives and only unacked batches are lost.
//
// Version 2 widened the openok and ack payloads for the credit window; both
// ends of a session must speak the same version (the hello exchange rejects
// a mismatch before any data flows).
const protoVersion = 2

const (
	frameHello   = byte(1)
	frameAssign  = byte(2)
	frameResult  = byte(3)
	frameFail    = byte(4)
	frameDone    = byte(5)
	frameOpen    = byte(6)
	frameOpenOK  = byte(7)
	framePackets = byte(8)
	frameAck     = byte(9)
	frameClose   = byte(10)
	frameClosed  = byte(11)
)

// maxFramePayload bounds a result frame so a corrupt peer cannot drive an
// arbitrary allocation. Shard-state blobs dominate; 1 GiB is far above any
// realistic shard.
const maxFramePayload = 1 << 30

// maxControlPayload bounds every other frame — hello, assign, fail, done
// are all a few dozen bytes, so an unregistered peer (the hello read
// happens before any validation) can never make the coordinator allocate
// more than this.
const maxControlPayload = 1 << 12

// maxPacketsPayload bounds a packets frame: far above any sane batch (a
// 4096-packet batch encodes to well under 256 KiB) while keeping a corrupt
// capture client from driving an arbitrary allocation.
const maxPacketsPayload = 1 << 24

// frameName renders a frame type for error messages.
func frameName(t byte) string {
	switch t {
	case frameHello:
		return "hello"
	case frameAssign:
		return "assign"
	case frameResult:
		return "result"
	case frameFail:
		return "fail"
	case frameDone:
		return "done"
	case frameOpen:
		return "open"
	case frameOpenOK:
		return "openok"
	case framePackets:
		return "packets"
	case frameAck:
		return "ack"
	case frameClose:
		return "close"
	case frameClosed:
		return "closed"
	}
	return fmt.Sprintf("frame %#x", t)
}

// writeFrame sends one frame under a write deadline. Header and payload go
// out as one vectored write (net.Buffers → writev on TCP), so a frame costs
// one syscall and the payload bytes are never copied into a joined buffer.
func writeFrame(conn net.Conn, timeout time.Duration, typ byte, payload []byte) error {
	if err := conn.SetWriteDeadline(deadline(timeout)); err != nil {
		return err
	}
	var scratch [1 + binary.MaxVarintLen64]byte
	hdr := binary.AppendUvarint(append(scratch[:0], typ), uint64(len(payload)))
	if len(payload) == 0 {
		if _, err := conn.Write(hdr); err != nil {
			return fmt.Errorf("dist: send %s: %w", frameName(typ), err)
		}
		return nil
	}
	bufs := net.Buffers{hdr, payload}
	if _, err := bufs.WriteTo(conn); err != nil {
		return fmt.Errorf("dist: send %s: %w", frameName(typ), err)
	}
	return nil
}

// maxPooledPayload caps the frame payload buffers the pool retains: packets
// frames (the hot path) stay well under it, while a 1 GiB shard-result blob
// is allocated fresh and released to the GC rather than pinned in the pool.
const maxPooledPayload = 1 << 20

// framePayload is a pooled frame payload. The bytes in b are owned by the
// reader until release() is called; every readFrame caller decodes (copying
// anything it keeps) and then releases, so one connection's frames reuse the
// same buffer instead of allocating per frame.
type framePayload struct {
	b []byte
}

var framePool = sync.Pool{New: func() any { return new(framePayload) }}

// acquirePayload draws a buffer of exactly size bytes, reusing pooled
// backing storage when it is large enough.
func acquirePayload(size uint64) *framePayload {
	fp := framePool.Get().(*framePayload)
	if uint64(cap(fp.b)) < size {
		c := uint64(4096)
		for c < size {
			c <<= 1
		}
		fp.b = make([]byte, c)
	}
	fp.b = fp.b[:size]
	return fp
}

// release returns the payload buffer to the pool. The caller must not touch
// fp.b afterwards.
func (fp *framePayload) release() {
	if fp == nil {
		return
	}
	if cap(fp.b) > maxPooledPayload {
		fp.b = nil
	}
	framePool.Put(fp)
}

// readFrame receives one frame under a read deadline, rejecting payloads
// over limit before allocating anything. The returned payload is pooled:
// the caller owns it until it calls release(), and must copy out anything
// that outlives the release. On error no payload is returned and nothing
// needs releasing. A payload too large to pool (only result frames are) is
// read through wire.ReadN, so its declared size reserves nothing the peer
// has not actually sent.
func readFrame(conn net.Conn, br *bufio.Reader, timeout time.Duration, limit uint64) (byte, *framePayload, error) {
	if err := conn.SetReadDeadline(deadline(timeout)); err != nil {
		return 0, nil, err
	}
	typ, err := br.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	size, err := wire.ReadUvarint(br)
	if err != nil {
		return 0, nil, fmt.Errorf("dist: %s length: %w", frameName(typ), err)
	}
	if size > limit {
		return 0, nil, fmt.Errorf("dist: %s payload %d exceeds limit %d", frameName(typ), size, limit)
	}
	if size > maxPooledPayload {
		b, err := wire.ReadN(br, size)
		if err != nil {
			return 0, nil, fmt.Errorf("dist: %s payload: %w", frameName(typ), err)
		}
		return typ, &framePayload{b: b}, nil
	}
	fp := acquirePayload(size)
	if _, err := io.ReadFull(br, fp.b); err != nil {
		fp.release()
		return 0, nil, fmt.Errorf("dist: %s payload: %w", frameName(typ), err)
	}
	return typ, fp, nil
}

// deadline converts a timeout to an absolute deadline; zero disables it.
func deadline(timeout time.Duration) time.Time {
	if timeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(timeout)
}

// assignment is the decoded payload of an assign frame.
type assignment struct {
	index int
	count int
	opts  core.Options
}

// errBadFrame is the sentinel under every frame payload decode error.
var errBadFrame = errors.New("dist: malformed frame")

// encodeHello builds a hello payload: the protocol version.
func encodeHello() []byte { return binary.AppendUvarint(nil, protoVersion) }

// checkHello rejects a hello payload that does not carry this build's
// protocol version.
func checkHello(payload []byte) error {
	c := wire.NewCursor(payload, errBadFrame)
	v, err := c.Uvarint("hello protocol version")
	if err != nil {
		return err
	}
	if v != protoVersion {
		return fmt.Errorf("dist: protocol version %d, want %d", v, protoVersion)
	}
	return nil
}

func encodeAssignment(a assignment) []byte {
	b := binary.AppendUvarint(nil, uint64(a.index))
	b = binary.AppendUvarint(b, uint64(a.count))
	b = binary.AppendUvarint(b, flow.PartitionSeed)
	return appendOptions(b, a.opts)
}

func decodeAssignment(payload []byte) (assignment, error) {
	c := wire.NewCursor(payload, errBadFrame)
	var a assignment
	idx, err := c.Uvarint("assign shard index")
	if err != nil {
		return a, err
	}
	cnt, err := c.Uvarint("assign shard count")
	if err != nil {
		return a, err
	}
	if cnt < 1 || cnt > flow.MaxShards || idx >= cnt {
		return a, fmt.Errorf("dist: assign shard %d of %d out of range", idx, cnt)
	}
	a.index, a.count = int(idx), int(cnt)
	seed, err := c.Uvarint("assign partition seed")
	if err != nil {
		return a, err
	}
	if seed != flow.PartitionSeed {
		return a, fmt.Errorf("dist: coordinator partitions with seed %d, this build uses %d", seed, flow.PartitionSeed)
	}
	if a.opts, err = decodeOptions(&c); err != nil {
		return a, fmt.Errorf("dist: assign options: %w", err)
	}
	return a, nil
}

// encodeFail builds a fail payload: the shard index and the worker's error.
func encodeFail(index int, msg string) []byte {
	return append(binary.AppendUvarint(nil, uint64(index)), msg...)
}

func decodeFail(payload []byte) (int, string, error) {
	c := wire.NewCursor(payload, errBadFrame)
	idx, err := c.UvarintMax("fail shard index", math.MaxInt32)
	if err != nil {
		return 0, "", err
	}
	msg, _ := c.Bytes("fail message", c.Len())
	return int(idx), string(msg), nil
}

// MaxTenantLen bounds a tenant name on the wire; names also may not contain
// path separators because they become archive directory names.
const MaxTenantLen = 64

// ValidTenant reports whether name is usable as a tenant identifier: it
// names the per-tenant archive directory, so it must be non-empty, bounded
// and free of path structure.
func ValidTenant(name string) error {
	if name == "" {
		return fmt.Errorf("dist: empty tenant name")
	}
	if len(name) > MaxTenantLen {
		return fmt.Errorf("dist: tenant name %d bytes long, max %d", len(name), MaxTenantLen)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("dist: tenant name %q may only contain [a-zA-Z0-9._-]", name)
		}
	}
	if name == "." || name == ".." {
		return fmt.Errorf("dist: tenant name %q is reserved", name)
	}
	return nil
}

// encodeOpen builds an open payload: the tenant name and the session's codec
// options (the capture point is the source of truth for its own codec, the
// daemon validates).
func encodeOpen(tenant string, opts core.Options) []byte {
	b := binary.AppendUvarint(nil, uint64(len(tenant)))
	return appendOptions(append(b, tenant...), opts)
}

func decodeOpen(payload []byte) (string, core.Options, error) {
	c := wire.NewCursor(payload, errBadFrame)
	n, err := c.UvarintMax("open tenant length", MaxTenantLen)
	if err != nil {
		return "", core.Options{}, err
	}
	name, err := c.Bytes("open tenant", int(n))
	if err != nil {
		return "", core.Options{}, err
	}
	tenant := string(name)
	if err := ValidTenant(tenant); err != nil {
		return "", core.Options{}, err
	}
	opts, err := decodeOptions(&c)
	if err != nil {
		return "", core.Options{}, fmt.Errorf("dist: open frame options: %w", err)
	}
	return tenant, opts, nil
}

// appendPacket serializes one packet record. Timestamps travel at full
// nanosecond precision — the byte-identity invariant extends to per-tenant
// archives, so the daemon must compress exactly the durations the capture
// point measured.
func appendPacket(dst []byte, p *pkt.Packet) []byte {
	for _, v := range [packetFields]uint64{
		uint64(p.Timestamp), uint64(p.SrcIP), uint64(p.DstIP), uint64(p.SrcPort), uint64(p.DstPort),
		uint64(p.Proto), uint64(p.Flags), uint64(p.Seq), uint64(p.Ack), uint64(p.Window),
		uint64(p.TTL), uint64(p.IPID), uint64(p.PayloadLen),
	} {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

// packetFields is the number of uvarints in a packet record, so also its
// minimum encoded size.
const packetFields = 13

// encodePacketsInto builds a packets payload from one source batch in
// scratch's backing array and returns it (a per-connection scratch on the hot
// path, so encoding a batch allocates nothing once the buffer has grown; the
// first batch reserves its minimum size at once rather than doubling up to it).
func encodePacketsInto(scratch []byte, batch []pkt.Packet) []byte {
	b := slices.Grow(scratch[:0], binary.MaxVarintLen64+len(batch)*packetFields)
	b = binary.AppendUvarint(b, uint64(len(batch)))
	for i := range batch {
		b = appendPacket(b, &batch[i])
	}
	return b
}

// maxPooledBatch caps the packet slabs the pool retains (64Ki packets, about
// 4 MB); a decode larger than that allocates fresh and is left to the GC.
const maxPooledBatch = 1 << 16

// batchPool recycles the packet slabs decodePackets fills. The consumer of a
// decoded batch (the daemon's session pipeline) owns the slab and hands it
// back with ReleaseBatch once the segment it fed has consumed it.
var batchPool = sync.Pool{New: func() any { return new([]pkt.Packet) }}

// acquireBatch draws a packet slab of exactly n records, reusing pooled
// backing storage when large enough. Every field of every record is
// overwritten by the decode, so stale pool contents never leak.
func acquireBatch(n int) []pkt.Packet {
	p := batchPool.Get().(*[]pkt.Packet)
	if cap(*p) < n {
		c := 1024
		for c < n {
			c <<= 1
		}
		*p = make([]pkt.Packet, c)
	}
	batch := (*p)[:n]
	*p = nil
	batchPool.Put(p)
	return batch
}

// ReleaseBatch recycles a batch returned by SessionConn.Next back into the
// packet-slab pool. Call it exactly once, after the batch (and any subslice
// of it) is no longer referenced — the ingestion daemon recycles each slab
// when its segment has drawn in the following batch, per the PacketSource
// contract that a returned slice is only valid until the next call.
func ReleaseBatch(batch []pkt.Packet) {
	if batch == nil || cap(batch) > maxPooledBatch {
		return
	}
	p := batchPool.Get().(*[]pkt.Packet)
	*p = batch[:0]
	batchPool.Put(p)
}

// decodePackets parses a packets payload into a pooled packet slab (see
// ReleaseBatch for the ownership rule). The payload itself is fully copied
// into the slab's fixed-width records, so the frame buffer is reusable the
// moment this returns.
func decodePackets(payload []byte) ([]pkt.Packet, error) {
	c := wire.NewCursor(payload, errBadFrame)
	n, err := c.Count("packets record count", maxCount, packetFields)
	if err != nil {
		return nil, err
	}
	batch := acquireBatch(n)
	for i := range batch {
		p := &batch[i]
		var raw [packetFields]uint64
		for j := range raw {
			if raw[j], err = c.Uvarint("packet field"); err != nil {
				ReleaseBatch(batch)
				return nil, fmt.Errorf("dist: packets frame record %d: %w", i, err)
			}
		}
		if raw[0] > math.MaxInt64 {
			ReleaseBatch(batch)
			return nil, fmt.Errorf("dist: packets frame record %d: timestamp overflows", i)
		}
		p.Timestamp = time.Duration(raw[0])
		p.SrcIP = pkt.IPv4(raw[1])
		p.DstIP = pkt.IPv4(raw[2])
		p.SrcPort = uint16(raw[3])
		p.DstPort = uint16(raw[4])
		p.Proto = uint8(raw[5])
		p.Flags = pkt.TCPFlags(raw[6])
		p.Seq = uint32(raw[7])
		p.Ack = uint32(raw[8])
		p.Window = uint16(raw[9])
		p.TTL = uint8(raw[10])
		p.IPID = uint16(raw[11])
		p.PayloadLen = uint16(raw[12])
	}
	if err := c.Done("packets frame"); err != nil {
		ReleaseBatch(batch)
		return nil, err
	}
	return batch, nil
}

// encodeAck builds an ack payload: the cumulative batch sequence number and
// the cumulative packet count accepted so far.
func encodeAck(scratch []byte, seq, packets uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(scratch[:0], seq), packets)
}

// decodeAck parses an ack payload. Acks are cumulative: seq covers every
// batch up to and including it.
func decodeAck(payload []byte) (seq, packets uint64, err error) {
	c := wire.NewCursor(payload, errBadFrame)
	if seq, err = c.UvarintMax("ack batch sequence", math.MaxInt64); err != nil {
		return 0, 0, err
	}
	if packets, err = c.UvarintMax("ack packet count", math.MaxInt64); err != nil {
		return 0, 0, err
	}
	if err := c.Done("ack frame"); err != nil {
		return 0, 0, err
	}
	return seq, packets, nil
}

// encodeOpenOK builds an openok payload: the session id and the credit
// window the daemon grants the session.
func encodeOpenOK(scratch []byte, id uint64, window int) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(scratch[:0], id), uint64(window))
}

// decodeOpenOK parses an openok payload. The window is clamped into
// [1, MaxWindow]: a daemon that advertises nonsense cannot make the client
// buffer unbounded in-flight state.
func decodeOpenOK(payload []byte) (id uint64, window int, err error) {
	c := wire.NewCursor(payload, errBadFrame)
	if id, err = c.Uvarint("openok session id"); err != nil {
		return 0, 0, err
	}
	w, err := c.Uvarint("openok credit window")
	if err != nil {
		return 0, 0, err
	}
	return id, int(min(max(w, 1), MaxWindow)), nil
}

// SessionSummary is the closed-frame payload: what one ingestion session
// produced. The daemon reports it on a clean close and, with Drained set,
// when graceful shutdown finalized the session early.
type SessionSummary struct {
	Packets      int64 // packets accepted into the session pipeline
	Flows        int64 // flows across all archives written
	Archives     int64 // rotated archive segments written
	ArchiveBytes int64 // encoded bytes across those segments
	Drained      bool  // daemon shut down before the client closed
}

func encodeSummary(s SessionSummary) []byte {
	var b []byte
	for _, v := range [...]int64{s.Packets, s.Flows, s.Archives, s.ArchiveBytes} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	drained := uint64(0)
	if s.Drained {
		drained = 1
	}
	return binary.AppendUvarint(b, drained)
}

func decodeSummary(payload []byte) (SessionSummary, error) {
	c := wire.NewCursor(payload, errBadFrame)
	var out SessionSummary
	for _, dst := range []*int64{&out.Packets, &out.Flows, &out.Archives, &out.ArchiveBytes} {
		v, err := c.UvarintMax("closed summary count", math.MaxInt64)
		if err != nil {
			return out, err
		}
		*dst = int64(v)
	}
	drained, err := c.Uvarint("closed drained flag")
	if err != nil {
		return out, err
	}
	out.Drained = drained != 0
	return out, nil
}
