// Package pkt defines the packet model used throughout flowzip: IPv4/TCP
// header structures, TCP flags, 5-tuples and the canonical (bidirectional)
// flow key, together with wire-format marshalling including checksums.
//
// Only the fields a header trace carries are modelled — there are no
// payloads, exactly as in the TSH traces the paper compresses.
package pkt

import (
	"fmt"
	"time"
)

// TCPFlags is the 8-bit TCP flag field.
type TCPFlags uint8

// TCP flag bits in wire order.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
	FlagECE
	FlagCWR
)

// Has reports whether all bits in mask are set.
func (f TCPFlags) Has(mask TCPFlags) bool { return f&mask == mask }

// String renders flags in the conventional "SYN|ACK" form.
func (f TCPFlags) String() string {
	if f == 0 {
		return "none"
	}
	names := []struct {
		bit  TCPFlags
		name string
	}{
		{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagFIN, "FIN"},
		{FlagRST, "RST"}, {FlagPSH, "PSH"}, {FlagURG, "URG"},
		{FlagECE, "ECE"}, {FlagCWR, "CWR"},
	}
	out := ""
	for _, n := range names {
		if f.Has(n.bit) {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	return out
}

// Protocol numbers used by the trace model.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// IPv4 is a 32-bit address. It orders numerically for canonicalization.
type IPv4 uint32

// String renders dotted-quad notation.
func (a IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Addr assembles an address from octets.
func Addr(a, b, c, d byte) IPv4 {
	return IPv4(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Packet is one trace record: timing plus the TCP/IP header fields a header
// trace preserves. Timestamp is an offset from the trace origin.
type Packet struct {
	Timestamp time.Duration

	SrcIP   IPv4
	DstIP   IPv4
	SrcPort uint16
	DstPort uint16
	Proto   uint8

	Flags  TCPFlags
	Seq    uint32
	Ack    uint32
	Window uint16

	TTL  uint8
	IPID uint16

	// PayloadLen is the TCP payload length in bytes. The full IP datagram
	// length is HeaderBytes + PayloadLen.
	PayloadLen uint16
}

// HeaderBytes is the canonical TCP/IP header size (20 IP + 20 TCP, no
// options) assumed by the paper when sizing traces.
const HeaderBytes = 40

// TotalLen returns the IP datagram length implied by the packet.
func (p *Packet) TotalLen() int { return HeaderBytes + int(p.PayloadLen) }

// FiveTuple identifies one direction of a conversation.
type FiveTuple struct {
	SrcIP   IPv4
	DstIP   IPv4
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// Tuple extracts the packet's 5-tuple.
func (p *Packet) Tuple() FiveTuple {
	return FiveTuple{p.SrcIP, p.DstIP, p.SrcPort, p.DstPort, p.Proto}
}

// Reverse returns the tuple of the opposite direction.
func (t FiveTuple) Reverse() FiveTuple {
	return FiveTuple{t.DstIP, t.SrcIP, t.DstPort, t.SrcPort, t.Proto}
}

// String renders "src:port > dst:port/proto".
func (t FiveTuple) String() string {
	return fmt.Sprintf("%s:%d > %s:%d/%d", t.SrcIP, t.SrcPort, t.DstIP, t.DstPort, t.Proto)
}

// FlowKey is the canonical bidirectional flow identity: both directions of a
// conversation map to the same key. The paper's flow characterization mixes
// packets from both endpoints (SYN and SYN+ACK appear in one F_f vector), so
// the flow table must be direction-agnostic.
type FlowKey struct {
	LoIP   IPv4
	HiIP   IPv4
	LoPort uint16
	HiPort uint16
	Proto  uint8
}

// canonicalKey is the single source of the Lo/Hi ordering rule: the endpoint
// with the smaller (IP, port) pair becomes the "Lo" side. Each endpoint packs
// into one uint64 (IP in the high bits, port below) so the lexicographic
// (IP, port) comparison becomes a single integer min/max — branchless, which
// matters because packet direction alternates and a compare-and-swap branch
// here is mispredicted roughly half the time.
func canonicalKey(srcIP, dstIP IPv4, srcPort, dstPort uint16, proto uint8) FlowKey {
	a := uint64(srcIP)<<16 | uint64(srcPort)
	b := uint64(dstIP)<<16 | uint64(dstPort)
	lo, hi := min(a, b), max(a, b)
	return FlowKey{IPv4(lo >> 16), IPv4(hi >> 16), uint16(lo), uint16(hi), proto}
}

// Canonical builds the FlowKey for a tuple. The endpoint with the smaller
// (IP, port) pair becomes the "Lo" side.
func (t FiveTuple) Canonical() FlowKey {
	return canonicalKey(t.SrcIP, t.DstIP, t.SrcPort, t.DstPort, t.Proto)
}

// Key returns the canonical flow key of the packet. It is equivalent to
// Tuple().Canonical() but builds the key directly from the header fields —
// this runs once per packet in the flow table, so the intermediate FiveTuple
// copy is worth skipping.
func (p *Packet) Key() FlowKey {
	return canonicalKey(p.SrcIP, p.DstIP, p.SrcPort, p.DstPort, p.Proto)
}

// FromLo reports whether the packet travels from the key's Lo endpoint to the
// Hi endpoint. Used to recover packet direction inside a canonical flow.
func (p *Packet) FromLo() bool {
	k := p.Key()
	return p.SrcIP == k.LoIP && p.SrcPort == k.LoPort
}

// KeyDir returns the canonical key together with the packet's direction
// relative to it (FromLo), sharing one packed comparison for both — the flow
// table needs the pair for every packet. The direction falls out of the same
// ordering: the source is the Lo endpoint exactly when its packed (IP, port)
// is <= the destination's.
func (p *Packet) KeyDir() (FlowKey, bool) {
	a := uint64(p.SrcIP)<<16 | uint64(p.SrcPort)
	b := uint64(p.DstIP)<<16 | uint64(p.DstPort)
	lo, hi := min(a, b), max(a, b)
	return FlowKey{IPv4(lo >> 16), IPv4(hi >> 16), uint16(lo), uint16(hi), p.Proto}, a <= b
}

// Hash implements the paper's node key: a hash of the 5-tuple fields. FNV-1a
// over the canonical key so both directions collide intentionally. The 13
// bytes are mixed little-endian-first in a flat loop — the sequence (and so
// the hash value, which feeds the flush tie-break ordering and hence the
// output format) is pinned; only the closure-free form is a hot-path choice.
func (k FlowKey) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	bytes := [13]byte{
		byte(k.LoIP), byte(k.LoIP >> 8), byte(k.LoIP >> 16), byte(k.LoIP >> 24),
		byte(k.HiIP), byte(k.HiIP >> 8), byte(k.HiIP >> 16), byte(k.HiIP >> 24),
		byte(k.LoPort), byte(k.LoPort >> 8),
		byte(k.HiPort), byte(k.HiPort >> 8),
		k.Proto,
	}
	h := uint64(offset)
	for _, b := range bytes {
		h = (h ^ uint64(b)) * prime
	}
	return h
}
