package pkt

import (
	"encoding/binary"
	"fmt"
)

// Wire-format marshalling for the 40-byte TCP/IP header pair. This is what
// the pcap writer emits and what the TSH format embeds (TSH truncates the
// TCP header to its first 16 bytes).

// IPHeaderLen and TCPHeaderLen are the fixed header sizes used (no options).
const (
	IPHeaderLen  = 20
	TCPHeaderLen = 20
)

// MarshalHeaders encodes the packet's IPv4 and TCP headers into dst, which
// must be at least HeaderBytes long. Both checksums are summed from the
// fields as they are stored, 16 bits at a time, and folded once; no byte is
// read back. Returns the number of bytes written (always HeaderBytes).
func (p *Packet) MarshalHeaders(dst []byte) (int, error) {
	if len(dst) < HeaderBytes {
		return 0, fmt.Errorf("pkt: marshal buffer too small: %d < %d", len(dst), HeaderBytes)
	}
	dst = dst[:HeaderBytes]
	totalLen := uint16(p.TotalLen())
	ttlProto := uint16(p.TTL)<<8 | uint16(p.Proto)
	src, dstIP := uint32(p.SrcIP), uint32(p.DstIP)
	addrs := src>>16 + src&0xffff + dstIP>>16 + dstIP&0xffff

	const verIHL, flagsDF = 0x4500, 0x4000 // version 4, IHL 5, DSCP 0; DF, no fragments
	binary.BigEndian.PutUint16(dst[0:2], verIHL)
	binary.BigEndian.PutUint16(dst[2:4], totalLen)
	binary.BigEndian.PutUint16(dst[4:6], p.IPID)
	binary.BigEndian.PutUint16(dst[6:8], flagsDF)
	binary.BigEndian.PutUint16(dst[8:10], ttlProto)
	binary.BigEndian.PutUint16(dst[10:12], onesComplement(
		verIHL+uint32(totalLen)+uint32(p.IPID)+flagsDF+uint32(ttlProto)+addrs))
	binary.BigEndian.PutUint32(dst[12:16], src)
	binary.BigEndian.PutUint32(dst[16:20], dstIP)

	// Header traces carry no payload bytes, so the payload contributes
	// nothing to the TCP checksum; its length still enters through the
	// pseudo-header (addresses, protocol, TCP length).
	offFlags := uint16(TCPHeaderLen/4)<<12 | uint16(p.Flags)
	tcpLen := uint16(TCPHeaderLen) + p.PayloadLen
	binary.BigEndian.PutUint16(dst[20:22], p.SrcPort)
	binary.BigEndian.PutUint16(dst[22:24], p.DstPort)
	binary.BigEndian.PutUint32(dst[24:28], p.Seq)
	binary.BigEndian.PutUint32(dst[28:32], p.Ack)
	binary.BigEndian.PutUint16(dst[32:34], offFlags)
	binary.BigEndian.PutUint16(dst[34:36], p.Window)
	binary.BigEndian.PutUint16(dst[36:38], onesComplement(
		addrs+uint32(p.Proto)+uint32(tcpLen)+uint32(p.SrcPort)+uint32(p.DstPort)+
			p.Seq>>16+p.Seq&0xffff+p.Ack>>16+p.Ack&0xffff+uint32(offFlags)+uint32(p.Window)))
	binary.BigEndian.PutUint16(dst[38:40], 0) // urgent
	return HeaderBytes, nil
}

// UnmarshalHeaders decodes IPv4+TCP headers from src into p. Timestamp is
// left untouched. The TCP header is found behind the IP header's IHL bytes;
// one cut to its first 16 bytes is accepted (checksum and urgent pointer
// missing), and a header that ends before that is an error.
func (p *Packet) UnmarshalHeaders(src []byte) error { return p.unmarshal(src, false) }

// UnmarshalTSH decodes the layout of a TSH record: the first 20 bytes of the
// IP header, then the first 16 bytes of the TCP header, with any IP options
// cut out between them. The IHL still counts toward the payload length.
func (p *Packet) UnmarshalTSH(src []byte) error { return p.unmarshal(src, true) }

func (p *Packet) unmarshal(src []byte, optionsCut bool) error {
	if len(src) < IPHeaderLen {
		return fmt.Errorf("pkt: short IP header: %d bytes", len(src))
	}
	ip := src[:IPHeaderLen]
	if v := ip[0] >> 4; v != 4 {
		return fmt.Errorf("pkt: unsupported IP version %d", v)
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < IPHeaderLen {
		return fmt.Errorf("pkt: bad IHL %d", ihl)
	}
	tcpOff := ihl
	if optionsCut {
		tcpOff = IPHeaderLen
	}
	if len(src) < tcpOff+16 {
		return fmt.Errorf("pkt: short TCP header: %d bytes with a %d-byte IP header", len(src), ihl)
	}
	rest := src[tcpOff : tcpOff+16]
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	p.IPID = binary.BigEndian.Uint16(ip[4:6])
	p.TTL = ip[8]
	p.Proto = ip[9]
	p.SrcIP = IPv4(binary.BigEndian.Uint32(ip[12:16]))
	p.DstIP = IPv4(binary.BigEndian.Uint32(ip[16:20]))
	p.SrcPort = binary.BigEndian.Uint16(rest[0:2])
	p.DstPort = binary.BigEndian.Uint16(rest[2:4])
	p.Seq = binary.BigEndian.Uint32(rest[4:8])
	p.Ack = binary.BigEndian.Uint32(rest[8:12])
	dataOff := int(rest[12]>>4) * 4
	if dataOff < TCPHeaderLen {
		dataOff = TCPHeaderLen
	}
	p.Flags = TCPFlags(rest[13])
	p.Window = binary.BigEndian.Uint16(rest[14:16])
	payload := totalLen - ihl - dataOff
	if payload < 0 {
		payload = 0
	}
	p.PayloadLen = uint16(payload)
	return nil
}

// checksumSum adds the 16-bit words of b, which has an even length, to sum.
func checksumSum(b []byte, sum uint32) uint32 {
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	return sum
}

func onesComplement(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// verifyIPChecksum reports whether the IP header checksum in hdr is valid.
func verifyIPChecksum(hdr []byte) bool {
	if len(hdr) < IPHeaderLen {
		return false
	}
	return onesComplement(checksumSum(hdr[:IPHeaderLen], 0)) == 0
}
