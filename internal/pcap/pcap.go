package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"flowzip/internal/pkt"
)

const (
	// MagicMicroseconds is the standard little-endian pcap magic.
	MagicMicroseconds = 0xa1b2c3d4
	// LinkTypeRaw means packets start directly at the IP header.
	LinkTypeRaw = 101
	// GlobalHeaderLen and RecordHeaderLen are the fixed framing sizes.
	GlobalHeaderLen = 24
	RecordHeaderLen = 16
	// DefaultSnapLen mirrors a header-only capture.
	DefaultSnapLen = pkt.HeaderBytes
)

// ErrBadMagic reports a stream that is not a little-endian microsecond pcap.
var ErrBadMagic = errors.New("pcap: bad magic")

// recordLen is the size of the header-only records this package writes.
const recordLen = RecordHeaderLen + pkt.HeaderBytes

// maxIncl is the largest captured length accepted; maxWire is the largest
// wire length whose payload fits pkt.Packet's 16 bits, already 40 bytes past
// what an IPv4 datagram can have (WritePacket writes it for PayloadLen 65535).
const (
	maxIncl = 65536
	maxWire = pkt.HeaderBytes + 65535
)

// Writer emits a pcap stream through a pkt.BlockWriter: a streaming caller
// must call Flush after its last WritePacket.
type Writer struct {
	pkt.BlockWriter
}

// NewWriter returns a Writer. The global header leaves with the first block,
// so a capture with no packets still gets one from Flush.
func NewWriter(w io.Writer) *Writer {
	pw := &Writer{BlockWriter: pkt.NewBlockWriter(w)}
	h, _ := pw.Next(GlobalHeaderLen) // an empty block has the room
	binary.LittleEndian.PutUint32(h[0:4], MagicMicroseconds)
	binary.LittleEndian.PutUint16(h[4:6], 2) // version major
	binary.LittleEndian.PutUint16(h[6:8], 4) // version minor
	binary.LittleEndian.PutUint32(h[16:20], DefaultSnapLen)
	binary.LittleEndian.PutUint32(h[20:24], LinkTypeRaw)
	return pw
}

// WritePacket appends one record.
func (w *Writer) WritePacket(p *pkt.Packet) error {
	dst, err := w.Next(recordLen)
	if err != nil {
		return err
	}
	PutRecord(dst, p)
	return nil
}

// PutRecord encodes p as one header-only record into dst, which must hold
// RecordHeaderLen+pkt.HeaderBytes bytes: the one record marshal, under
// WritePacket and WriteAll alike.
func PutRecord(dst []byte, p *pkt.Packet) {
	sec := uint32(p.Timestamp / time.Second)
	usec := uint32((p.Timestamp % time.Second) / time.Microsecond)
	binary.LittleEndian.PutUint32(dst[0:4], sec)
	binary.LittleEndian.PutUint32(dst[4:8], usec)
	binary.LittleEndian.PutUint32(dst[8:12], pkt.HeaderBytes)
	binary.LittleEndian.PutUint32(dst[12:16], uint32(p.TotalLen()))
	p.MarshalHeaders(dst[RecordHeaderLen:recordLen]) // cannot fail: 40 bytes
}

// Decoder is the pcap block decoder (pkt.BlockDecoder) for streams produced
// by this package, or any raw-IP, little-endian microsecond pcap whose
// captured slices start at an IPv4 header. The zero value is ready.
type Decoder struct {
	started bool // global header checked
	n       int64
}

// Decode implements pkt.BlockDecoder.
func (d *Decoder) Decode(block []byte, dst []pkt.Packet) (int, []pkt.Packet, error) {
	off := 0
	if !d.started {
		if len(block) < GlobalHeaderLen {
			return 0, dst, nil
		}
		if binary.LittleEndian.Uint32(block[0:4]) != MagicMicroseconds {
			return 0, dst, ErrBadMagic
		}
		if lt := binary.LittleEndian.Uint32(block[20:24]); lt != LinkTypeRaw {
			return 0, dst, fmt.Errorf("pcap: unsupported link type %d (want %d)", lt, LinkTypeRaw)
		}
		d.started, off = true, GlobalHeaderLen
	}
	for len(dst) < cap(dst) {
		n := len(dst)
		dst = dst[:n+1]
		size, err := d.parseRecord(block[off:], &dst[n])
		if size == 0 {
			return off, dst[:n], err
		}
		off += size
	}
	return off, dst, nil
}

// End implements pkt.BlockDecoder.
func (d *Decoder) End(tail []byte) error {
	switch {
	case !d.started:
		return fmt.Errorf("pcap: read global header: %w", io.ErrUnexpectedEOF)
	case len(tail) == 0:
		return nil
	case len(tail) < RecordHeaderLen:
		return fmt.Errorf("pcap: truncated record header: %w", io.ErrUnexpectedEOF)
	}
	return fmt.Errorf("pcap: truncated record body: %w", io.ErrUnexpectedEOF)
}

// parseRecord decodes the record at the front of src into p and returns its
// size: 0 with no error when src ends inside the record, 0 and the error for
// a record it rejects.
func (d *Decoder) parseRecord(src []byte, p *pkt.Packet) (int, error) {
	if len(src) < RecordHeaderLen {
		return 0, nil
	}
	sec := binary.LittleEndian.Uint32(src[0:4])
	usec := binary.LittleEndian.Uint32(src[4:8])
	incl := binary.LittleEndian.Uint32(src[8:12])
	orig := binary.LittleEndian.Uint32(src[12:16])
	if incl > maxIncl {
		return 0, fmt.Errorf("pcap: record too large: %d bytes", incl)
	}
	size := RecordHeaderLen + int(incl)
	if len(src) < size {
		return 0, nil
	}
	if orig > maxWire {
		return 0, fmt.Errorf("pcap: record %d: wire length %d exceeds any IPv4 datagram", d.n, orig)
	}
	p.Timestamp = time.Duration(sec)*time.Second + time.Duration(usec)*time.Microsecond
	if err := p.UnmarshalHeaders(src[RecordHeaderLen:size]); err != nil {
		return 0, fmt.Errorf("pcap: record %d: %w", d.n, err)
	}
	// Header traces carry payload length via the original (wire) length.
	if orig >= pkt.HeaderBytes {
		p.PayloadLen = uint16(orig - pkt.HeaderBytes)
	}
	d.n++
	return size, nil
}

// Reader decodes a pcap stream one record at a time with ReadPacket: a
// pkt.BatchReader at a batch of one, so it reads ahead of the record it
// returns like Source does.
type Reader struct{ *pkt.BatchReader }

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{pkt.NewBatchReader(r, &Decoder{}, 1)} }

// WriteAll writes a whole packet slice as a capture file.
func WriteAll(w io.Writer, packets []pkt.Packet) error {
	pw := NewWriter(w)
	for i := range packets {
		if err := pw.WritePacket(&packets[i]); err != nil {
			return err
		}
	}
	return pw.Flush()
}

// ReadAll decodes every record.
func ReadAll(r io.Reader) ([]pkt.Packet, error) { return pkt.ReadAll(r, &Decoder{}, 0) }

// Size returns the pcap file size in bytes for n header-only packets.
func Size(n int) int64 { return GlobalHeaderLen + int64(n)*recordLen }
