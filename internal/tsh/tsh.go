// Package tsh reads and writes TSH (Time Sequenced Headers) trace files, the
// format of the NLANR traces the paper measures ("The measures were taken
// from a TSH header trace file").
//
// A TSH record is exactly 44 bytes:
//
//	bytes  0..3   timestamp seconds (big endian)
//	byte   4      interface number
//	bytes  5..7   timestamp microseconds (24 bits, big endian)
//	bytes  8..27  IPv4 header (20 bytes, no options)
//	bytes 28..43  first 16 bytes of the TCP header (checksum and urgent
//	              pointer are cut off)
//
// A capture with IP options keeps this layout (the options are cut), so the
// TCP fields are read at offset 28 whatever the header length field says.
//
// PutRecord and ParseRecord are the one marshal and parse of a record.
// Decoder is the format's half of the block codec in package pkt
// (pkt.BatchReader over it streams a file, pkt.ReadAll loads one); Writer
// collects records into a 64 KiB block, so Flush must follow the last
// WritePacket; Reader takes one record at a time.
package tsh

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"flowzip/internal/pkt"
)

// RecordLen is the fixed on-disk size of one TSH record.
const RecordLen = 44

// ErrShortRecord reports a truncated trailing record.
var ErrShortRecord = errors.New("tsh: truncated record")

// Writer streams packets to a TSH byte stream through a pkt.BlockWriter: a
// caller must call Flush after its last WritePacket.
type Writer struct {
	pkt.BlockWriter
}

// NewWriter returns a Writer emitting records with interface number 0.
func NewWriter(w io.Writer) *Writer { return &Writer{BlockWriter: pkt.NewBlockWriter(w)} }

// WritePacket appends one record.
func (w *Writer) WritePacket(p *pkt.Packet) error {
	dst, err := w.Next(RecordLen)
	if err != nil {
		return err
	}
	PutRecord(dst, p)
	return nil
}

// PutRecord encodes p as one record of interface 0 into dst, which must hold
// RecordLen bytes: the one record marshal, under Writer and the VJ baseline
// alike.
func PutRecord(dst []byte, p *pkt.Packet) {
	sec := uint32(p.Timestamp / time.Second)
	usec := uint32((p.Timestamp % time.Second) / time.Microsecond)
	binary.BigEndian.PutUint32(dst[0:4], sec)
	dst[4] = 0 // interface
	dst[5] = byte(usec >> 16)
	dst[6] = byte(usec >> 8)
	dst[7] = byte(usec)
	var hdr [pkt.HeaderBytes]byte
	p.MarshalHeaders(hdr[:]) // cannot fail: 40 bytes
	copy(dst[8:RecordLen], hdr[:RecordLen-8])
}

// ParseRecord decodes one record from src, which must hold RecordLen bytes:
// the one record parse, under Decoder and the VJ baseline alike. The
// TCP fields sit at offset 28 whatever the IP header length says (a TSH
// record has no room for IP options); the payload length is still net of
// the options the packet carried.
func ParseRecord(src []byte, p *pkt.Packet) error {
	sec := binary.BigEndian.Uint32(src[0:4])
	usec := uint32(src[5])<<16 | uint32(src[6])<<8 | uint32(src[7])
	p.Timestamp = time.Duration(sec)*time.Second + time.Duration(usec)*time.Microsecond
	return p.UnmarshalTSH(src[8:RecordLen])
}

// Decoder is the TSH block decoder (pkt.BlockDecoder). The zero value is
// ready.
type Decoder struct {
	n int64
}

// Decode implements pkt.BlockDecoder.
func (d *Decoder) Decode(block []byte, dst []pkt.Packet) (int, []pkt.Packet, error) {
	off := 0
	for ; len(dst) < cap(dst) && off+RecordLen <= len(block); off += RecordLen {
		n := len(dst)
		dst = dst[:n+1]
		if err := ParseRecord(block[off:off+RecordLen], &dst[n]); err != nil {
			return off, dst[:n], fmt.Errorf("tsh: record %d: %w", d.n, err)
		}
		d.n++
	}
	return off, dst, nil
}

// End implements pkt.BlockDecoder: ErrShortRecord if the stream ends
// mid-record.
func (d *Decoder) End(tail []byte) error {
	if len(tail) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %d bytes", ErrShortRecord, len(tail))
}

// Reader decodes a TSH byte stream one record at a time with ReadPacket: a
// pkt.BatchReader at a batch of one, so it reads ahead of the record it
// returns.
type Reader struct {
	*pkt.BatchReader
	d *Decoder
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	d := &Decoder{}
	return &Reader{pkt.NewBatchReader(r, d, 1), d}
}

// WriteAll writes a whole packet slice.
func WriteAll(w io.Writer, packets []pkt.Packet) error {
	tw := NewWriter(w)
	for i := range packets {
		if err := tw.WritePacket(&packets[i]); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// ReadAll decodes every record in the stream.
func ReadAll(r io.Reader) ([]pkt.Packet, error) { return pkt.ReadAll(r, &Decoder{}, 0) }

// Size returns the TSH file size in bytes for n packets.
func Size(n int) int64 { return int64(n) * RecordLen }
