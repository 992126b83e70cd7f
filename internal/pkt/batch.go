package pkt

import (
	"fmt"
	"io"
	"slices"
)

// DefaultBatch is the packets-per-Next batch size the streaming sources
// share as their default: large enough to amortize per-call overhead, small
// enough that one batch is a fraction of a megabyte.
const DefaultBatch = 4096

// FileBuffer is the size of the block the capture codec moves at a time:
// BatchReader fills one straight from its io.Reader and the format decodes
// every whole record in it in place; BlockWriter collects records into one
// and issues a single Write. 64 KiB is a thousand or more header records.
const FileBuffer = 64 << 10

// readAllHintMax caps the packets ReadAll allocates up front on a size hint:
// a sparse or misnamed file cannot demand its whole size before it decodes.
const readAllHintMax = 4 << 20

// BlockDecoder is what an on-disk trace format supplies (tsh.Decoder,
// pcap.Decoder): the parse of a block of bytes into packets.
type BlockDecoder interface {
	// Decode parses whole records from the front of block into dst's spare
	// capacity and returns the bytes consumed and dst extended by the
	// packets decoded. It stops when dst is full, at a record it must
	// reject (err, with the records before it consumed and returned), or
	// at a partial record, which it leaves for a call with more bytes; a
	// record too large for any block must be rejected, not waited for.
	Decode(block []byte, dst []Packet) (consumed int, out []Packet, err error)
	// End is called when the stream ends with tail undecoded and returns
	// the format's truncation error, or nil if it may end there.
	End(tail []byte) error
}

// BatchReader decodes a capture stream in bounded batches, the shape
// PacketSource implementations need. It owns the subtle parts once: the
// block is filled from the io.Reader with no buffer in between and a record
// split across two fills is slid to the front; the batch buffer is reused
// across Next calls; an error mid-batch is deferred so the packets already
// decoded are returned first; an error is reported once and EOF is sticky.
type BatchReader struct {
	r        io.Reader
	d        BlockDecoder
	block    []byte
	off, end int   // block[off:end] is read and not yet decoded
	rerr     error // what r ended with; io.EOF at a clean end
	buf      []Packet
	err      error // terminal state; surfaced once the packets before it are out
	n        int64
}

// NewBatchReader returns a BatchReader decoding up to batch packets per
// Next call. batch must be positive; callers normalize their own defaults.
func NewBatchReader(r io.Reader, d BlockDecoder, batch int) *BatchReader {
	if batch < 1 {
		batch = 1
	}
	return &BatchReader{r: r, d: d, block: make([]byte, FileBuffer), buf: make([]Packet, 0, batch)}
}

// Next decodes the next batch, returning io.EOF at a clean end of stream.
// The returned slice is only valid until the following call.
func (b *BatchReader) Next() ([]Packet, error) { return b.next(b.buf[:0]) }

// ReadPacket decodes the next packet into p, returning io.EOF at a clean end
// of stream: Next for a caller that takes the stream a packet at a time.
func (b *BatchReader) ReadPacket(p *Packet) error {
	out, err := b.next(b.buf[:0:1])
	if err == nil {
		*p = out[0]
	}
	return err
}

// next fills dst. What ended the stream waits in b.err until a call has no
// packets left to return, is returned by that call, and is io.EOF after it.
func (b *BatchReader) next(dst []Packet) ([]Packet, error) {
	out, err := b.decode(dst)
	if len(out) > 0 {
		return out, nil
	}
	b.err = io.EOF
	return nil, err
}

// decode appends packets to dst until it is at capacity or the stream has
// ended, and returns how it ended if it has.
func (b *BatchReader) decode(dst []Packet) ([]Packet, error) {
	for b.err == nil && len(dst) < cap(dst) {
		n, out, err := b.d.Decode(b.block[b.off:b.end], dst)
		b.off += n
		b.n += int64(len(out) - len(dst))
		dst = out
		switch {
		case err != nil:
			b.err = err
		case len(dst) == cap(dst):
		case b.rerr == io.EOF:
			if b.err = b.d.End(b.block[b.off:b.end]); b.err == nil {
				b.err = io.EOF
			}
		case b.rerr != nil:
			b.err = fmt.Errorf("pkt: read capture: %w", b.rerr)
		default:
			b.fill()
		}
	}
	return dst, b.err
}

// fill moves the partial record to the front of the block and reads behind
// it. A record larger than the block (the decoder bounds it) doubles it.
func (b *BatchReader) fill() {
	if b.off > 0 {
		b.end = copy(b.block, b.block[b.off:b.end])
		b.off = 0
	} else if b.end == len(b.block) {
		b.block = append(b.block, make([]byte, len(b.block))...)
	}
	n, err := b.r.Read(b.block[b.end:])
	b.end += n
	b.rerr = err
}

// Count returns the number of packets decoded so far.
func (b *BatchReader) Count() int64 { return b.n }

// BlockWriter is the write side: the format writers (tsh.Writer, pcap.Writer)
// encode records into a block of FileBuffer bytes that goes out in one Write
// when the next record does not fit. A caller must Flush after its last
// record, or the records still in the block are lost.
type BlockWriter struct {
	w     io.Writer
	block []byte // encoded and not yet written
}

// NewBlockWriter returns a BlockWriter with an empty block.
func NewBlockWriter(w io.Writer) BlockWriter {
	return BlockWriter{w: w, block: make([]byte, 0, FileBuffer)}
}

// Next returns the next n bytes of the block for the caller to encode a
// record into, writing the block out first if it has no room for them.
func (b *BlockWriter) Next(n int) ([]byte, error) {
	if len(b.block)+n > cap(b.block) {
		if err := b.Flush(); err != nil {
			return nil, err
		}
	}
	b.block = b.block[:len(b.block)+n]
	return b.block[len(b.block)-n:], nil
}

// Flush writes out what the block holds.
func (b *BlockWriter) Flush() error {
	_, err := b.w.Write(b.block)
	b.block = b.block[:0]
	if err != nil {
		return fmt.Errorf("pkt: write capture: %w", err)
	}
	return nil
}

// ReadAll decodes a whole stream into one slice. sizeHint is the number of
// packets the caller expects (0 when it cannot tell): an exact hint makes
// the slice in one allocation, a wrong one costs only regrowth.
func ReadAll(r io.Reader, d BlockDecoder, sizeHint int64) ([]Packet, error) {
	b := NewBatchReader(r, d, 1)
	// One spare slot lets an exact hint reach EOF without growing.
	out := make([]Packet, 0, max(0, min(sizeHint, readAllHintMax))+1)
	for {
		var err error
		if out, err = b.decode(out); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, err
		}
		out = slices.Grow(out, len(out)/2+DefaultBatch)
	}
}
