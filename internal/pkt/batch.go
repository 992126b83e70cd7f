package pkt

import "io"

// DefaultBatch is the packets-per-Next batch size the streaming sources
// share as their default: large enough to amortize per-call overhead, small
// enough that one batch is a fraction of a megabyte.
const DefaultBatch = 4096

// FileBuffer is the read-buffer size the file-backed sources put between the
// file and the record decoder. The decoders read a record in one or two
// small pieces (pcap: 16-byte header, then the body), so unbuffered each
// piece is a read system call; 64 KiB turns that into one call per thousand
// or so records.
const FileBuffer = 64 << 10

// RecordReader is the per-record decoding surface the on-disk trace formats
// share (tsh.Reader, pcap.Reader): decode one packet, io.EOF at a clean end
// of stream.
type RecordReader interface {
	ReadPacket(*Packet) error
}

// BatchReader adapts a RecordReader into bounded batch reads — the shape
// PacketSource implementations need. It owns the subtle parts once: the
// batch buffer is reused across Next calls, a decode error mid-batch is
// deferred so the packets already decoded are returned first, and both EOF
// and errors are sticky.
type BatchReader struct {
	r    RecordReader
	buf  []Packet
	done bool
	err  error // deferred mid-batch error, surfaced on the following Next
	n    int64
}

// NewBatchReader returns a BatchReader decoding up to batch packets per
// Next call. batch must be positive; callers normalize their own defaults.
func NewBatchReader(r RecordReader, batch int) *BatchReader {
	if batch < 1 {
		batch = 1
	}
	return &BatchReader{r: r, buf: make([]Packet, 0, batch)}
}

// Next decodes the next batch, returning io.EOF at a clean end of stream.
// The returned slice is only valid until the following call.
func (b *BatchReader) Next() ([]Packet, error) {
	if b.err != nil {
		err := b.err
		b.err = nil
		b.done = true
		return nil, err
	}
	if b.done {
		return nil, io.EOF
	}
	b.buf = b.buf[:0]
	for len(b.buf) < cap(b.buf) {
		var p Packet
		err := b.r.ReadPacket(&p)
		if err == io.EOF {
			b.done = true
			break
		}
		if err != nil {
			if len(b.buf) == 0 {
				b.done = true
				return nil, err
			}
			b.err = err
			break
		}
		b.buf = append(b.buf, p)
		b.n++
	}
	if len(b.buf) == 0 {
		return nil, io.EOF
	}
	return b.buf, nil
}

// Count returns the number of packets decoded so far.
func (b *BatchReader) Count() int64 { return b.n }
