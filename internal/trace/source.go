package trace

import (
	"fmt"
	"io"
	"os"

	"flowzip/internal/pkt"
)

// DefaultBatch is the batch size the streaming sources use when given a
// non-positive one; the value is shared by every streaming source.
const DefaultBatch = pkt.DefaultBatch

// BatchSource adapts an in-memory trace to the batch-oriented PacketSource
// shape the streaming compressor consumes: Next hands out consecutive
// windows of the packet slice without copying.
type BatchSource struct {
	packets []pkt.Packet
	batch   int
	off     int
}

// Batches returns a source that yields tr's packets in batches of the given
// size (DefaultBatch when batch <= 0). The trace must not be mutated while
// the source is in use.
func Batches(tr *Trace, batch int) *BatchSource {
	if batch <= 0 {
		batch = DefaultBatch
	}
	return &BatchSource{packets: tr.Packets, batch: batch}
}

// Next returns the next window of packets, or io.EOF once exhausted.
func (s *BatchSource) Next() ([]pkt.Packet, error) {
	if s.off >= len(s.packets) {
		return nil, io.EOF
	}
	hi := s.off + s.batch
	if hi > len(s.packets) {
		hi = len(s.packets)
	}
	out := s.packets[s.off:hi]
	s.off = hi
	return out, nil
}

// FileSource streams a trace file in bounded batches, choosing the decoder
// from the file extension like LoadFile does — but holding only one batch of
// packets in memory instead of the whole trace. The block reads and the
// batching semantics (buffer reuse, deferred mid-batch errors, sticky EOF)
// are pkt.BatchReader's.
type FileSource struct {
	*pkt.BatchReader
	f *os.File
}

// OpenStream opens path for streaming reads of up to batch packets per Next
// call (DefaultBatch when batch <= 0). The format is chosen from the
// extension (.pcap/.cap → pcap, anything else → TSH). Close releases the
// file.
func OpenStream(path string, batch int) (*FileSource, error) {
	if batch <= 0 {
		batch = DefaultBatch
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	d, _ := formatForPath(path).decoder(0)
	return &FileSource{BatchReader: pkt.NewBatchReader(f, d, batch), f: f}, nil
}

// Close releases the underlying file.
func (s *FileSource) Close() error { return s.f.Close() }
