package pcap

import (
	"fmt"
	"io"
	"os"

	"flowzip/internal/pkt"
)

// DefaultBatch is the packets-per-Next batch size Source uses when given a
// non-positive one; the value is shared by every streaming source.
const DefaultBatch = pkt.DefaultBatch

// Source reads a pcap stream in bounded batches — the PacketSource
// implementation for capture files. Memory stays at one batch of packets
// regardless of capture size, which is what lets the streaming compressor
// work through multi-gigabyte files. The block reads and the batching
// semantics (buffer reuse, deferred mid-batch errors, sticky EOF) are
// pkt.BatchReader's; this package supplies Decoder.
type Source struct {
	*pkt.BatchReader
	c io.Closer // closed by Close when the source owns the file
}

// NewSource returns a Source decoding up to batch packets per Next call
// (DefaultBatch when batch <= 0).
//
// Reading any capture to its end allocates at most 3 · 64 KiB + batch
// packets + 1 KiB: the block, the twice-as-large one a record past 64 KiB
// (the decoder refuses larger than 64 KiB of capture) grows it to, the batch,
// and the Source, its decoder and the error that ends a bad capture.
// FuzzPcapSource asserts it on every input.
func NewSource(r io.Reader, batch int) *Source {
	if batch <= 0 {
		batch = DefaultBatch
	}
	return &Source{BatchReader: pkt.NewBatchReader(r, &Decoder{}, batch)}
}

// Open opens a capture file for streaming reads. Close releases the file.
func Open(path string, batch int) (*Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pcap: %w", err)
	}
	s := NewSource(f, batch)
	s.c = f
	return s, nil
}

// Close releases the underlying file when the source was built with Open;
// it is a no-op for NewSource over a caller-owned reader.
func (s *Source) Close() error {
	if s.c == nil {
		return nil
	}
	return s.c.Close()
}
