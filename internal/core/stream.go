package core

import "flowzip/internal/pkt"

// PacketSource is a pull-based stream of packets in timestamp order — the
// seam that lets the compressor run over inputs larger than memory. A source
// yields packets in batches; Pipeline.Compress never needs the whole input
// resident at once.
//
// Implementations exist for in-memory traces (trace.Batches) and capture
// files (pcap.Open, trace.OpenStream).
type PacketSource interface {
	// Next returns the next batch of packets, which must be non-empty
	// unless the source chooses to return an empty batch to yield (both are
	// accepted). At end of stream Next returns io.EOF. The returned slice
	// is only valid until the following Next call, so sources may reuse
	// their batch buffer; any other error aborts the stream and packets
	// returned alongside it are discarded.
	Next() ([]pkt.Packet, error)
}
