package core

import "flowzip/internal/pkt"

// PacketSource is a pull-based stream of packets in timestamp order — the
// seam that lets the compressor run over inputs larger than memory. A source
// yields packets in batches; Pipeline.Compress never needs the whole input
// resident at once.
//
// Implementations exist for in-memory traces (trace.Batches), capture files
// (pcap.Open, trace.OpenStream) and the synthetic generators
// (flowgen.NewWebSource).
type PacketSource interface {
	// Next returns the next batch of packets, which must be non-empty
	// unless the source chooses to return an empty batch to yield (both are
	// accepted). At end of stream Next returns io.EOF. The returned slice
	// is only valid until the following Next call, so sources may reuse
	// their batch buffer; any other error aborts the stream and packets
	// returned alongside it are discarded.
	Next() ([]pkt.Packet, error)
}

// DefaultMaxResident is the streaming pipeline's default bound on packets
// resident in the shard channels (about 14 MB of packet records).
const DefaultMaxResident = 1 << 18

// chanDepth is the per-shard channel capacity in chunks. Two chunks queued
// plus one in flight per worker keeps slow shards from stalling the reader
// while bounding residency.
const chanDepth = 2

// idxPacket is one packet tagged with its global timestamp-order index, the
// currency of the reader→shard channels.
type idxPacket struct {
	idx int64
	p   pkt.Packet
}
