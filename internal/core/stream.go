package core

import (
	"flowzip/internal/flow"
	"flowzip/internal/pkt"
)

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

// streamWindow bounds the packets resident in a streaming pipeline of two or
// more workers: the shard channels plus the chunks pending in the reader and
// in the workers' hands, 768 KiB of 48-byte packet records. The source's own
// current batch rides on top. The size is measured: at 1<<18 two workers cut
// 32 768-packet chunks of 1.5 MiB, 12 MiB a run, which a stream shorter than
// about 260 k packets never recycles. A 2-worker Pipeline.Compress of the
// 20 000-flow Web trace took 17.1 ms and 64 B/pkt at 1<<14 against 18.9 ms
// and 119 B/pkt at 1<<18, and the bulk trace of the allocation tests 4.2 ms
// and 20 B/pkt against 6.5 ms and 79 B/pkt (2-vCPU host, medians of 11
// rounds).
const streamWindow = 1 << 14

// chanDepth is the per-shard channel capacity in chunks. Two chunks queued
// plus one in flight per worker keeps slow shards from stalling the reader
// while bounding residency.
const chanDepth = 2

// A worker holds at most (chanDepth+2) chunks, so the pipeline cuts chunks of
// streamWindow / (workers × (chanDepth+2)) packets to stay within the window.
// At flow.MaxShards workers that is 16; the conversion below fails to compile
// if a window or depth change ever makes it less than one packet.
const _ = uint(streamWindow/(flow.MaxShards*(chanDepth+2)) - 1)

// idxPacket is one packet tagged with its global timestamp-order index, the
// currency of the reader→shard channels.
type idxPacket struct {
	idx int64
	p   pkt.Packet
}
