package core

import "flowzip/internal/trace"

// PacketSource is a pull-based stream of packets in timestamp order — the
// seam that lets the compressor run over inputs larger than memory. A source
// yields packets in batches; Pipeline.Compress never needs the whole input
// resident at once. It is trace.Source, which states the contract of Next,
// declared there for the packages core builds on.
//
// Implementations exist for in-memory traces (trace.Batches) and capture
// files (pcap.Open, trace.OpenStream).
type PacketSource = trace.Source
