// Package core implements the paper's contribution: the lossy packet-trace
// compressor based on TCP flow clustering (Sections 3 and 4).
//
// The compressor assembles bidirectional TCP flows, maps each to its
// characterization vector F_f (package flow), clusters short flows against a
// template store (package cluster) and emits four datasets:
//
//	short-flows-template — F vectors for flows of 2..ShortMax packets
//	long-flows-template  — F vectors plus inter-packet gaps for longer flows
//	address              — unique destination (server) IP addresses
//	time-seq             — per flow: first timestamp, S/L tag, template
//	                       index, RTT (short flows), address index
//
// Decompression regenerates a synthetic trace from the four datasets that
// preserves the statistical properties the paper validates: flag sequences,
// payload-size classes, acknowledgment-dependence timing and destination
// address locality.
//
// # One pipeline, one archive
//
// Compress is the reference implementation of the paper's algorithm: the
// serial Compressor over an in-memory trace. Everything else goes through
// NewPipeline, whose two methods differ only in the input they take:
//
//   - Pipeline.Compress pulls batches from a PacketSource. One driver loop
//     (scan) owns the pull: end of stream, empty batches, the
//     timestamp-order check and the global packet index.
//   - Pipeline.CompressTrace takes a materialized trace.
//
// PipelineConfig.Workers decides how the packets are scheduled, never what
// bytes come out. One worker is the serial Compressor run in the calling
// goroutine, on either input: nothing is partitioned, copied, queued or
// merged (Compress itself is that run over trace.Batches), and MaxResident
// has nothing to act on. Two or more workers shard by the 5-tuple hash
// (flow.Partition), compress shards independently and
// deterministically merge the results in serial finalize order: a stream
// is fed to the shard workers through bounded channels with backpressure, so
// captures larger than memory compress with resident packets capped by
// PipelineConfig.MaxResident, while a trace is bucketed by shard up front —
// the code selects on the input shape it was handed, and the bucketed body
// skips the per-packet copy and the channel.
//
// The equivalence rests on two facts: every flow is assembled by exactly one
// shard (hash partitioning covers both directions of a conversation), and
// the merge records the flows in the order the serial compressor would have
// finalized them — closing-packet global index, then the flush ordering —
// through the recorder the serial compressor records with: one record step,
// which matches each short flow against the template store as it is
// recorded. Template numbers, address numbers and the time-seq dataset
// therefore come out identical, whatever the worker count and input shape.
//
// The finish is ordered by construction. The time-seq dataset is the finalize
// sequence stably sorted by first timestamp, and that sequence is the
// FIN/RST-closed flows in close order, then the end-of-trace flush, which
// flow.Table emits in first-timestamp order off its open list. So one type,
// timeSeqBuilder, on the serial path and in the merge alike, keeps the
// closed records in fixed chunks, sorts them once when the flush begins, makes
// the dataset at its final size and writes every flushed record straight into
// its place behind the closed records that start no later.
//
// # One section codec, one column coder
//
// The four datasets (plus the header) have one byte layout, owned by
// sections.go: an append function and a decode function per section and per
// item. Archive.Encode writes through the append functions — the container is
// the five sections back to back — and Decode, Inspect and Reader read through
// the decode functions over a wire.Cursor, which checks every count and
// length against the bytes that remain before anything is sized from it and
// rejects values that overflow their field. What is written is container version 9:
// every template value and length, gap, timestamp delta, template tag, rtt
// and address symbol goes through the column coder of internal/wire
// (canonical Huffman over a column's values, or over their bit lengths with
// the low bits raw, by whichever is smaller on the column's own counts), with
// the tables in the header; short templates go in groups, a run each; a
// template's last two values are coded under two contexts of their own, where
// its length has already said the flow ends, every value before them under
// the one before it, and a gap under the class of the packet it leads to, one
// table per such context, and the
// address symbol 0 stands for the next address not seen yet, so a server is
// paid for once, in the address dataset. A long template's dependent gaps
// may be coded against the template's own RTT, which then leads its gap
// items, where counting says that makes the gap column smaller. Where a
// template value's context is so skewed that a bit a value is most of what
// Huffman spends, the f column
// takes rANS tables instead and its values go through an rANS state, a
// fraction of a bit each — when its counts say that makes its section
// smaller, tables and each run's flush included. Every choice of form is made
// by counting: Encode makes two passes over the archive's own slices — count,
// emit — writes each section once and buffers no column. The decoders
// read that layout alone: any other version is refused, naming the last
// commit that reads it; a format change deletes the version it replaces.
// The footer index (index.go) is filled in by the section writers as they
// append, so its offsets are recorded, not recomputed; its postings go
// through the same column coder.
package core
