// Package flowzip is a lossy packet-trace compressor based on TCP flow
// clustering, reproducing Holanda, Verdú, García and Valero, "Performance
// Analysis of a New Packet Trace Compressor based on TCP Flow Clustering"
// (ISPASS 2005).
//
// The compressor reduces TCP/IP header traces to a few percent of their
// original size by exploiting the similarity of Web flows: each flow maps
// to a small integer vector (TCP flag class, acknowledgment dependence and
// payload-size class per packet, weighted 16/4/1), similar vectors share a
// cluster template, and the compressed file stores four datasets —
// short-flow templates, long-flow templates, unique destination addresses
// and a per-flow time-seq index. Decompression regenerates a synthetic
// trace preserving the statistical properties that matter for
// memory-system studies of network code.
//
// # Quick start
//
//	tr := flowzip.GenerateWeb(flowzip.DefaultWebConfig())
//	archive, err := flowzip.Compress(tr, flowzip.DefaultOptions())
//	// ... persist with archive.Encode, inspect archive.Ratio() ...
//	back, err := flowzip.Decompress(archive)
//
// # The Pipeline
//
// Compress is the serial reference. Everything else is one entry point:
// New(opts, cfg) validates codec options and pipeline knobs once (strictly:
// an out-of-range worker count or window is an error, not a clamp) and
// returns a Pipeline whose CompressTrace method takes an in-memory trace and
// whose Compress method pulls any PacketSource. Config.Workers decides how
// the work is scheduled, never the bytes: every combination is byte-for-byte
// identical to serial Compress — same datasets, same template numbering,
// same Ratio.
//
// Workers: 1 is the serial Compressor run in the calling goroutine, on a
// trace and on a stream alike — nothing is partitioned, queued or merged,
// and Config.MaxResident is a no-op. Two or more
// workers partition packets by 5-tuple hash so every flow is assembled by
// exactly one shard, each shard runs an independent flow table, and a
// deterministic merge clusters the shards' flows, in serial order, into one
// archive. Workers: 0 is one worker per CPU:
//
//	p, err := flowzip.New(flowzip.DefaultOptions(), flowzip.Config{Workers: 4})
//	archive, err := p.CompressTrace(tr)
//
// Captures larger than memory compress through the PacketSource seam: with
// two or more workers Pipeline.Compress feeds the shard workers through
// bounded channels with backpressure, so resident packets stay bounded by
// Config.MaxResident rather than the capture size; Config.Progress reports
// the packet count as it goes:
//
//	src, err := flowzip.OpenPcap("capture.pcap")
//	defer src.Close()
//	archive, err := p.Compress(src)
//
// TraceSource streams an in-memory trace and OpenPcap a capture file.
//
// # The ingestion daemon
//
// flowzipd (NewDaemon, cmd/flowzipd) turns the streaming pipeline into a
// long-lived service: many concurrent capture clients stream packet batches
// over framed TCP, each session runs its own bounded pipeline, and archives
// land under one directory per tenant, rotated on size/age boundaries with a
// JSON sidecar (SegmentMeta) per segment. Backpressure reaches the capture
// point through the ack stream, quotas bound tenants, graceful shutdown
// drains in-flight sessions, and counters are served in Prometheus text
// format. Every segment is still byte-identical to a serial Compress over
// its packet range:
//
//	d, err := flowzip.NewDaemon(flowzip.DaemonConfig{ListenAddr: ":9100", Dir: "archives"})
//	sum, err := flowzip.Ingest(addr, "tenant-a", src, flowzip.DefaultOptions(), flowzip.NetConfig{})
//	err = d.Shutdown(ctx) // drain: finalize sessions, flush archives
//
// The subsystems behind the facade live in internal/ (see ARCHITECTURE.md
// for the map); the runnable examples and the cmd/ binaries show complete
// pipelines, including the paper's figure reproductions.
package flowzip
