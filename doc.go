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
// Decompress holds the whole regenerated trace. NewDecompressor returns the
// same packets as a PacketSource, a batch at a time in timestamp order,
// holding only the flows open at once; every decode, Decompress included,
// drains one, and a Pipeline compresses one like any other source.
//
// # The Pipeline
//
// Compress runs in the calling goroutine. Everything else is one entry point:
// New(opts, cfg) validates codec options and pipeline settings once
// (strictly: an invalid option is an error, not a clamp) and returns a
// Pipeline whose Compress method pulls any PacketSource; TraceSource makes
// one of an in-memory trace. GOMAXPROCS decides how the work is
// scheduled, never the bytes: every run is byte-for-byte identical to
// Compress — same datasets, same template numbering, same Ratio.
//
// The calling goroutine feeds the packets through one flow table and
// characterizes each flow as it finalizes into a batch of flows, and the
// flows are clustered into the archive in the order the table finalized
// them, so nothing is sorted or merged. Below two Ps the calling goroutine
// clusters each batch itself as it fills; from two on one more goroutine
// does, while the table runs on. Config.Workers is deprecated and ignored:
//
//	p, err := flowzip.New(flowzip.DefaultOptions(), flowzip.Config{})
//	archive, err := p.Compress(flowzip.TraceSource(tr, 0))
//
// Captures larger than memory compress through the PacketSource seam:
// Pipeline.Compress holds the source's current batch of packets, and a
// fixed few batches of finalized flows between its two stages, rather than
// anything growing with the capture. Every entry point refuses packets out
// of timestamp order; sort an in-memory trace first (Trace.Sort):
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
