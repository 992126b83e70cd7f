package flowzip

import (
	"io"

	"flowzip/internal/baseline"
	"flowzip/internal/core"
	"flowzip/internal/dist"
	"flowzip/internal/flow"
	"flowzip/internal/flowgen"
	"flowzip/internal/obs"
	"flowzip/internal/pcap"
	"flowzip/internal/pkt"
	"flowzip/internal/server"
	"flowzip/internal/trace"
)

// Re-exported core types. The aliases make the internal implementation
// importable through the public package.
type (
	// Trace is an in-memory packet trace.
	Trace = trace.Trace
	// Packet is one TCP/IP header record.
	Packet = pkt.Packet
	// Archive is a compressed trace (the paper's four datasets).
	Archive = core.Archive
	// Options tunes the codec: the weights, the short-flow bound and the
	// similarity limit, exactly what an archive's header records.
	Options = core.Options
	// Weights are the characterization-mapping weights (w1, w2, w3).
	Weights = flow.Weights
	// WebConfig parameterizes the synthetic Web-traffic generator.
	WebConfig = flowgen.WebConfig
	// FractalConfig parameterizes the fractal (LRU-stack) generator.
	FractalConfig = flowgen.FractalConfig
	// Method is a compression scheme under comparison (baselines).
	Method = baseline.Method
	// PacketSource is a pull-based packet stream — the input seam of
	// Pipeline.Compress. Implementations: TraceSource, OpenPcap,
	// NewDecompressor.
	PacketSource = core.PacketSource
	// Decompressor streams an archive's synthetic trace in timestamp order,
	// a batch at a time: the PacketSource every decode drains.
	Decompressor = core.Decompressor
	// PcapSource streams a pcap capture file in bounded batches.
	PcapSource = pcap.Source
	// Config is the pipeline configuration consumed by New: the footer
	// index, one metrics sink and one tracer, interpreted identically on
	// every input shape.
	Config = core.PipelineConfig
	// Pipeline is the compression entry point returned by New.
	Pipeline = core.Pipeline
	// NetConfig is the connection configuration both ends of a daemon
	// session take: frame timeout, result timeout and credit window.
	NetConfig = dist.NetConfig
	// SessionSummary is what one daemon ingestion session produced.
	SessionSummary = dist.SessionSummary
	// Daemon is flowzipd: the long-lived multi-tenant ingestion daemon.
	Daemon = server.Daemon
	// DaemonConfig parameterizes a Daemon (listener, archive root, quotas,
	// rotation, metrics endpoint).
	DaemonConfig = server.Config
	// Quotas bounds what daemon tenants may consume.
	Quotas = server.Quotas
	// Rotation cuts daemon sessions into archive segments.
	Rotation = server.Rotation
	// SegmentMeta is the JSON sidecar written next to each daemon archive
	// segment.
	SegmentMeta = server.SegmentMeta
	// IndexConfig selects the indexed archive container: the same body
	// plus a footer index enabling the OpenArchive read path.
	IndexConfig = core.IndexConfig
	// Reader is the indexed read path: it opens an indexed archive through
	// an io.ReaderAt without loading the body and serves selective decodes
	// (ExtractFlows).
	Reader = core.Reader
	// FlowFilter selects flows by server-address prefix and/or start-time
	// window for Reader.ExtractFlows.
	FlowFilter = core.FlowFilter
	// ReaderStats counts the bytes and sections a Reader actually read.
	ReaderStats = core.ReaderStats
	// IndexStats describes the footer index of an open archive.
	IndexStats = core.IndexStats
	// Registry holds named metric instruments and renders them in the
	// Prometheus text exposition format. A nil *Registry disables every
	// instrument it would have produced.
	Registry = obs.Registry
	// Tracer records spans and renders them as Chrome trace-event JSON,
	// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. A nil
	// *Tracer disables every span with one branch per call.
	Tracer = obs.Tracer
	// PipelineMetrics is the compression pipeline's metric set; attach it
	// through Config.Metrics and register it with NewPipelineMetrics.
	PipelineMetrics = core.PipelineMetrics
)

// ErrNoIndex reports an archive without a footer index opened through the
// indexed read path; decode it with DecodeArchive instead.
var ErrNoIndex = core.ErrNoIndex

// ErrBadIndex reports a corrupt or inconsistent archive footer index.
var ErrBadIndex = core.ErrBadIndex

// ErrSessionDrained reports that a daemon finalized an ingestion session
// early during graceful shutdown; everything acked was flushed to archives.
var ErrSessionDrained = server.ErrSessionDrained

// DefaultOptions returns the paper's codec parameters
// (weights 16/4/1, short flows up to 50 packets, 2% similarity threshold).
func DefaultOptions() Options { return core.DefaultOptions() }

// NewRegistry returns an empty metrics registry; render it with
// Registry.Render.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewTracer returns a tracer whose spans render as Chrome trace-event
// JSON under the given process name. Write the result with Tracer.Write
// or Tracer.WriteFile after the traced work completes.
func NewTracer(process string) *Tracer { return obs.NewTracer(process) }

// NewPipelineMetrics registers the compression pipeline's metric series
// on reg under the given prefix (e.g. "pipeline") and returns the set to
// attach through Config.Metrics. A nil registry returns nil, which
// disables every observation site at one branch per call.
func NewPipelineMetrics(reg *Registry, prefix string) *PipelineMetrics {
	return core.NewPipelineMetrics(reg, prefix)
}

// DefaultWebConfig returns a Web-traffic model calibrated to the paper's
// trace statistics.
func DefaultWebConfig() WebConfig { return flowgen.DefaultWebConfig() }

// DefaultFractalConfig returns the fracexp generator defaults.
func DefaultFractalConfig() FractalConfig { return flowgen.DefaultFractalConfig() }

// P2PConfig parameterizes the peer-to-peer generator (the paper's
// future-work workload).
type P2PConfig = flowgen.P2PConfig

// DefaultP2PConfig returns the P2P generator defaults.
func DefaultP2PConfig() P2PConfig { return flowgen.DefaultP2PConfig() }

// GenerateP2P produces a synthetic peer-to-peer header trace.
func GenerateP2P(cfg P2PConfig) *Trace { return flowgen.P2P(cfg) }

// SynthConfig parameterizes trace synthesis from an archive.
type SynthConfig = core.SynthConfig

// Synthesize generates a brand-new trace from an archive's traffic model —
// the paper's future-work "synthetic packet trace generator based on the
// described methodology".
func Synthesize(a *Archive, cfg SynthConfig) (*Trace, error) { return core.Synthesize(a, cfg) }

// GenerateWeb produces a synthetic Web header trace: its conversations
// interleaved in time order into one slice, made once at its final length.
func GenerateWeb(cfg WebConfig) *Trace { return flowgen.Web(cfg) }

// GenerateFractal produces the multiplicative-process/LRU-stack trace.
func GenerateFractal(cfg FractalConfig) *Trace { return flowgen.Fractal(cfg) }

// RandomizeAddresses derives the random-destination variant of a trace.
func RandomizeAddresses(tr *Trace, seed uint64) *Trace {
	return flowgen.RandomizeAddresses(tr, seed)
}

// New validates opts and cfg and returns the compression Pipeline — the one
// front door besides Compress. Pipeline.Compress pulls any PacketSource in
// bounded memory; TraceSource makes one of an in-memory trace. Below two Ps
// (GOMAXPROCS) a run is one stage: the calling goroutine runs the flow table
// and records each batch of flows as it fills; from two on, a flow-table
// stage and a record stage on two goroutines. Either produces an archive
// byte-for-byte identical to Compress over the same packets. New is strict: invalid
// options or a negative index group size are errors, never silent clamps;
// Config.Workers is deprecated and ignored.
func New(opts Options, cfg Config) (*Pipeline, error) { return core.NewPipeline(opts, cfg) }

// Compress runs the flow-clustering compressor over a timestamp-sorted
// trace in the calling goroutine, whatever GOMAXPROCS: a Pipeline's
// one-stage run, whose bytes every Pipeline run reproduces.
func Compress(tr *Trace, opts Options) (*Archive, error) { return core.Compress(tr, opts) }

// NewDaemon starts flowzipd: the long-lived ingestion daemon accepting many
// concurrent capture sessions, compressing each through its own bounded
// pipeline into per-tenant archive directories with rotation, quotas and a
// Prometheus metrics endpoint. End with Daemon.Shutdown (graceful drain) or
// Daemon.Close.
func NewDaemon(cfg DaemonConfig) (*Daemon, error) { return server.New(cfg) }

// Ingest streams every batch of src into a daemon session under tenant and
// returns the daemon's summary. A daemon draining mid-stream surfaces as
// ErrSessionDrained alongside the summary of what was flushed.
func Ingest(addr, tenant string, src PacketSource, opts Options, nc NetConfig) (SessionSummary, error) {
	return server.Ingest(addr, tenant, src, opts, nc)
}

// ReadSegmentMeta loads the JSON sidecar of a daemon archive segment; path
// may name the sidecar or the archive itself.
func ReadSegmentMeta(path string) (*SegmentMeta, error) { return server.ReadSegmentMeta(path) }

// OpenPcap opens a capture file as a bounded-memory PacketSource for
// Pipeline.Compress. Close the source when done.
func OpenPcap(path string) (*PcapSource, error) { return pcap.Open(path, 0) }

// TraceSource streams an in-memory trace in batches of the given size
// (<= 0 selects a default); the trace must not be mutated while in use.
func TraceSource(tr *Trace, batch int) PacketSource { return trace.Batches(tr, batch) }

// NewDecompressor returns a PacketSource over the synthetic trace of an
// archive: the packets Decompress returns, in batches, holding only the flows
// open at once.
func NewDecompressor(a *Archive) (*Decompressor, error) { return core.NewDecompressor(a) }

// Decompress regenerates a synthetic trace from an archive: a Decompressor
// drained into one Trace.
func Decompress(a *Archive) (*Trace, error) { return core.Decompress(a) }

// DecompressParallel regenerates the trace with workers concurrent decoders
// (0 means one per CPU, at most 256; a count outside that is refused),
// packet-for-packet identical to Decompress: the time-seq records are split
// into contiguous ranges balanced by packet count, each worker drains a
// Decompressor over its range, and a deterministic final merge reproduces
// the serial (timestamp, record) order exactly.
func DecompressParallel(a *Archive, workers int) (*Trace, error) {
	return core.DecompressParallel(a, workers)
}

// DecodeArchive parses a compressed archive from r.
func DecodeArchive(r io.Reader) (*Archive, error) { return core.Decode(r) }

// OpenArchive opens an indexed archive of the given size through src,
// reading only the header, address dataset and footer index — the flow body
// stays on storage until a query touches it. An archive without a footer
// returns ErrNoIndex; a corrupt footer returns ErrBadIndex.
func OpenArchive(src io.ReaderAt, size int64) (*Reader, error) {
	return core.OpenReader(src, size)
}

// OpenArchiveFile opens an indexed archive file; Reader.Close releases it.
func OpenArchiveFile(path string) (*Reader, error) { return core.OpenReaderFile(path) }

// LoadTrace reads a trace file (TSH or pcap, by extension).
func LoadTrace(path string) (*Trace, error) { return trace.LoadFile(path) }

// NewTrace returns an empty named trace.
func NewTrace(name string) *Trace { return trace.New(name) }

// Baselines returns the paper's comparison methods in Figure 1 order:
// Original, GZIP, VJ, Peuhkuri, Proposed.
func Baselines() []Method { return baseline.All() }

// BaselineRatio measures a method's compression ratio on a trace.
func BaselineRatio(m Method, tr *Trace) (float64, error) {
	_, r, err := baseline.Ratio(m, tr)
	return r, err
}
