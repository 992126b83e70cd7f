// Command flowzip compresses and decompresses packet traces with the
// flow-clustering codec, and compares the paper's baseline methods.
//
// Usage:
//
//	flowzip compress  -i web.tsh -o web.fz [-shortmax 50] [-limit 2] [-workers 8]
//	flowzip compress  -i big.pcap -o big.fz -stream [-maxresident N] [-progress]
//	flowzip compress  -i web.tsh -o web.fz -index [-index-group 256]
//	flowzip compress  -i web.tsh -o web.fz [-cpuprofile cpu.out] [-memprofile mem.out]
//	flowzip compress  -i web.tsh -o web.fz -trace-out web.trace.json
//	flowzip decompress -i web.fz -o back.tsh [-workers 4]
//	flowzip extract   -i web.fz -o sub.tsh -prefix 10.1.0.0/16 [-from 2s] [-to 10s]
//	flowzip inspect   -i web.fz [-explain]   (also reads .fzmeta sidecars)
//	flowzip compare   -i web.tsh
//	flowzip synth     -i web.fz -o new.tsh [-flows N] [-scale 2]
//	flowzip ingest    -connect host:9100 -tenant lab -i web.tsh
//
// Every compress mode is one core.Pipeline: -stream picks the input shape
// (Pipeline.Compress over the file read incrementally, otherwise
// Pipeline.CompressTrace over the loaded trace) and -workers the schedule: 0
// (the default) uses one shard per CPU, 1 runs the serial compressor in the
// calling goroutine — with or without -stream — and two or more shard by
// 5-tuple hash and merge deterministically. Every combination produces a
// byte-identical archive. -stream compresses a timestamp-sorted capture of
// any size in bounded memory, with -maxresident capping the packets queued
// between the reader and the shards. At -workers 1 there are no shards:
// -maxresident is accepted and does nothing, and only the source's current
// batch is resident.
//
// -index appends a seekable footer index (the header's indexed flag says it
// is there) mapping server-address prefixes and time ranges to flow groups.
// An indexed archive decodes everywhere an archive without one does, and
// additionally serves the extract verb:
// extract opens the archive without reading the flow body and decodes only
// the groups matching a server-address prefix and/or a time window, printing
// how many bytes it touched versus a full decode. decompress -workers splits
// the regeneration across CPUs; the output is byte-identical to -workers 1.
//
// -trace-out (compress, extract) records a Chrome trace-event JSON timeline
// of the run — partition, per-shard compression, finalize, merge and encode
// spans — loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// ingest streams a capture into a running flowzipd daemon (cmd/flowzipd):
// the daemon compresses the session server-side and rotates the archives
// under its tenant directory, while acks propagate its backpressure to this
// client. inspect also reads the daemon's .fzmeta segment sidecars, either
// directly or alongside the archive segment they annotate.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"flowzip/internal/baseline"
	"flowzip/internal/cli"
	"flowzip/internal/core"
	"flowzip/internal/flow"
	"flowzip/internal/obs"
	"flowzip/internal/pkt"
	"flowzip/internal/server"
	"flowzip/internal/stats"
	"flowzip/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("flowzip: ")
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "compress":
		runCompress(args)
	case "decompress":
		runDecompress(args)
	case "extract":
		runExtract(args)
	case "inspect":
		runInspect(args)
	case "compare":
		runCompare(args)
	case "synth":
		runSynth(args)
	case "ingest":
		runIngest(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: flowzip <command> [flags]

commands:
  compress    compress a trace (.tsh/.pcap) into a flowzip archive
  decompress  regenerate a synthetic trace from an archive
  extract     decode only the flows matching a prefix/time filter (indexed archives)
  inspect     print archive or .fzmeta statistics
  compare     run all baseline compressors on a trace
  synth       generate a new trace from an archive's traffic model
  ingest      stream a trace into a flowzipd daemon session (TCP)`)
	os.Exit(2)
}

// codecFlags registers the codec parameter flags shared by compress and
// ingest, returning a builder for the resulting Options.
func codecFlags(fs *flag.FlagSet) func() core.Options {
	shortMax := fs.Int("shortmax", 50, "largest short-flow packet count")
	limit := fs.Float64("limit", 2.0, "similarity threshold (% of max distance)")
	w1 := fs.Int("w1", 16, "flag-class weight")
	w2 := fs.Int("w2", 4, "dependence weight")
	w3 := fs.Int("w3", 1, "size-class weight")
	return func() core.Options {
		opts := core.DefaultOptions()
		opts.ShortMax = *shortMax
		opts.LimitPct = *limit
		opts.Weights = flow.Weights{Flag: *w1, Dep: *w2, Size: *w3}
		return opts
	}
}

// writeArchive encodes arch to path and prints the ratio summary line.
func writeArchive(path string, arch *core.Archive) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	sizes, err := arch.Encode(f)
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	ratio := float64(sizes.Total()) / float64(arch.SourceTSHBytes)
	fmt.Printf("%s: %d packets, %d flows -> %d bytes (ratio %.4f)\n",
		path, arch.SourcePackets, arch.Flows(), sizes.Total(), ratio)
}

func runIngest(args []string) {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	connect := fs.String("connect", "", "flowzipd daemon TCP address (host:port)")
	tenant := fs.String("tenant", "", "tenant the session's archives land under")
	in := fs.String("i", "", "input trace (.tsh or .pcap)")
	opts := codecFlags(fs)
	buildNet := cli.NetFlags(fs, "daemon", "the daemon's cumulative ack")
	window := cli.WindowFlag(fs, "the ingest stream")
	fs.Parse(args)
	if *connect == "" {
		log.Fatal("ingest: -connect required")
	}
	if *tenant == "" {
		log.Fatal("ingest: -tenant required")
	}
	if *in == "" {
		log.Fatal("ingest: -i required")
	}
	nc := buildNet()
	if err := cli.ValidateNet(nc); err != nil {
		log.Fatal("ingest: ", err)
	}
	if err := cli.ValidateWindow(*window); err != nil {
		log.Fatal("ingest: ", err)
	}
	nc.Window = *window
	src, err := trace.OpenStream(*in, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer src.Close()
	sum, err := server.Ingest(*connect, *tenant, src, opts(), nc)
	if err != nil && !errors.Is(err, server.ErrSessionDrained) {
		log.Fatal(err)
	}
	state := "closed"
	if sum.Drained {
		state = "drained by daemon shutdown"
	}
	fmt.Printf("%s: session %s: %d packets, %d flows -> %d archives (%d bytes)\n",
		*tenant, state, sum.Packets, sum.Flows, sum.Archives, sum.ArchiveBytes)
}

func runSynth(args []string) {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	in := fs.String("i", "", "input archive")
	out := fs.String("o", "synth.tsh", "output trace (.tsh or .pcap)")
	flows := fs.Int("flows", 0, "flows to synthesize (0 = same as source)")
	scale := fs.Float64("scale", 1.0, "arrival-rate multiplier")
	seed := fs.Uint64("seed", 1, "random seed")
	fs.Parse(args)
	if *in == "" {
		log.Fatal("synth: -i required")
	}
	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	arch, err := core.Decode(f)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultSynthConfig(arch)
	cfg.Seed = *seed
	cfg.Scale = *scale
	if *flows > 0 {
		cfg.Flows = *flows
	}
	tr, err := core.Synthesize(arch, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.SaveFile(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %s\n", *out, tr.ComputeStats())
}

func runCompress(args []string) {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	in := fs.String("i", "", "input trace (.tsh or .pcap)")
	out := fs.String("o", "out.fz", "output archive")
	buildOpts := codecFlags(fs)
	workers := cli.WorkersFlag(fs, "compression shards")
	stream := fs.Bool("stream", false, "stream the input in bounded memory (requires timestamp-sorted input)")
	maxResident := cli.MaxResidentFlag(fs)
	progress := fs.Bool("progress", false, "streaming: report packet progress on stderr")
	index := fs.Bool("index", false, "append a seekable footer index (serves the extract verb)")
	indexGroup := fs.Int("index-group", 0, "records per index group (0 = default)")
	cpuProfile := cli.CPUProfileFlag(fs, "compression")
	memProfile := cli.MemProfileFlag(fs, "compression")
	traceOut := cli.TraceOutFlag(fs, "compression run")
	fs.Parse(args)
	if *in == "" {
		log.Fatal("compress: -i required")
	}
	if err := cli.ValidateWorkers(*workers); err != nil {
		log.Fatal("compress: ", err)
	}
	if err := cli.ValidateMaxResident(*maxResident); err != nil {
		log.Fatal("compress: ", err)
	}
	if *indexGroup != 0 && !*index {
		log.Fatal("compress: -index-group requires -index")
	}
	idxCfg := core.IndexConfig{Enabled: *index, GroupSize: *indexGroup}
	if err := idxCfg.Validate(); err != nil {
		log.Fatal("compress: ", err)
	}
	stopProfiles, err := cli.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal("compress: ", err)
	}

	var arch *core.Archive
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer("flowzip compress")
	}
	cfg := core.PipelineConfig{
		Workers:     *workers,
		MaxResident: *maxResident,
		Index:       idxCfg,
		Trace:       tracer,
	}
	if *stream && *progress {
		cfg.Progress = func(packets int64) {
			fmt.Fprintf(os.Stderr, "\rflowzip: compressed %d packets", packets)
		}
	}
	pipe, err := core.NewPipeline(buildOpts(), cfg)
	if err != nil {
		log.Fatal("compress: ", err)
	}
	if *stream {
		// The residency window only covers the pipeline; cap the source's
		// read batch too so a small -maxresident is honored end to end.
		batch := trace.DefaultBatch
		if *maxResident < batch {
			batch = *maxResident
		}
		src, err := trace.OpenStream(*in, batch)
		if err != nil {
			log.Fatal(err)
		}
		defer src.Close()
		arch, err = pipe.Compress(src)
		if *progress {
			fmt.Fprintln(os.Stderr)
		}
		if err != nil {
			log.Fatal(err)
		}
	} else {
		tr, err := trace.LoadFile(*in)
		if err != nil {
			log.Fatal(err)
		}
		if !tr.IsSorted() {
			tr.Sort()
		}
		arch, err = pipe.CompressTrace(tr)
		if err != nil {
			log.Fatal(err)
		}
	}
	// Profiles cover the compression itself, not the archive write.
	if err := stopProfiles(); err != nil {
		log.Fatal("compress: ", err)
	}
	esp := tracer.Span(0, "encode-archive")
	writeArchive(*out, arch)
	esp.End()
	if tracer != nil {
		if err := tracer.WriteFile(*traceOut); err != nil {
			log.Fatal("compress: -trace-out: ", err)
		}
		fmt.Fprintf(os.Stderr, "flowzip: trace written to %s\n", *traceOut)
	}
}

func runDecompress(args []string) {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	in := fs.String("i", "", "input archive")
	out := fs.String("o", "out.tsh", "output trace (.tsh or .pcap)")
	workers := cli.WorkersFlag(fs, "decompression workers")
	fs.Parse(args)
	if *in == "" {
		log.Fatal("decompress: -i required")
	}
	if err := cli.ValidateWorkers(*workers); err != nil {
		log.Fatal("decompress: ", err)
	}
	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	arch, err := core.Decode(f)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := core.DecompressParallel(arch, *workers)
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.SaveFile(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %s\n", *out, tr.ComputeStats())
}

// runExtract serves the selective read path: it opens an indexed (v2)
// archive without touching the flow body, decodes only the groups matching
// the prefix/time filter, and reports how much of the archive that took. The
// prefix selects by server address, the one the archive stores (inspect lists
// them); client addresses are drawn at random by every decode.
func runExtract(args []string) {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	in := fs.String("i", "", "input archive (must be indexed: compress -index)")
	out := fs.String("o", "extract.tsh", "output trace (.tsh or .pcap)")
	prefix := fs.String("prefix", "", "server-address prefix a.b.c.d[/len], as inspect lists them (empty = all addresses)")
	from := fs.Duration("from", 0, "start of the flow time window (offset into the trace)")
	to := fs.Duration("to", 0, "end of the flow time window (0 = open-ended)")
	traceOut := cli.TraceOutFlag(fs, "extract query")
	fs.Parse(args)
	if *in == "" {
		log.Fatal("extract: -i required")
	}
	filter := core.FlowFilter{From: *from, To: *to}
	if *prefix != "" {
		ip, plen, err := parsePrefix(*prefix)
		if err != nil {
			log.Fatal("extract: ", err)
		}
		filter.Prefix, filter.PrefixLen = ip, plen
	}
	if err := filter.Validate(); err != nil {
		log.Fatal("extract: ", err)
	}
	r, err := core.OpenReaderFile(*in)
	if err != nil {
		if errors.Is(err, core.ErrNoIndex) {
			log.Fatalf("extract: %s has no footer index; recompress it with flowzip compress -index", *in)
		}
		log.Fatal(err)
	}
	defer r.Close()
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer("flowzip extract")
		r.SetTracer(tracer)
	}
	tr, err := r.ExtractFlows(filter)
	if err != nil {
		log.Fatal(err)
	}
	if tracer != nil {
		if err := tracer.WriteFile(*traceOut); err != nil {
			log.Fatal("extract: -trace-out: ", err)
		}
		fmt.Fprintf(os.Stderr, "flowzip: trace written to %s\n", *traceOut)
	}
	if err := tr.SaveFile(*out); err != nil {
		log.Fatal(err)
	}
	st, is := r.Stats(), r.IndexStats()
	fmt.Printf("%s: %d flows, %d packets\n", *out, st.FlowsMatched, tr.Len())
	fmt.Printf("read %d of %d body bytes (%d of %d groups, %d templates); %d bytes fetched in total\n",
		st.BodyBytesRead, is.BodyBytes, st.GroupsDecoded, is.Groups, st.TemplatesLoaded, st.BytesRead)
}

// parsePrefix parses a.b.c.d or a.b.c.d/len into an address and prefix length.
func parsePrefix(s string) (pkt.IPv4, int, error) {
	ipStr, plen := s, 32
	if i := strings.IndexByte(s, '/'); i >= 0 {
		n, err := strconv.Atoi(s[i+1:])
		if err != nil || n < 0 || n > 32 {
			return 0, 0, fmt.Errorf("bad prefix length %q (want 0..32)", s[i+1:])
		}
		ipStr, plen = s[:i], n
	}
	var oct [4]int
	if n, err := fmt.Sscanf(ipStr, "%d.%d.%d.%d", &oct[0], &oct[1], &oct[2], &oct[3]); err != nil || n != 4 {
		return 0, 0, fmt.Errorf("bad address %q (want a.b.c.d)", ipStr)
	}
	var ip uint32
	for _, o := range oct {
		if o < 0 || o > 255 {
			return 0, 0, fmt.Errorf("bad address %q: octet %d out of range", ipStr, o)
		}
		ip = ip<<8 | uint32(o)
	}
	return pkt.IPv4(ip), plen, nil
}

func runInspect(args []string) {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("i", "", "input archive (.fz) or daemon sidecar (.fzmeta)")
	explain := fs.Bool("explain", false, "for an archive, also print where its bytes went: per section and per column, values, bytes as written, entropy under the column's contexts, coding, tables and table bytes")
	fs.Parse(args)
	if *in == "" {
		log.Fatal("inspect: -i required")
	}
	if strings.HasSuffix(*in, server.MetaSuffix) {
		inspectMeta(*in)
		return
	}
	b, err := os.ReadFile(*in)
	if err != nil {
		log.Fatal(err)
	}
	arch, info, err := core.Inspect(b)
	if err != nil {
		log.Fatal(err)
	}
	sizes := info.Sections
	t := &stats.Table{Title: "archive " + *in, Headers: []string{"field", "value"}}
	t.AddRowf("container version", info.Version)
	t.AddRowf("flows", arch.Flows())
	t.AddRowf("packets", arch.Packets())
	t.AddRowf("short templates", len(arch.ShortTemplates))
	t.AddRowf("long templates", len(arch.LongTemplates))
	t.AddRowf("addresses", len(arch.Addresses))
	t.AddRowf("server addresses", serverList(arch.Addresses, 4))
	t.AddRowf("weights", arch.Opts.Weights.String())
	t.AddRowf("short max", arch.Opts.ShortMax)
	t.AddRowf("limit %", arch.Opts.LimitPct)
	// The file as it is, not as Encode would write the archive it decodes
	// to: a version 1 or 2 file would be shown at a size it does not have.
	t.AddRowf("file bytes", len(b))
	t.AddRowf("header bytes", sizes.Header)
	t.AddRowf("short template bytes", sizes.ShortTemplates)
	t.AddRowf("long template bytes", sizes.LongTemplates)
	t.AddRowf("address bytes", sizes.Addresses)
	t.AddRowf("time-seq bytes", sizes.TimeSeq)
	t.AddRowf("footer index bytes", sizes.Index)
	t.AddRowf("source packets", arch.SourcePackets)
	t.AddRowf("source TSH bytes", arch.SourceTSHBytes)
	if arch.SourceTSHBytes > 0 {
		t.AddRowf("ratio", float64(len(b))/float64(arch.SourceTSHBytes))
	}
	// An indexed archive carries a footer the Reader serves selective queries
	// from; surface its shape when the container has one.
	if r, err := core.OpenReaderFile(*in); err == nil {
		is := r.IndexStats()
		t.AddRowf("index group size", is.GroupSize)
		t.AddRowf("index groups", is.Groups)
		t.AddRowf("index bytes", is.IndexBytes)
		t.AddRowf("indexed body bytes", is.BodyBytes)
		r.Close()
	}
	// A daemon segment carries a JSON sidecar attributing the archive to its
	// tenant and rotation sequence; fold it into the same table when present.
	if meta, err := server.ReadSegmentMeta(*in); err == nil {
		addMetaRows(t, meta)
	}
	t.Render(os.Stdout)
	if *explain {
		explainBytes(info, len(b))
	}
}

// explainBytes prints where a container's bytes went: every section's share
// of the file (the benchmark's core.bytes_frac.* figures), and under the
// entropy-coded sections every column with the bytes its values take as
// written against their entropy under the contexts they are coded in (in
// version 9 a template's last two values' are their places, any other
// template value's the value before it, a gap's the value it leads to; any
// other column's entropy, and every column's in the paper-era
// versions 1 and 2, is order-0) — the floor a better table could not go below
// without modelling more than that — and the number of tables it is coded
// with: none in versions 1 and 2, whose columns are raw bytes and uvarints.
// In version 9 the tag column's name says when the header flags the
// new-template symbols, its entropy then that of the symbols, and the gap
// column's when it flags RTT-coded gaps, its values then each long
// template's RTT and the residuals of its dependent gaps; the footer of
// an indexed archive has its columns — template offsets, group entries and
// postings — the postings first-group one named with the prediction the
// footer codes it from, its entropy that of the values as coded; and a
// section whose runs are rANS runs shows the bytes their state flushes take.
// A section's framing is what is left: counts, lengths, the footer's head and
// tables, and the padding that ends each body run — a byte's fraction in the
// footer, whose run is not padded.
func explainBytes(info *core.ContainerInfo, file int) {
	s := info.Sections
	t := &stats.Table{
		Title:   fmt.Sprintf("where the %d bytes went (container version %d)", file, info.Version),
		Headers: []string{"section", "column", "values", "bytes", "entropy bytes", "coding", "tables", "table bytes", "share"},
	}
	share := func(n int64) string { return fmt.Sprintf("%.4f", float64(n)/float64(file)) }
	tables := int64(0) // in the header; the footer's tables are its own
	for _, col := range info.Columns {
		if col.Section != "footer index" {
			tables += int64(col.TableBytes)
		}
	}
	t.AddRowf("header", "", "", s.Header, "", "", "", tables, share(s.Header))
	f := info.Flushes
	for _, sec := range []struct {
		name         string
		bytes, flush int64
	}{{"short templates", s.ShortTemplates, f.ShortTemplates}, {"long templates", s.LongTemplates, f.LongTemplates}, {"addresses", s.Addresses, 0}, {"time-seq", s.TimeSeq, f.TimeSeq}, {"footer index", s.Index, 0}} {
		t.AddRowf(sec.name, "", "", sec.bytes, "", "", "", "", share(sec.bytes))
		framing := sec.bytes
		for _, col := range info.Columns {
			if col.Section != sec.name {
				continue
			}
			written := int64(math.Ceil(col.Bits / 8))
			framing -= written
			t.AddRowf("", col.Name, col.Values, written, fmt.Sprintf("%.0f", col.EntropyBits/8), col.Mode, col.Tables, col.TableBytes, share(written))
		}
		if sec.flush != 0 {
			framing -= sec.flush
			t.AddRowf("", "rans flush", "", sec.flush, "", "", "", "", share(sec.flush))
		}
		if framing != sec.bytes {
			t.AddRowf("", "framing", "", framing, "", "", "", "", share(framing))
		}
	}
	t.Render(os.Stdout)
}

// serverList renders the first n server addresses of an archive, the values
// extract -prefix selects by.
func serverList(addrs []pkt.IPv4, n int) string {
	var b strings.Builder
	for i, ip := range addrs[:min(len(addrs), n)] {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(ip.String())
	}
	if more := len(addrs) - n; more > 0 {
		fmt.Fprintf(&b, " (+%d more)", more)
	}
	return b.String()
}

// inspectMeta prints a daemon segment sidecar given the .fzmeta path itself.
func inspectMeta(name string) {
	meta, err := server.ReadSegmentMeta(name)
	if err != nil {
		log.Fatal(err)
	}
	t := &stats.Table{Title: "daemon segment " + name, Headers: []string{"field", "value"}}
	addMetaRows(t, meta)
	t.Render(os.Stdout)
}

// addMetaRows appends the daemon-session attribution of one archive segment.
func addMetaRows(t *stats.Table, m *server.SegmentMeta) {
	t.AddRowf("tenant", m.Tenant)
	t.AddRowf("session", m.Session)
	t.AddRowf("segment seq", m.Seq)
	t.AddRowf("segment reason", m.Reason)
	t.AddRowf("segment packets", m.Packets)
	t.AddRowf("segment flows", m.Flows)
	t.AddRowf("segment bytes", m.Bytes)
	t.AddRowf("first timestamp", time.Unix(0, m.FirstTS).UTC().Format(time.RFC3339Nano))
	t.AddRowf("last timestamp", time.Unix(0, m.LastTS).UTC().Format(time.RFC3339Nano))
}

func runCompare(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	in := fs.String("i", "", "input trace")
	fs.Parse(args)
	if *in == "" {
		log.Fatal("compare: -i required")
	}
	tr, err := trace.LoadFile(*in)
	if err != nil {
		log.Fatal(err)
	}
	if !tr.IsSorted() {
		tr.Sort()
	}
	t := &stats.Table{Title: "compression comparison: " + *in, Headers: []string{"method", "bytes", "ratio"}}
	for _, m := range baseline.All() {
		sz, err := baseline.Size(m, tr)
		if err != nil {
			log.Fatalf("%s: %v", m.Name(), err)
		}
		ratio, err := baseline.Ratio(m, tr)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(m.Name(), fmt.Sprintf("%d", sz), fmt.Sprintf("%.4f", ratio))
	}
	t.Render(os.Stdout)
}
