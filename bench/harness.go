package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"flowzip"
	"flowzip/internal/netbench"
	"flowzip/internal/pcap"
	"flowzip/internal/pkt"
	"flowzip/internal/stats"
)

// Fixed parameters of the measured operations. They are constants because
// both sides of any comparison must do identical work.
const (
	pipelineWorkers = 2
	ingestBatch     = 512
	ingestWindow    = 32
	proxyRTT        = 5 * time.Millisecond
	queriesPerRound = 500 // at most; see buildReference
	sampledExtracts = 20
	warmupRounds    = 1
	tshRecordBytes  = 44 // the paper's ratio basis
)

// env is one set-up of a workload: the generated trace, its capture files,
// and the daemon plus delay proxy the ingest operations talk to. Client and
// daemon share this process; ingest traffic crosses the loopback interface.
type env struct {
	w       workload
	seed    uint64
	scale   float64
	tr      *flowzip.Trace
	dir     string
	pcap    string
	tsh     string
	fz      string
	daemon  *flowzip.Daemon
	proxy   *netbench.DelayProxy
	tenants int
}

// encodeCapture returns packets in a capture file format.
func encodeCapture(packets []pkt.Packet, writeAll func(io.Writer, []pkt.Packet) error) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(64 * len(packets)) // a pcap record is 56 bytes, a TSH record 44
	err := writeAll(&buf, packets)
	return buf.Bytes(), err
}

// setUp generates the workload from the seed, encodes it as a pcap capture,
// starts the daemon and the 5 ms delay proxy, and returns the seconds that
// took: one sample of setup_s. The clock stops before the capture is stored
// as in.pcap. A buffered write of bulk's 24 MB to a new file took 40-80 ms
// or, once the guest's page cache held some 75 MB of dirty data from this or
// an earlier run, 0.2-3.7 s: the host's disk, not the program, and enough to
// move the median of ten runs by 50%.
func setUp(w workload, seed uint64, scale float64, dir string) (*env, float64, error) {
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	e := &env{
		w: w, seed: seed, scale: scale, dir: dir,
		pcap: filepath.Join(dir, "in.pcap"),
		tsh:  filepath.Join(dir, "in.tsh"),
		fz:   filepath.Join(dir, "out.fz"),
	}
	e.tr = w.gen(seed, scale)
	if !e.tr.IsSorted() {
		return nil, 0, fmt.Errorf("%s: generated trace is not timestamp-sorted", w.name)
	}
	capture, err := encodeCapture(e.tr.Packets, pcap.WriteAll)
	if err != nil {
		return nil, 0, err
	}
	e.daemon, err = flowzip.NewDaemon(flowzip.DaemonConfig{
		Dir:     filepath.Join(dir, "archives"),
		Workers: pipelineWorkers,
		Net:     flowzip.NetConfig{Window: ingestWindow},
		// A third of the stream per segment puts rotation on the ingest path.
		Rotation: flowzip.Rotation{MaxPackets: int64(e.tr.Len()/3 + 1)},
	})
	if err != nil {
		return nil, 0, err
	}
	e.proxy, err = netbench.NewDelayProxy(e.daemon.Addr().String(), proxyRTT)
	if err != nil {
		e.stop()
		return nil, 0, err
	}
	seconds := time.Since(t0).Seconds()
	if err := os.WriteFile(e.pcap, capture, 0o644); err != nil {
		e.stop()
		return nil, 0, err
	}
	return e, seconds, nil
}

// stop ends the proxy and the daemon and waits for their goroutines.
func (e *env) stop() {
	if e.proxy != nil {
		e.proxy.Close()
	}
	if e.daemon != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		e.daemon.Shutdown(ctx)
		cancel()
	}
}

// close stops the set-up and removes its files.
func (e *env) close() {
	e.stop()
	os.RemoveAll(e.dir)
}

func (e *env) packets() int { return e.tr.Len() }

// setUpAgain sets the same workload up once more, next to e, tears it down
// and returns the seconds the set-up took. It is the first timed operation
// of every round, so setup_s has as many samples as any other metric, spread
// over the run like theirs: set-ups repeated back to back when the process
// starts all caught the same few seconds of the host, and their median moved
// by 30% between identical runs.
func (e *env) setUpAgain() (float64, error) {
	settle()
	again, seconds, err := setUp(e.w, e.seed, e.scale, e.dir+"-again")
	if err != nil {
		return 0, fmt.Errorf("set up again: %w", err)
	}
	defer again.close()
	if again.packets() != e.packets() {
		return 0, fmt.Errorf("set up again: %d packets, the first set-up made %d", again.packets(), e.packets())
	}
	return seconds, nil
}

// reference is the oracle the timed operations are checked against, built
// once per workload outside every timed region.
type reference struct {
	arch      *flowzip.Archive // serial archive of the input, index enabled
	fz        []byte           // arch encoded: every write path must reproduce these bytes
	flows     int              // flows in the input
	bodyBytes int64            // archive body size, the extract_read_frac denominator
	full      []pkt.Packet     // full decompression of fz
	perAddr   map[pkt.IPv4]int // packets per server address in full
	queries   []pkt.IPv4       // the point queries of one round, in order
	opens     int              // Reader opens per round
}

// serverOf returns the server address of a decompressed packet: the
// decompressor gives every server port 80 and every client a port >= 1024.
func serverOf(p *pkt.Packet) pkt.IPv4 {
	if p.SrcPort == 80 {
		return p.SrcIP
	}
	return p.DstIP
}

func buildReference(e *env, seed uint64) (*reference, error) {
	a, err := flowzip.Compress(e.tr, flowzip.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if err := e.w.shape(a); err != nil {
		return nil, err
	}
	a.Index = flowzip.IndexConfig{Enabled: true}
	var buf bytes.Buffer
	sizes, err := a.Encode(&buf)
	if err != nil {
		return nil, err
	}
	full, err := flowzip.Decompress(a)
	if err != nil {
		return nil, err
	}
	ref := &reference{
		arch:      a,
		fz:        buf.Bytes(),
		flows:     a.Flows(),
		bodyBytes: sizes.Total() - sizes.Index,
		full:      full.Packets,
		perAddr:   make(map[pkt.IPv4]int, len(a.Addresses)),
	}
	for i := range ref.full {
		ref.perAddr[serverOf(&ref.full[i])]++
	}
	// Opening costs grow with the address table; a small table opens in well
	// under a millisecond, so it is opened several times a round.
	ref.opens = max(1, min(16, 8000/len(a.Addresses)))
	// Point queries walk the address table from a seeded offset. A table no
	// longer than a round is walked a whole number of times, so every server
	// is asked equally often and extract_read_frac does not depend on where
	// the walk starts; a longer one is sampled with an even stride.
	// Independent draws from web's Zipf population moved extract_read_frac
	// by 10% from seed to seed.
	addrs := len(a.Addresses)
	queries, stride := queriesPerRound, addrs/queriesPerRound
	if addrs <= queriesPerRound {
		queries, stride = queriesPerRound/addrs*addrs, 1
	}
	offset := stats.NewRNG(seed).Intn(addrs)
	ref.queries = make([]pkt.IPv4, queries)
	for i := range ref.queries {
		ref.queries[i] = a.Addresses[(offset+i*stride)%addrs]
	}
	return ref, nil
}

// settle runs before every timed operation, outside the timed region. Two
// collections, not one: a sync.Pool survives one collection in its victim
// cache, and whether a pooled flow table happened to survive moved
// compress_alloc_b_per_pkt between 20 and 78 B/pkt on bulk. After two, every
// operation starts with empty pools, as a fresh process does.
func settle() {
	runtime.GC()
	runtime.GC()
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// compressFile is the file write path: capture file in, indexed archive
// synced to disk out. It returns wall and CPU seconds.
func (e *env) compressFile(ref *reference) (wall, cpu float64, err error) {
	settle()
	c0, t0 := cpuSeconds(), time.Now()
	err = func() error {
		src, err := flowzip.OpenPcap(e.pcap)
		if err != nil {
			return err
		}
		defer src.Close()
		p, err := flowzip.New(flowzip.DefaultOptions(), flowzip.Config{
			Workers: pipelineWorkers,
			Index:   flowzip.IndexConfig{Enabled: true},
		})
		if err != nil {
			return err
		}
		a, err := p.Compress(src)
		if err != nil {
			return err
		}
		f, err := os.Create(e.fz)
		if err != nil {
			return err
		}
		if _, err := a.Encode(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}()
	wall, cpu = time.Since(t0).Seconds(), cpuSeconds()-c0
	if err != nil {
		return 0, 0, fmt.Errorf("compress file: %w", err)
	}
	got, err := os.ReadFile(e.fz)
	if err != nil {
		return 0, 0, err
	}
	if !bytes.Equal(got, ref.fz) {
		return 0, 0, fmt.Errorf("compress file: %d-byte archive differs from the %d-byte serial archive", len(got), len(ref.fz))
	}
	return wall, cpu, nil
}

// compressSerial is the in-memory reference codec on one goroutine. It
// returns wall seconds and bytes allocated.
func (e *env) compressSerial(ref *reference) (wall, alloc float64, err error) {
	var m0, m1 runtime.MemStats
	settle()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	a, err := flowzip.Compress(e.tr, flowzip.DefaultOptions())
	wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return 0, 0, fmt.Errorf("compress serial: %w", err)
	}
	if a.Packets() != e.packets() || a.Flows() != ref.flows {
		return 0, 0, fmt.Errorf("compress serial: %d packets in %d flows, want %d in %d", a.Packets(), a.Flows(), e.packets(), ref.flows)
	}
	return wall, float64(m1.TotalAlloc - m0.TotalAlloc), nil
}

// ingest streams the trace through one daemon session at addr (dial, Send
// every batch under the credit window, Close) and returns wall seconds from
// dial to the closing summary.
func (e *env) ingest(addr string) (float64, error) {
	tenant := fmt.Sprintf("t%05d", e.tenants)
	e.tenants++
	settle()
	t0 := time.Now()
	sum, err := netbench.IngestTrace(addr, tenant, e.tr, ingestBatch, ingestWindow)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return 0, fmt.Errorf("ingest: %w", err)
	}
	return wall, e.checkSegments(tenant, sum)
}

// checkSegments verifies that the session summary and the decoded segments
// both account for every packet sent, then deletes the tenant's segments.
func (e *env) checkSegments(tenant string, sum flowzip.SessionSummary) error {
	dir := filepath.Join(e.dir, "archives", tenant)
	defer os.RemoveAll(dir)
	if sum.Packets != int64(e.packets()) || sum.Drained {
		return fmt.Errorf("ingest: summary %+v, want %d packets", sum, e.packets())
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.fz"))
	if err != nil {
		return err
	}
	if int64(len(segs)) != sum.Archives || len(segs) < 3 {
		return fmt.Errorf("ingest: %d segment files, summary says %d, rotation wants at least 3", len(segs), sum.Archives)
	}
	total := 0
	for _, seg := range segs {
		a, err := decodeFile(seg)
		if err != nil {
			return fmt.Errorf("ingest: segment %s: %w", filepath.Base(seg), err)
		}
		total += a.Packets()
	}
	if total != e.packets() {
		return fmt.Errorf("ingest: segments decode to %d packets, sent %d", total, e.packets())
	}
	return nil
}

func decodeFile(path string) (*flowzip.Archive, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return flowzip.DecodeArchive(f)
}

// decompress is the full read path: archive file in, synthetic trace out.
func (e *env) decompress(ref *reference) (float64, error) {
	settle()
	t0 := time.Now()
	a, err := decodeFile(e.fz)
	if err != nil {
		return 0, fmt.Errorf("decompress: %w", err)
	}
	tr, err := flowzip.Decompress(a)
	wall := time.Since(t0).Seconds()
	if err != nil {
		return 0, fmt.Errorf("decompress: %w", err)
	}
	if tr.Len() != e.packets() || a.Flows() != ref.flows {
		return 0, fmt.Errorf("decompress: %d packets in %d flows, want %d in %d", tr.Len(), a.Flows(), e.packets(), ref.flows)
	}
	return wall, nil
}

// extractOpen opens the indexed reader (header, address dataset, footer)
// ref.opens times and returns the last reader and the seconds each open took.
func (e *env) extractOpen(ref *reference) (*flowzip.Reader, []float64, error) {
	settle()
	var r *flowzip.Reader
	each := make([]float64, 0, ref.opens)
	for i := 0; i < ref.opens; i++ {
		if r != nil {
			r.Close()
		}
		t0 := time.Now()
		var err error
		if r, err = flowzip.OpenArchiveFile(e.fz); err != nil {
			return nil, nil, fmt.Errorf("extract open: %w", err)
		}
		each = append(each, time.Since(t0).Seconds())
	}
	if r.Flows() != ref.flows {
		r.Close()
		return nil, nil, fmt.Errorf("extract open: index has %d flows, want %d", r.Flows(), ref.flows)
	}
	return r, each, nil
}

// extractQueries runs the round's point queries on r. It returns every
// query's latency in seconds and the mean share of the archive body read
// per query. Every result's packet count is checked against the oracle.
func (e *env) extractQueries(r *flowzip.Reader, ref *reference) (lat []float64, readFrac float64, err error) {
	settle()
	lat = make([]float64, 0, len(ref.queries))
	var fracs float64
	for _, addr := range ref.queries {
		before := r.Stats().BodyBytesRead
		t0 := time.Now()
		tr, err := r.ExtractFlows(flowzip.FlowFilter{Prefix: addr, PrefixLen: 32})
		lat = append(lat, time.Since(t0).Seconds())
		if err != nil {
			return nil, 0, fmt.Errorf("extract %v: %w", addr, err)
		}
		if tr.Len() != ref.perAddr[addr] || tr.Len() == 0 {
			return nil, 0, fmt.Errorf("extract %v: %d packets, full decompress has %d", addr, tr.Len(), ref.perAddr[addr])
		}
		fracs += float64(r.Stats().BodyBytesRead-before) / float64(ref.bodyBytes)
	}
	return lat, fracs / float64(len(ref.queries)), nil
}

// checkSampledExtracts compares a sample of point queries packet for packet
// with the same filter applied to the full decompression.
func (e *env) checkSampledExtracts(ref *reference) error {
	r, err := flowzip.OpenArchiveFile(e.fz)
	if err != nil {
		return err
	}
	defer r.Close()
	step := max(1, len(ref.queries)/sampledExtracts)
	for i := 0; i < len(ref.queries); i += step {
		addr := ref.queries[i]
		tr, err := r.ExtractFlows(flowzip.FlowFilter{Prefix: addr, PrefixLen: 32})
		if err != nil {
			return err
		}
		k := 0
		for j := range ref.full {
			if serverOf(&ref.full[j]) != addr {
				continue
			}
			if k >= tr.Len() || tr.Packets[k] != ref.full[j] {
				return fmt.Errorf("extract %v: packet %d differs from the filtered full decompress", addr, k)
			}
			k++
		}
		if k != tr.Len() {
			return fmt.Errorf("extract %v: %d packets, filtered full decompress has %d", addr, tr.Len(), k)
		}
	}
	return nil
}

// roundSamples holds one value per measured round for every timed quantity,
// except openS and queryS, which pool every open and every point query of
// every measured round.
type roundSamples struct {
	setupS              []float64
	fileS, fileCPU      []float64
	serialS, serialB    []float64
	ingestS, ingestRTTS []float64
	decompressS         []float64
	openS, queryS       []float64
	readFrac            []float64
	attempted, failed   int
}

// round runs every timed operation once, in a fixed order, so slow drift of
// the machine reaches all metrics alike. With keep false (the warm-up) the
// timings are discarded but the checks still count.
func (e *env) round(ref *reference, s *roundSamples, keep bool) {
	var ok = true
	op := func(err error) bool {
		s.attempted++
		if err != nil {
			s.failed++
			ok = false
			fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %v\n", e.w.name, err)
		}
		return err == nil
	}
	setupS, err := e.setUpAgain()
	op(err)
	fileS, fileCPU, err := e.compressFile(ref)
	fileOK := op(err)
	serialS, serialB, err := e.compressSerial(ref)
	op(err)
	ingestS, err := e.ingest(e.daemon.Addr().String())
	op(err)
	rttS, err := e.ingest(e.proxy.Addr())
	op(err)
	var decS, frac float64
	var opens, lat []float64
	if !fileOK {
		// The read side runs on out.fz; without it there is nothing to read.
		op(errors.New("read-side operations skipped: no archive"))
	} else {
		decS, err = e.decompress(ref)
		op(err)
		var r *flowzip.Reader
		r, opens, err = e.extractOpen(ref)
		if op(err) {
			lat, frac, err = e.extractQueries(r, ref)
			op(err)
			r.Close()
		}
	}
	if !keep || !ok {
		return
	}
	s.setupS = append(s.setupS, setupS)
	s.fileS, s.fileCPU = append(s.fileS, fileS), append(s.fileCPU, fileCPU)
	s.serialS, s.serialB = append(s.serialS, serialS), append(s.serialB, serialB)
	s.ingestS, s.ingestRTTS = append(s.ingestS, ingestS), append(s.ingestRTTS, rttS)
	s.decompressS, s.readFrac = append(s.decompressS, decS), append(s.readFrac, frac)
	s.openS, s.queryS = append(s.openS, opens...), append(s.queryS, lat...)
}

// runConfig says what to measure. Rounds and repetitions are fixed before
// the run starts, never by the clock: both sides of a comparison do
// identical work.
type runConfig struct {
	seed    uint64
	scale   float64
	rounds  int // measured rounds of the end-to-end pass, after warmupRounds
	reps    int // repetitions of the traced pass
	scratch string
}

// Nominal cost of one round and of one repetition of the traced pass at full
// scale on two cores; -seconds is turned into counts with them, once.
const (
	secondsPerRound = 2
	secondsPerRep   = 6
)

func newRunConfig(seed uint64, seconds float64, scratch string) runConfig {
	return runConfig{
		seed: seed, scale: 1, scratch: scratch,
		rounds: max(1, int(seconds/secondsPerRound)),
		reps:   max(1, int(seconds/secondsPerRep)),
	}
}

// result is one workload's end-to-end outcome.
type result struct {
	Workload  string           `json:"workload"`
	Packets   int              `json:"packets"`
	Flows     int              `json:"flows"`
	Rounds    int              `json:"rounds"`
	MeasuredS float64          `json:"measured_s"`
	Attempted int              `json:"ops_attempted"`
	Failed    int              `json:"ops_failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runEndToEnd measures one workload: set-up, the oracle, warmupRounds
// unrecorded rounds, then cfg.rounds measured ones. Tracing is off throughout.
func runEndToEnd(w workload, cfg runConfig) (*result, error) {
	e, _, err := setUp(w, cfg.seed, cfg.scale, filepath.Join(cfg.scratch, w.name))
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", w.name, err)
	}
	defer e.close()
	ref, err := buildReference(e, cfg.seed)
	if err != nil {
		return nil, err
	}
	var s roundSamples
	for i := 0; i < warmupRounds; i++ {
		e.round(ref, &s, false)
	}
	s.attempted++
	if err := e.checkSampledExtracts(ref); err != nil {
		s.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %v\n", w.name, err)
	}
	ref.full = nil // only the sampled check reads it; the rounds run without it on the heap
	start := time.Now()
	for i := 0; i < cfg.rounds && s.failed == 0; i++ {
		e.round(ref, &s, true)
	}
	res := &result{
		Workload: w.name, Packets: e.packets(), Flows: ref.flows, Rounds: len(s.fileS),
		MeasuredS: time.Since(start).Seconds(), Attempted: s.attempted, Failed: s.failed,
	}
	if s.failed == 0 {
		res.Metrics = endToEndMetrics(e.packets(), len(ref.fz), &s)
	}
	return res, nil
}

func endToEndMetrics(packets, archiveBytes int, s *roundSamples) map[string]value {
	n := float64(packets)
	mpps := func(sec float64) float64 { return n / sec / 1e6 }
	nsPerPkt := func(sec float64) float64 { return sec * 1e9 / n }
	per := func(k float64) func(float64) float64 { return func(x float64) float64 { return x * k } }
	return map[string]value{
		"setup_s":                  summarize("s", s.setupS, per(1)),
		"compress_file_mpps":       summarize("Mpkt/s", s.fileS, mpps),
		"compress_cpu_ns_per_pkt":  summarize("ns/pkt", s.fileCPU, nsPerPkt),
		"compress_serial_mpps":     summarize("Mpkt/s", s.serialS, mpps),
		"compress_alloc_b_per_pkt": summarize("B/pkt", s.serialB, per(1/n)),
		"compress_ratio":           summarize("ratio", []float64{float64(archiveBytes) / (tshRecordBytes * n)}, per(1)),
		"ingest_mpps":              summarize("Mpkt/s", s.ingestS, mpps),
		"ingest_rtt5_mpps":         summarize("Mpkt/s", s.ingestRTTS, mpps),
		"decompress_mpps":          summarize("Mpkt/s", s.decompressS, mpps),
		"extract_open_ms":          summarize("ms", s.openS, per(1e3)),
		"extract_p50_us":           summarize("us", s.queryS, per(1e6)),
		"extract_read_frac":        summarize("ratio", s.readFrac, per(1)),
	}
}
