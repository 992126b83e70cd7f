package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/flowgen"
	"flowzip/internal/pkt"
	"flowzip/internal/trace"
)

// floorUS is g rounded down to a whole µs, as a LongTemplate's run holds it.
func floorUS(g time.Duration) time.Duration {
	f := g.Truncate(time.Microsecond)
	if f > g {
		f -= time.Microsecond
	}
	return f
}

// packGaps is gaps as a LongTemplate holds them: a packed run of the uvarint
// of each gap's whole µs, rounded down.
func packGaps(gaps ...time.Duration) []byte {
	var run []byte
	for _, g := range gaps {
		run = binary.AppendUvarint(run, uint64(floorUS(g)/time.Microsecond))
	}
	return run
}

// unpackGaps inverts packGaps, each gap a whole µs; it panics on a run that is
// not whole varints.
func unpackGaps(run []byte) []time.Duration {
	var gaps []time.Duration
	for len(run) > 0 {
		g, n := binary.Uvarint(run)
		if n <= 0 {
			panic(fmt.Sprintf("malformed gap run at %x", run))
		}
		gaps, run = append(gaps, time.Duration(g)*time.Microsecond), run[n:]
	}
	return gaps
}

// setGap sets gap j of t to g.
func setGap(t *LongTemplate, j int, g time.Duration) {
	gaps := unpackGaps(t.Gaps)
	gaps[j] = g
	t.Gaps = packGaps(gaps...)
}

// flowGaps is f's inter-packet times, each rounded down to a whole µs.
func flowGaps(f *flow.Flow) []time.Duration {
	return unpackGaps(f.AppendVectorGaps(nil, flow.DefaultWeights)[f.Len():])
}

// sameLong says whether two long templates have the same f values and gaps
// (a nil run equals an empty one).
func sameLong(x, y LongTemplate) bool { return bytes.Equal(x.F, y.F) && bytes.Equal(x.Gaps, y.Gaps) }

func webTrace(seed uint64, flows int) *trace.Trace {
	cfg := flowgen.DefaultWebConfig()
	cfg.Seed = seed
	cfg.Flows = flows
	cfg.Duration = 20 * time.Second
	return flowgen.Web(cfg)
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	bad := DefaultOptions()
	bad.ShortMax = 1
	if bad.Validate() == nil {
		t.Fatal("ShortMax 1 must be invalid")
	}
	bad = DefaultOptions()
	bad.Weights = flow.Weights{Flag: 100, Dep: 4, Size: 1}
	if bad.Validate() == nil {
		t.Fatal("overflowing weights must be invalid")
	}
	bad = DefaultOptions()
	bad.LimitPct = -1
	if bad.Validate() == nil {
		t.Fatal("negative limit must be invalid")
	}
}

func TestCompressBasics(t *testing.T) {
	tr := webTrace(1, 500)
	a, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Flows() == 0 {
		t.Fatal("no flows compressed")
	}
	if a.Packets() != tr.Len() {
		t.Fatalf("archive packets = %d, trace packets = %d", a.Packets(), tr.Len())
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("archive invalid: %v", err)
	}
	st := a.Opts
	if st.ShortMax != 50 {
		t.Fatal("options not recorded")
	}
}

func TestCompressRejectsUnsorted(t *testing.T) {
	tr := webTrace(2, 50)
	if tr.Len() < 2 {
		t.Skip("trace too small")
	}
	tr.Packets[0].Timestamp = tr.Packets[tr.Len()-1].Timestamp + time.Second
	if _, err := Compress(tr, DefaultOptions()); err == nil {
		t.Fatal("unsorted trace must be rejected")
	}
}

func TestClusteringReducesTemplates(t *testing.T) {
	tr := webTrace(3, 2000)
	a, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	shortFlows := 0
	for _, r := range a.TimeSeq {
		if !r.Long {
			shortFlows++
		}
	}
	// The paper's core observation: many flows share few templates.
	if len(a.ShortTemplates) >= shortFlows/2 {
		t.Fatalf("clustering ineffective: %d templates for %d short flows",
			len(a.ShortTemplates), shortFlows)
	}
}

func TestCompressionRatioNearPaper(t *testing.T) {
	tr := webTrace(4, 5000)
	a, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := a.Ratio()
	if err != nil {
		t.Fatal(err)
	}
	// Paper claims ~3%; synthetic traces land in the same regime. Anything
	// under 10% preserves the headline (an order of magnitude under VJ's
	// ~30%), anything under 1% would be suspicious.
	if ratio > 0.10 {
		t.Fatalf("compression ratio %.4f, want < 0.10", ratio)
	}
	if ratio <= 0.001 {
		t.Fatalf("compression ratio %.5f implausibly small", ratio)
	}
}

func TestShortLongSplit(t *testing.T) {
	tr := webTrace(5, 3000)
	a, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range a.TimeSeq {
		if r.Long {
			n := len(a.LongTemplates[r.Template].F)
			if n <= 50 {
				t.Fatalf("time-seq %d: long template with %d packets", i, n)
			}
			if r.RTT != 0 {
				// Encoded archives zero long-flow RTTs; in-memory ones may
				// carry estimates but the paper says the field is not filled.
				t.Logf("long flow %d carries RTT %v (ignored)", i, r.RTT)
			}
		} else {
			n := len(a.ShortTemplates[r.Template])
			if n > 50 {
				t.Fatalf("time-seq %d: short template with %d packets", i, n)
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := webTrace(6, 800)
	a, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sizes, err := a.Encode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sizes.Total() != int64(buf.Len()) {
		t.Fatalf("section sizes %d != stream size %d", sizes.Total(), buf.Len())
	}
	b, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.ShortTemplates) != len(a.ShortTemplates) ||
		len(b.LongTemplates) != len(a.LongTemplates) ||
		len(b.Addresses) != len(a.Addresses) ||
		len(b.TimeSeq) != len(a.TimeSeq) {
		t.Fatal("dataset sizes changed through encode/decode")
	}
	for i := range a.ShortTemplates {
		if flow.Distance(a.ShortTemplates[i], b.ShortTemplates[i]) != 0 {
			t.Fatalf("short template %d changed", i)
		}
	}
	for i := range a.Addresses {
		if a.Addresses[i] != b.Addresses[i] {
			t.Fatalf("address %d changed", i)
		}
	}
	for i := range a.TimeSeq {
		ra, rb := a.TimeSeq[i], b.TimeSeq[i]
		// Timestamps quantize to µs; RTT of long flows is dropped.
		if ra.Long != rb.Long || ra.Template != rb.Template || ra.Addr != rb.Addr {
			t.Fatalf("time-seq %d changed: %+v vs %+v", i, ra, rb)
		}
		if d := ra.FirstTS - rb.FirstTS; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("time-seq %d timestamp drift %v", i, d)
		}
		if !ra.Long {
			if d := ra.RTT - rb.RTT; d < -time.Microsecond || d > time.Microsecond {
				t.Fatalf("time-seq %d RTT drift %v", i, d)
			}
		}
	}
	if b.SourcePackets != a.SourcePackets || b.SourceTSHBytes != a.SourceTSHBytes {
		t.Fatal("source metadata changed")
	}
	if b.Opts.Weights != a.Opts.Weights || b.Opts.ShortMax != a.Opts.ShortMax {
		t.Fatal("options metadata changed")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not an archive"))); !errors.Is(err, ErrBadArchive) {
		t.Fatalf("err = %v, want ErrBadArchive", err)
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream must error")
	}
	// Truncated valid archive.
	tr := webTrace(7, 100)
	a, _ := Compress(tr, DefaultOptions())
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := Decode(bytes.NewReader(b[:len(b)/2])); err == nil {
		t.Fatal("truncated archive must error")
	}
}

func TestArchiveValidateCatchesCorruption(t *testing.T) {
	tr := webTrace(8, 100)
	a, _ := Compress(tr, DefaultOptions())
	bad := *a
	bad.TimeSeq = append([]TimeSeqRecord(nil), a.TimeSeq...)
	bad.TimeSeq[0].Template = 1 << 30
	if bad.Validate() == nil {
		t.Fatal("dangling template reference must fail validation")
	}
	if _, err := bad.Encode(io.Discard); err == nil {
		t.Fatal("dangling template reference must not encode")
	}
	bad2 := *a
	bad2.TimeSeq = append([]TimeSeqRecord(nil), a.TimeSeq...)
	bad2.TimeSeq[0].Addr = 1 << 30
	if bad2.Validate() == nil {
		t.Fatal("dangling address reference must fail validation")
	}
}

// TestValidateRefusesNegativeTimes: no container holds a negative long
// template gap, rtt or first timestamp — every µs field is unsigned, a gap
// coded against its template's RTT as well — so Validate, and Encode through
// it, refuses each, rather than write what Decode refuses or reads back as
// another archive.
func TestValidateRefusesNegativeTimes(t *testing.T) {
	valid := func() *Archive {
		return &Archive{
			Opts:           DefaultOptions(),
			ShortTemplates: []flow.Vector{{37, 53}},
			LongTemplates:  []LongTemplate{{F: flow.Vector{21, 53, 59}, Gaps: packGaps(time.Millisecond, time.Microsecond)}},
			Addresses:      []pkt.IPv4{0x0a000001},
			TimeSeq: []TimeSeqRecord{
				{FirstTS: time.Second, RTT: time.Millisecond},
				{FirstTS: 2 * time.Second, Long: true},
			},
		}
	}
	if _, err := valid().Encode(io.Discard); err != nil {
		t.Fatalf("the valid archive: %v", err)
	}
	for _, tc := range []struct {
		name  string
		spoil func(a *Archive)
		why   string
	}{
		{"negative long template gap", func(a *Archive) { setGap(&a.LongTemplates[0], 1, -time.Microsecond) }, "long template 0 has gap 1 of -1µs"},
		{"negative rtt", func(a *Archive) { a.TimeSeq[0].RTT = -time.Millisecond }, "time-seq 0 has timestamp 1s and rtt -1ms"},
		{"negative first timestamp", func(a *Archive) { a.TimeSeq[0].FirstTS = -3 * time.Second }, "time-seq 0 has timestamp -3s"},
	} {
		a := valid()
		tc.spoil(a)
		if err := a.Validate(); err == nil || !strings.Contains(err.Error(), tc.why) {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.why)
		}
		if n, err := a.Encode(io.Discard); err == nil {
			t.Errorf("%s: Encode wrote %d bytes", tc.name, n.Total())
		}
	}
}

func TestDecompressPacketAndFlowCounts(t *testing.T) {
	tr := webTrace(9, 1000)
	a, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(a)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Len() != tr.Len() {
		t.Fatalf("decompressed %d packets, original %d", dec.Len(), tr.Len())
	}
	origFlows := flow.Assemble(tr.Packets)
	decFlows := flow.Assemble(dec.Packets)
	// Flow count is preserved up to rare client-port collisions in the
	// random regeneration.
	if len(decFlows) < len(origFlows)*99/100 || len(decFlows) > len(origFlows)*101/100 {
		t.Fatalf("decompressed %d flows, original %d", len(decFlows), len(origFlows))
	}
}

func TestDecompressSorted(t *testing.T) {
	tr := webTrace(10, 800)
	a, _ := Compress(tr, DefaultOptions())
	dec, err := Decompress(a)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.IsSorted() {
		t.Fatal("decompressed trace must be timestamp sorted")
	}
}

func TestDecompressedVectorsWithinLimit(t *testing.T) {
	// The defining lossy guarantee: every decompressed flow's F vector is
	// within d_lim of the original flow's vector (it equals the template the
	// original matched).
	tr := webTrace(11, 600)
	a, _ := Compress(tr, DefaultOptions())
	dec, _ := Decompress(a)

	w := DefaultOptions().Weights
	count := map[string]int{}
	for _, f := range flow.Assemble(tr.Packets) {
		count[string(f.Vector(w))]++
	}
	for _, f := range flow.Assemble(dec.Packets) {
		v := f.Vector(w)
		// Exact-match templates are common; otherwise some original vector
		// must be within d_lim of this one.
		if count[string(v)] > 0 {
			continue
		}
		ok := false
		for orig := range count {
			ov := flow.Vector(orig)
			if len(ov) == len(v) && flow.Distance(ov, v) < flow.DistanceLimit(len(v)) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("decompressed vector %v matches no original within d_lim", v)
		}
	}
}

func TestDecompressAddressesAndPorts(t *testing.T) {
	tr := webTrace(12, 400)
	a, _ := Compress(tr, DefaultOptions())
	dec, _ := Decompress(a)
	servers := map[pkt.IPv4]bool{}
	for _, ip := range a.Addresses {
		servers[ip] = true
	}
	for i := range dec.Packets {
		p := &dec.Packets[i]
		if p.DstPort == 80 {
			if !servers[p.DstIP] {
				t.Fatalf("packet to port 80 with unknown server %v", p.DstIP)
			}
			if p.SrcPort < 1024 || p.SrcPort > 65000 {
				t.Fatalf("client port %d outside [1024,65000]", p.SrcPort)
			}
			// Source must be class B or C.
			first := byte(p.SrcIP >> 24)
			if first < 128 || first > 223 {
				t.Fatalf("source %v is not class B or C", p.SrcIP)
			}
		} else if p.SrcPort != 80 {
			t.Fatalf("packet with neither port 80: %v", p.Tuple())
		}
	}
}

// TestOptionsRoundTrip: Options is exactly what an archive's header records.
// At non-default weights, short-flow bounds and limits on the header's 0.01
// grid, a decoded archive carries the options it was compressed under, and
// it decompresses to the packets the archive it was encoded from does.
func TestOptionsRoundTrip(t *testing.T) {
	tr := webTrace(21, 200)
	for _, opts := range []Options{
		{Weights: flow.Weights{Flag: 16, Dep: 4, Size: 1}, ShortMax: 30, LimitPct: 3.25},
		{Weights: flow.Weights{Flag: 9, Dep: 3, Size: 1}, ShortMax: 80, LimitPct: 0.5},
		{Weights: flow.Weights{Flag: 20, Dep: 5, Size: 2}, ShortMax: 2, LimitPct: 0},
		{Weights: flow.Weights{Flag: 12, Dep: 2, Size: 1}, ShortMax: 50, LimitPct: 7.01},
	} {
		a, err := Compress(tr, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		var buf bytes.Buffer
		if _, err := a.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		b, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if b.Opts != a.Opts {
			t.Errorf("options %+v decode as %+v", a.Opts, b.Opts)
		}
		want, err := Decompress(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decompress(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("%+v: %d packets decoded, %d in memory", opts, got.Len(), want.Len())
		}
		diff := 0
		for i := range want.Packets {
			if got.Packets[i] != want.Packets[i] {
				diff++
			}
		}
		if diff != 0 {
			t.Errorf("%+v: %d of %d packets differ between the archive and its decode", opts, diff, want.Len())
		}
	}
}

// TestDecompressParallelRefusesWorkers: the worker count is in [0,
// maxDecompressWorkers]; outside it the decode is refused rather than
// clamped.
func TestDecompressParallelRefusesWorkers(t *testing.T) {
	a, err := Compress(webTrace(22, 50), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{-1, maxDecompressWorkers + 1} {
		if _, err := DecompressParallel(a, w); err == nil || !strings.Contains(err.Error(), "outside [0,256]") {
			t.Errorf("DecompressParallel at %d workers: error %v, want the range named", w, err)
		}
	}
	if _, err := DecompressParallel(a, maxDecompressWorkers); err != nil {
		t.Errorf("DecompressParallel at %d workers: %v", maxDecompressWorkers, err)
	}
}

func TestDecompressDeterministic(t *testing.T) {
	tr := webTrace(13, 300)
	a, _ := Compress(tr, DefaultOptions())
	d1, _ := Decompress(a)
	// Fresh decompressor over the same archive: same seed, same output.
	d2, _ := Decompress(a)
	if d1.Len() != d2.Len() {
		t.Fatal("decompression not deterministic")
	}
	for i := range d1.Packets {
		if d1.Packets[i] != d2.Packets[i] {
			t.Fatalf("packet %d differs between runs", i)
		}
	}
}

func TestRecompressionStability(t *testing.T) {
	// Compressing the decompressed trace must not blow up the template
	// store: the regenerated flows are exactly the templates.
	tr := webTrace(14, 800)
	a, _ := Compress(tr, DefaultOptions())
	dec, _ := Decompress(a)
	a2, err := Compress(dec, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(a2.ShortTemplates) > len(a.ShortTemplates) {
		t.Fatalf("recompression grew templates: %d -> %d",
			len(a.ShortTemplates), len(a2.ShortTemplates))
	}
	if a2.Packets() != a.Packets() {
		t.Fatalf("recompression changed packets: %d -> %d", a.Packets(), a2.Packets())
	}
}

// TestCompressorStats: the serial compressor's archive accounts for every
// packet, flow and server address of its input. It reads the counts off the
// archive, where a removed per-compressor Stats record used to report them.
func TestCompressorStats(t *testing.T) {
	tr := webTrace(15, 500)
	c := newCompressor(DefaultOptions())
	for i := range tr.Packets {
		c.add(&tr.Packets[i])
	}
	a := c.finish()
	if a.Packets() != tr.Len() {
		t.Fatalf("archive packets = %d, trace packets = %d", a.Packets(), tr.Len())
	}
	flows := flow.Assemble(tr.Packets)
	if a.Flows() != len(flows) {
		t.Fatalf("archive flows = %d, trace flows = %d", a.Flows(), len(flows))
	}
	servers := map[pkt.IPv4]bool{}
	for _, f := range flows {
		servers[f.ServerIP()] = true
	}
	if len(a.Addresses) != len(servers) {
		t.Fatalf("archive addresses = %d, trace servers = %d", len(a.Addresses), len(servers))
	}
}

func TestRatioRequiresSource(t *testing.T) {
	a := &Archive{Opts: DefaultOptions()}
	if _, err := a.Ratio(); err == nil {
		t.Fatal("ratio without source size must error")
	}
}

// TestLongFlowGapsPreserved: long flows captured with sub-µs jitter keep each
// gap rounded down to the µs through Compress, and Compress's long templates
// are byte-equal to Decode(Encode(a))'s and to the pipeline's, streamed and
// in memory, and its two stages'.
func TestLongFlowGapsPreserved(t *testing.T) {
	tr := trace.New("jittered long flows")
	captured := map[int][]time.Duration{} // a flow's packet count (each differs) -> its gaps
	for f := range 4 {
		client, server := pkt.Addr(10, 1, byte(f), 7), pkt.Addr(172, 16, byte(f), 1)
		ts := time.Duration(f) * 3 * time.Millisecond
		n := 60 + 25*f
		for k := range n {
			p := pkt.Packet{Timestamp: ts, SrcIP: server, DstIP: client, SrcPort: 80, DstPort: uint16(2000 + f),
				Proto: pkt.ProtoTCP, Flags: pkt.FlagACK, PayloadLen: 1460}
			if k%4 == 0 {
				p.SrcIP, p.DstIP, p.SrcPort, p.DstPort, p.PayloadLen = client, server, p.DstPort, 80, 0
			}
			tr.Append(p)
			if k < n-1 {
				g := time.Duration(100+37*((k+f)%5))*time.Microsecond + time.Duration((k*7919+f*131)%1000)
				captured[n] = append(captured[n], g)
				ts += g
			}
		}
	}
	tr.Sort()
	opts := DefaultOptions()
	a, err := Compress(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.LongTemplates) != len(captured) {
		t.Fatalf("%d long templates for %d long flows", len(a.LongTemplates), len(captured))
	}
	for _, lt := range a.LongTemplates {
		want := captured[len(lt.F)]
		for j := range want {
			want[j] = floorUS(want[j])
		}
		if got := unpackGaps(lt.Gaps); !slices.Equal(got, want) {
			t.Fatalf("a flow of %d packets kept gaps %v, want %v", len(lt.F), got, want)
		}
	}
	d, err := Decode(bytes.NewReader(encodeBytes(t, a)))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(d.LongTemplates, a.LongTemplates, sameLong) {
		t.Error("Decode(Encode(a)) has other long templates than Compress")
	}
	p, err := NewPipeline(opts, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for name, compress := range map[string]func() (*Archive, error){
		"CompressTrace": func() (*Archive, error) { return p.CompressTrace(tr) },
		"Compress":      func() (*Archive, error) { return p.Compress(trace.Batches(tr, 64)) },
		"two stages":    func() (*Archive, error) { return p.twoStage(trace.Batches(tr, 64)) },
	} {
		b, err := compress()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.EqualFunc(b.LongTemplates, a.LongTemplates, sameLong) {
			t.Errorf("%s has other long templates than Compress", name)
		}
	}
}
