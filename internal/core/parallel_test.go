package core

import (
	"bytes"
	"testing"
	"time"

	"flowzip/internal/flowgen"
	"flowzip/internal/pkt"
	"flowzip/internal/trace"
)

// encodeBytes renders an archive to its container bytes.
func encodeBytes(t testing.TB, a *Archive) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

// TestCompressParallelByteIdentical is the strongest form of the
// equivalence property: Pipeline.Compress must encode to exactly the bytes
// Compress produces, from a trace and from a stream cut in batches down to
// one packet. Under go test -cpu 1,2,4 the pipeline runs one stage at one P
// and two from two on. The distinct
// trace's 8 000 flows fill more batches than a run ever holds, so the table
// stage waits on the record stage and reuses the batches it hands back.
func TestCompressParallelByteIdentical(t *testing.T) {
	p, err := NewPipeline(DefaultOptions(), PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*trace.Trace{webTrace(1, 800), webTrace(2, 800), webTrace(3, 800), distinctTrace(7, 8000)} {
		serial, err := Compress(tr, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want := encodeBytes(t, serial)
		for _, batch := range []int{0, 1, 7, 4096} {
			got, err := p.Compress(trace.Batches(tr, batch))
			if err != nil {
				t.Fatalf("%s batch %d: %v", tr.Name, batch, err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s batch %d: %v", tr.Name, batch, err)
			}
			if !bytes.Equal(want, encodeBytes(t, got)) {
				t.Errorf("%s batch %d: archive bytes differ from Compress", tr.Name, batch)
			}
		}
	}
}

// TestCompressParallelRatio pins the acceptance property directly: the
// pipeline's Ratio() is the serial one.
func TestCompressParallelRatio(t *testing.T) {
	tr := webTrace(7, 1500)
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := serial.Ratio()
	if err != nil {
		t.Fatal(err)
	}
	par, err := pipeTrace(tr, DefaultOptions(), PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := par.Ratio()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("pipeline ratio %v, serial %v", got, want)
	}
}

// TestCompressParallelNonDefaultOptions runs the pipeline under a changed
// threshold and short-flow cutoff, including the degenerate zero threshold
// where every short flow must create its own template.
func TestCompressParallelNonDefaultOptions(t *testing.T) {
	tr := webTrace(11, 600)
	for _, mod := range []func(*Options){
		func(o *Options) { o.LimitPct = 0 },
		func(o *Options) { o.LimitPct = 10 },
		func(o *Options) { o.ShortMax = 5 },
	} {
		opts := DefaultOptions()
		mod(&opts)
		serial, err := Compress(tr, opts)
		if err != nil {
			t.Fatal(err)
		}
		par, err := pipeTrace(tr, opts, PipelineConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeBytes(t, serial), encodeBytes(t, par)) {
			t.Errorf("opts %+v: pipeline archive differs from serial", opts)
		}
	}
}

// TestBatchArenaOversizeVector: with ShortMax raised past a batch's arena,
// the table stage ships a batch whose arena is full and gives a vector longer
// than any arena an allocation of its own, and the flows around each keep
// their vectors. One conversation of batchArena+5 000
// packets, reset midway through 300 five-packet flows, is a short flow; so
// are 64 overlapping flows of 3 000 packets, some 21 to a two-stage arena and
// one to a one-stage arena; and one of oneStageArena+1 packets, longer than
// a one-stage arena by one. From a trace and from a stream, the pipeline
// writes Compress's bytes, and so do one stage and two called at any P.
func TestBatchArenaOversizeVector(t *testing.T) {
	tr := trace.New("oversize")
	const big = batchArena + 5000
	for i := 0; i < big; i++ {
		p := pkt.Packet{
			Timestamp: time.Duration(i) * 10 * time.Microsecond,
			SrcIP:     pkt.Addr(10, 0, 0, 1), DstIP: pkt.Addr(20, 0, 0, 1),
			SrcPort: 1024, DstPort: 80,
			Proto: pkt.ProtoTCP, Flags: pkt.FlagACK, TTL: 64, PayloadLen: uint16(i % 3 * 700),
		}
		switch {
		case i == 0:
			p.Flags = pkt.FlagSYN
		case i == big-1:
			p.Flags = pkt.FlagRST
		case i%4 == 3:
			p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = p.DstIP, p.SrcIP, p.DstPort, p.SrcPort
		}
		tr.Append(p)
	}
	for f := 0; f < 300; f++ {
		for k, flags := range []pkt.TCPFlags{pkt.FlagSYN, pkt.FlagSYN | pkt.FlagACK, pkt.FlagACK, pkt.FlagFIN | pkt.FlagACK, pkt.FlagFIN | pkt.FlagACK} {
			p := pkt.Packet{
				Timestamp: time.Duration(f)*4*time.Millisecond + time.Duration(k)*100*time.Microsecond + 5*time.Microsecond,
				SrcIP:     pkt.IPv4(0x0b000000 + uint32(f)), DstIP: pkt.Addr(30, 0, 0, byte(f%8)),
				SrcPort: uint16(2000 + f), DstPort: 80,
				Proto: pkt.ProtoTCP, Flags: flags, TTL: 64, PayloadLen: uint16(f % 2 * 1460),
			}
			if k%2 == 1 {
				p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = p.DstIP, p.SrcIP, p.DstPort, p.SrcPort
			}
			tr.Append(p)
		}
	}
	for k := 0; k <= oneStageArena; k++ {
		p := pkt.Packet{
			Timestamp: time.Duration(k)*20*time.Microsecond + 7*time.Microsecond,
			SrcIP:     pkt.Addr(10, 0, 0, 2), DstIP: pkt.Addr(50, 0, 0, 1),
			SrcPort: 4000, DstPort: 80,
			Proto: pkt.ProtoTCP, Flags: pkt.FlagACK, TTL: 64, PayloadLen: uint16(k % 2 * 1460),
		}
		if k%3 == 2 {
			p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = p.DstIP, p.SrcIP, p.DstPort, p.SrcPort
		}
		tr.Append(p)
	}
	const mid, midLen = 64, 3000
	for f := 0; f < mid; f++ {
		for k := 0; k < midLen; k++ {
			p := pkt.Packet{
				Timestamp: time.Duration(f)*7*time.Millisecond + time.Duration(k)*30*time.Microsecond + 3*time.Microsecond,
				SrcIP:     pkt.IPv4(0x0c000000 + uint32(f)), DstIP: pkt.Addr(40, 0, 0, byte(f%4)),
				SrcPort: uint16(3000 + f), DstPort: 443,
				Proto: pkt.ProtoTCP, Flags: pkt.FlagACK, TTL: 64, PayloadLen: uint16((f + k) % 3 * 600),
			}
			switch {
			case k == 0:
				p.Flags = pkt.FlagSYN
			case k == midLen-1:
				p.Flags = pkt.FlagRST
			case k%3 == 1:
				p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = p.DstIP, p.SrcIP, p.DstPort, p.SrcPort
			}
			tr.Append(p)
		}
	}
	tr.Sort()
	opts := DefaultOptions()
	opts.ShortMax = 2 * batchArena
	serial, err := Compress(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.LongTemplates) != 0 || len(serial.TimeSeq) != 2+300+mid {
		t.Fatalf("%d long templates, %d flows: want %d short flows", len(serial.LongTemplates), len(serial.TimeSeq), 2+300+mid)
	}
	want := encodeBytes(t, serial)
	p, err := NewPipeline(opts, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fromTrace, err := p.Compress(trace.Batches(tr, 0))
	if err != nil {
		t.Fatal(err)
	}
	fromStream, err := p.Compress(trace.Batches(tr, 1024))
	if err != nil {
		t.Fatal(err)
	}
	inOne, err := p.run(trace.Batches(tr, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	inTwo, err := p.run(trace.Batches(tr, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	for shape, arch := range map[string]*Archive{"trace": fromTrace, "stream": fromStream, "one stage": inOne, "two stages": inTwo} {
		if !bytes.Equal(encodeBytes(t, arch), want) {
			t.Errorf("%s archive differs from Compress", shape)
		}
	}
}

// TestCompressParallelDecompressedStats: the pipeline's archive decompresses
// to the serial archive's trace statistics.
func TestCompressParallelDecompressedStats(t *testing.T) {
	tr := webTrace(5, 1000)
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sTr, err := Decompress(serial)
	if err != nil {
		t.Fatal(err)
	}
	par, err := pipeTrace(tr, DefaultOptions(), PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pTr, err := Decompress(par)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pTr.ComputeStats(), sTr.ComputeStats(); got != want {
		t.Errorf("decompressed stats %+v, serial %+v", got, want)
	}
}

// TestCompressParallelEdgeCases covers empty input, a trace of a few flows
// and the error paths every run shares.
func TestCompressParallelEdgeCases(t *testing.T) {
	empty := trace.New("empty")
	a, err := pipeTrace(empty, DefaultOptions(), PipelineConfig{})
	if err != nil {
		t.Fatalf("empty: %v", err)
	}
	if a.Flows() != 0 || a.Packets() != 0 {
		t.Errorf("empty: flows=%d packets=%d", a.Flows(), a.Packets())
	}

	tr := webTrace(9, 50)
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	par, err := pipeTrace(tr, DefaultOptions(), PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBytes(t, serial), encodeBytes(t, par)) {
		t.Error("small trace: archive differs from serial")
	}

	unsorted := trace.New("unsorted")
	unsorted.Packets = append(unsorted.Packets, tr.Packets[1], tr.Packets[0])
	unsorted.Packets[0].Timestamp = 2 * time.Second
	unsorted.Packets[1].Timestamp = time.Second
	if _, err := pipeTrace(unsorted, DefaultOptions(), PipelineConfig{}); err == nil {
		t.Error("unsorted trace: expected error")
	}

	bad := DefaultOptions()
	bad.ShortMax = 0
	if _, err := pipeTrace(tr, bad, PipelineConfig{}); err == nil {
		t.Error("invalid options: expected error")
	}
}

// TestCompressParallelFractal runs the pipeline over the non-Web workload to
// make sure equivalence is not an artifact of the Web generator's flow mix.
func TestCompressParallelFractal(t *testing.T) {
	tr := fractalTrace(3, 20000)
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	par, err := pipeTrace(tr, DefaultOptions(), PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBytes(t, serial), encodeBytes(t, par)) {
		t.Error("fractal trace: pipeline archive differs from serial")
	}
}

func fractalTrace(seed uint64, packets int) *trace.Trace {
	cfg := flowgen.DefaultFractalConfig()
	cfg.Seed = seed
	cfg.Packets = packets
	tr := flowgen.Fractal(cfg)
	if !tr.IsSorted() {
		tr.Sort()
	}
	return tr
}

func p2pTrace(seed uint64) *trace.Trace {
	cfg := flowgen.DefaultP2PConfig()
	cfg.Seed = seed
	tr := flowgen.P2P(cfg)
	if !tr.IsSorted() {
		tr.Sort()
	}
	return tr
}

// adversarialTrace builds the hostile-ish input of the pipeline suites: flows
// of equal packet count carry their index encoded in binary across the
// payload size classes (empty vs large), so short-flow vectors are pairwise
// distinct (up to the few shortest flows whose middle packets cannot hold all
// the bits), so the record step pays a first-fit walk, not a memo hit, for
// nearly every flow.
func adversarialTrace(conversations int) *trace.Trace {
	const lengths = 46 // short-flow packet counts 3..48, all under ShortMax
	tr := trace.New("adversarial")
	ts := time.Duration(0)
	for i := 0; i < conversations; i++ {
		client := pkt.IPv4(0x0A000001 + uint32(i))
		server := pkt.IPv4(0xC0A80001 + uint32(i%7))
		sport, dport := uint16(10000+i), uint16(80)
		n := 3 + i%lengths
		j := i / lengths // disambiguates flows of equal length, bit by bit
		for p := 0; p < n; p++ {
			var flags pkt.TCPFlags
			switch p {
			case 0:
				flags = pkt.FlagSYN
			case n - 1:
				flags = pkt.FlagRST
			default:
				flags = pkt.FlagACK
			}
			var size uint16
			if p > 0 && p < n-1 && (j>>(p-1))&1 == 1 {
				size = 900 // SizeClassLarge; bit unset stays SizeClassEmpty
			}
			tr.Packets = append(tr.Packets, pkt.Packet{
				Timestamp: ts,
				SrcIP:     client, DstIP: server,
				SrcPort: sport, DstPort: dport, Proto: 6,
				Flags: flags, PayloadLen: size,
			})
			ts += 37 * time.Microsecond
		}
	}
	return tr
}
