package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"flowzip/internal/flow"
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
// serial/parallel equivalence property: the merged archive must encode to
// exactly the bytes the serial compressor produces, for every worker count.
func TestCompressParallelByteIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		tr := webTrace(seed, 800)
		serial, err := Compress(tr, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want := encodeBytes(t, serial)
		for _, workers := range []int{1, 2, 3, 4, 8, 16} {
			par, err := pipeTrace(tr, DefaultOptions(), PipelineConfig{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if err := par.Validate(); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			got := encodeBytes(t, par)
			if !bytes.Equal(want, got) {
				t.Errorf("seed %d workers %d: archive bytes differ (%d vs %d bytes)",
					seed, workers, len(want), len(got))
			}
		}
	}
}

// TestCompressParallelRatio pins the acceptance property directly: identical
// Ratio() across worker counts.
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
	for _, workers := range []int{2, 8} {
		par, err := pipeTrace(tr, DefaultOptions(), PipelineConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.Ratio()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("workers %d: ratio %v, serial %v", workers, got, want)
		}
	}
}

// TestCompressParallelNonDefaultOptions exercises the merge under a changed
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
		par, err := pipeTrace(tr, opts, PipelineConfig{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeBytes(t, serial), encodeBytes(t, par)) {
			t.Errorf("opts %+v: parallel archive differs from serial", opts)
		}
	}
}

// TestShardArenaOversizeVector: a short flow longer than a shard's arena
// chunk gets a chunk of its own, and the flows around it keep theirs. With
// ShortMax raised past the chunk, one conversation of arenaChunk+5 000
// packets, reset midway through 300 five-packet flows, is a short flow; every
// worker count, from a trace and from a stream, writes the serial bytes.
func TestShardArenaOversizeVector(t *testing.T) {
	tr := trace.New("oversize")
	const big = arenaChunk + 5000
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
	tr.Sort()
	opts := DefaultOptions()
	opts.ShortMax = 2 * arenaChunk
	serial, err := Compress(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.LongTemplates) != 0 || len(serial.TimeSeq) != 301 {
		t.Fatalf("%d long templates, %d flows: want 301 short flows", len(serial.LongTemplates), len(serial.TimeSeq))
	}
	want := encodeBytes(t, serial)
	for _, workers := range []int{2, 4} {
		p, err := NewPipeline(opts, PipelineConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		fromTrace, err := p.CompressTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		fromStream, err := p.Compress(trace.Batches(tr, 1024))
		if err != nil {
			t.Fatal(err)
		}
		for shape, arch := range map[string]*Archive{"trace": fromTrace, "stream": fromStream} {
			if !bytes.Equal(encodeBytes(t, arch), want) {
				t.Errorf("workers=%d %s archive differs from serial", workers, shape)
			}
		}
	}
}

// TestCompressParallelDecompressedStats checks the satellite property the
// issue asks for explicitly: identical decompressed-trace statistics.
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
	want := sTr.ComputeStats()
	for _, workers := range []int{2, 8} {
		par, err := pipeTrace(tr, DefaultOptions(), PipelineConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		pTr, err := Decompress(par)
		if err != nil {
			t.Fatal(err)
		}
		if got := pTr.ComputeStats(); got != want {
			t.Errorf("workers %d: decompressed stats %+v, serial %+v", workers, got, want)
		}
	}
}

// TestCompressParallelEdgeCases covers empty input, the worker-count bounds
// and the error paths shared with the serial compressor.
func TestCompressParallelEdgeCases(t *testing.T) {
	empty := trace.New("empty")
	a, err := pipeTrace(empty, DefaultOptions(), PipelineConfig{Workers: 8})
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
	// The most workers the partition allows: tiny traces with mostly-empty
	// shards must still merge correctly.
	par, err := pipeTrace(tr, DefaultOptions(), PipelineConfig{Workers: flow.MaxShards})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBytes(t, serial), encodeBytes(t, par)) {
		t.Error("flow.MaxShards workers: archive differs from serial")
	}
	// Workers 0 selects the CPU count.
	if _, err := pipeTrace(tr, DefaultOptions(), PipelineConfig{}); err != nil {
		t.Fatal(err)
	}

	unsorted := trace.New("unsorted")
	unsorted.Packets = append(unsorted.Packets, tr.Packets[1], tr.Packets[0])
	unsorted.Packets[0].Timestamp = 2 * time.Second
	unsorted.Packets[1].Timestamp = time.Second
	if _, err := pipeTrace(unsorted, DefaultOptions(), PipelineConfig{Workers: 4}); err == nil {
		t.Error("unsorted trace: expected error")
	}

	bad := DefaultOptions()
	bad.ShortMax = 0
	if _, err := pipeTrace(tr, bad, PipelineConfig{Workers: 4}); err == nil {
		t.Error("invalid options: expected error")
	}
}

// TestCompressParallelFractal runs the pipeline over the non-Web workload to
// make sure equivalence is not an artifact of the Web generator's flow mix.
func TestCompressParallelFractal(t *testing.T) {
	cfg := flowgen.DefaultFractalConfig()
	cfg.Seed = 3
	cfg.Packets = 20000
	tr := flowgen.Fractal(cfg)
	if !tr.IsSorted() {
		tr.Sort()
	}
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	par, err := pipeTrace(tr, DefaultOptions(), PipelineConfig{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBytes(t, serial), encodeBytes(t, par)) {
		t.Error("fractal trace: parallel archive differs from serial")
	}
}

// TestCompressParallelWorkerBounds covers the boundary worker counts the
// library accepts (the CLI validates the same range); one past the bound is
// rejected, see TestNewPipelineValidation.
func TestCompressParallelWorkerBounds(t *testing.T) {
	tr := webTrace(9, 300)
	serial, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := encodeBytes(t, serial)
	for _, tc := range []struct {
		workers     int
		wantWorkers int
	}{
		{0, defaultWorkers()},
		{1, 1},
		{flow.MaxShards, flow.MaxShards},
	} {
		p, err := NewPipeline(DefaultOptions(), PipelineConfig{Workers: tc.workers})
		if err != nil {
			t.Fatalf("workers %d: %v", tc.workers, err)
		}
		if p.Workers() != tc.wantWorkers {
			t.Errorf("workers %d: pipeline reports %d, want %d", tc.workers, p.Workers(), tc.wantWorkers)
		}
		arch, err := p.CompressTrace(tr)
		if err != nil {
			t.Fatalf("workers %d: %v", tc.workers, err)
		}
		if !bytes.Equal(want, encodeBytes(t, arch)) {
			t.Errorf("workers %d: archive differs from serial", tc.workers)
		}
	}
}

// TestTooManyPacketsError pins the typed int32 bound error. A real 2^31
// packet trace cannot be materialized in a test, so the check itself is
// exercised directly at the boundary.
func TestTooManyPacketsError(t *testing.T) {
	if err := checkParallelPackets(int64(maxParallelPackets)); err != nil {
		t.Fatalf("bound itself rejected: %v", err)
	}
	err := checkParallelPackets(int64(maxParallelPackets) + 1)
	if err == nil {
		t.Fatal("over-bound packet count accepted")
	}
	var tooMany *TooManyPacketsError
	if !errors.As(err, &tooMany) {
		t.Fatalf("error %T is not a *TooManyPacketsError", err)
	}
	if tooMany.Packets != int64(maxParallelPackets)+1 {
		t.Errorf("error records %d packets, want %d", tooMany.Packets, int64(maxParallelPackets)+1)
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

// adversarialTrace builds the hostile-ish input of the sharded suites: flows
// of equal packet count carry their index encoded in binary across the
// payload size classes (empty vs large), so short-flow vectors are pairwise
// distinct (up to the few shortest flows whose middle packets cannot hold all
// the bits), so the merge pays a first-fit walk, not a memo hit, for nearly
// every flow.
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
