package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"slices"
	"testing"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/trace"
)

// Edge-condition coverage for the codec: degenerate traces, boundary flow
// lengths and unusual option settings.

func TestCompressEmptyTrace(t *testing.T) {
	a, err := Compress(trace.New("empty"), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Flows() != 0 || a.Packets() != 0 {
		t.Fatalf("empty archive: flows=%d packets=%d", a.Flows(), a.Packets())
	}
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(b)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Len() != 0 {
		t.Fatal("empty archive must decompress to empty trace")
	}
}

func TestCompressSinglePacketFlow(t *testing.T) {
	tr := trace.New("single")
	tr.Append(pkt.Packet{
		Timestamp: time.Millisecond,
		SrcIP:     pkt.Addr(10, 0, 0, 1), DstIP: pkt.Addr(20, 0, 0, 1),
		SrcPort: 5000, DstPort: 80, Proto: pkt.ProtoTCP,
		Flags: pkt.FlagSYN,
	})
	a, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Flows() != 1 || a.Packets() != 1 {
		t.Fatalf("flows=%d packets=%d", a.Flows(), a.Packets())
	}
	dec, err := Decompress(a)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Len() != 1 {
		t.Fatalf("decompressed %d packets", dec.Len())
	}
	if !dec.Packets[0].Flags.Has(pkt.FlagSYN) {
		t.Fatal("SYN class lost")
	}
}

func TestCompressExactBoundaryFlows(t *testing.T) {
	// Flows of exactly ShortMax packets are short; ShortMax+1 are long.
	opts := DefaultOptions()
	opts.ShortMax = 10

	mk := func(n int, cport uint16) []pkt.Packet {
		var out []pkt.Packet
		ts := time.Duration(0)
		for i := 0; i < n; i++ {
			ts += time.Millisecond
			p := pkt.Packet{
				Timestamp: ts,
				SrcIP:     pkt.Addr(10, 0, 0, 1), DstIP: pkt.Addr(20, 0, 0, 1),
				SrcPort: cport, DstPort: 80, Proto: pkt.ProtoTCP,
				Flags: pkt.FlagACK,
			}
			out = append(out, p)
		}
		return out
	}
	tr := trace.New("boundary")
	tr.Packets = append(tr.Packets, mk(10, 5000)...) // short
	tr.Packets = append(tr.Packets, mk(11, 5001)...) // long
	tr.Sort()
	a, err := Compress(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	var shorts, longs int
	for _, r := range a.TimeSeq {
		if r.Long {
			longs++
		} else {
			shorts++
		}
	}
	if shorts != 1 || longs != 1 {
		t.Fatalf("shorts=%d longs=%d, want 1/1", shorts, longs)
	}
}

func TestCompressOnlyLongFlows(t *testing.T) {
	opts := DefaultOptions()
	opts.ShortMax = 2
	tr := trace.New("long-only")
	ts := time.Duration(0)
	for i := 0; i < 30; i++ {
		ts += time.Millisecond
		tr.Append(pkt.Packet{
			Timestamp: ts,
			SrcIP:     pkt.Addr(10, 0, 0, 1), DstIP: pkt.Addr(20, 0, 0, 1),
			SrcPort: 7000, DstPort: 80, Proto: pkt.ProtoTCP, Flags: pkt.FlagACK,
		})
	}
	a, err := Compress(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.ShortTemplates) != 0 || len(a.LongTemplates) != 1 {
		t.Fatalf("short=%d long=%d", len(a.ShortTemplates), len(a.LongTemplates))
	}
	dec, err := Decompress(a)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Len() != tr.Len() {
		t.Fatalf("decompressed %d packets, want %d", dec.Len(), tr.Len())
	}
	// Long flows replay measured gaps exactly (µs resolution).
	gaps := flowGaps(flow.Assemble(dec.Packets)[0])
	for i, g := range gaps {
		if g != time.Millisecond {
			t.Fatalf("gap %d = %v, want 1ms", i, g)
		}
	}
}

func TestCompressHugeLimitCollapsesTemplates(t *testing.T) {
	tr := webTrace(40, 800)
	opts := DefaultOptions()
	opts.LimitPct = 100 // everything same-length merges
	a, err := Compress(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	lengths := map[int]bool{}
	for _, tpl := range a.ShortTemplates {
		if lengths[len(tpl)] {
			t.Fatal("limit 100% must leave at most one template per length")
		}
		lengths[len(tpl)] = true
	}
}

func TestCompressZeroLimitDisablesClustering(t *testing.T) {
	tr := webTrace(41, 300)
	opts := DefaultOptions()
	opts.LimitPct = 0
	a, err := Compress(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	shorts := 0
	for _, r := range a.TimeSeq {
		if !r.Long {
			shorts++
		}
	}
	if len(a.ShortTemplates) != shorts {
		t.Fatalf("0%% limit: %d templates for %d short flows", len(a.ShortTemplates), shorts)
	}
}

func TestDecompressDefaultRTTForRTTlessFlows(t *testing.T) {
	// A flow with no dependent packets has no RTT estimate; decompression
	// must fall back to the configured gap rather than stacking packets on
	// one timestamp.
	tr := trace.New("nodep")
	ts := time.Duration(0)
	for i := 0; i < 5; i++ {
		ts += 2 * time.Millisecond
		tr.Append(pkt.Packet{
			Timestamp: ts,
			SrcIP:     pkt.Addr(10, 0, 0, 1), DstIP: pkt.Addr(20, 0, 0, 1),
			SrcPort: 5000, DstPort: 80, Proto: pkt.ProtoTCP, Flags: pkt.FlagACK,
		})
	}
	a, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decompress(a)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[time.Duration]bool{}
	for _, p := range dec.Packets {
		if seen[p.Timestamp] {
			t.Fatal("duplicate timestamps in RTT-less flow")
		}
		seen[p.Timestamp] = true
	}
}

func TestEncodedLongFlowRTTZeroed(t *testing.T) {
	// The paper: "for long flows, the field RTT in the time-seq dataset is
	// not filled". Verify the encoding drops it.
	tr := webTrace(42, 400)
	a, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range b.TimeSeq {
		if r.Long && r.RTT != 0 {
			t.Fatalf("decoded long flow %d carries RTT %v", i, r.RTT)
		}
	}
}

func TestCompressorIgnoredAfterFinish(t *testing.T) {
	if a, _ := oneStage(DefaultOptions(), nil); a.Flows() != 0 || len(a.TimeSeq) != 0 {
		t.Fatal("a table stage fed nothing must finish empty")
	}
}

// edgeGaps are gaps at the edges of a packed gap run, which holds each in
// whole µs rounded down: 0 and 999 ns, both 0; 127 µs 999 ns, the last
// one-byte uvarint; 128 µs, the first two-byte one; and 2^57-1 ns, the
// largest gap a packet word holds.
var edgeGaps = []time.Duration{0, 999, 127*time.Microsecond + 999, 128 * time.Microsecond, 1<<57 - 1}

// TestLongGapRunEdges: a long flow with edgeGaps between its packets keeps
// each rounded down to the microsecond through Compress and through a run in
// one stage and in two, in memory or streamed, and Decompress of the archive
// in memory replays its packets at the first timestamp plus those gaps;
// through Encode, Decode, a Reader and the parallel decode they come back
// unchanged, each decoded run exactly sized. A hand-built template whose gaps
// end at maxIndexUS µs, the largest a decode yields, does the same through
// the container.
func TestLongGapRunEdges(t *testing.T) {
	opts := DefaultOptions()
	opts.ShortMax = 2
	tr := trace.New("gap edges")
	ts := time.Duration(0)
	for i, g := range slices.Concat([]time.Duration{0}, edgeGaps, edgeGaps) {
		ts += g
		p := pkt.Packet{
			Timestamp: ts,
			SrcIP:     pkt.Addr(10, 0, 0, 1), DstIP: pkt.Addr(20, 0, 0, 1),
			SrcPort: 7000, DstPort: 80, Proto: pkt.ProtoTCP, Flags: pkt.FlagACK, PayloadLen: uint16(100 * (i % 3)),
		}
		if i%4 == 3 {
			p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = p.DstIP, p.SrcIP, p.DstPort, p.SrcPort
		}
		tr.Append(p)
	}
	a, err := Compress(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	var floored []time.Duration
	for _, g := range slices.Concat(edgeGaps, edgeGaps) {
		floored = append(floored, floorUS(g))
	}
	if len(a.LongTemplates) != 1 || !slices.Equal(unpackGaps(a.LongTemplates[0].Gaps), floored) {
		t.Fatalf("Compress kept %d long templates, the first with gaps %v", len(a.LongTemplates), unpackGaps(a.LongTemplates[0].Gaps))
	}
	dec, err := Decompress(a)
	if err != nil {
		t.Fatal(err)
	}
	ts = 0
	for i := range dec.Packets {
		if i > 0 {
			ts += floored[i-1]
		}
		if dec.Packets[i].Timestamp != ts {
			t.Fatalf("packet %d decompressed at %v, want %v (captured at %v)", i, dec.Packets[i].Timestamp, ts, tr.Packets[i].Timestamp)
		}
	}
	a.Index = IndexConfig{Enabled: true}
	want := encodeBytes(t, a)
	p, err := NewPipeline(opts, PipelineConfig{Index: a.Index})
	if err != nil {
		t.Fatal(err)
	}
	for name, compress := range map[string]func() (*Archive, error){
		"default batch": func() (*Archive, error) { return p.Compress(trace.Batches(tr, 0)) },
		"one stage":     func() (*Archive, error) { return p.run(trace.Batches(tr, 3), 1) },
		"two stages":    func() (*Archive, error) { return p.run(trace.Batches(tr, 3), 2) },
	} {
		b, err := compress()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.EqualFunc(b.LongTemplates, a.LongTemplates, sameLong) || !bytes.Equal(encodeBytes(t, b), want) {
			t.Errorf("%s differs from Compress", name)
		}
	}

	top := time.Duration(maxIndexUS) * time.Microsecond
	hand := &Archive{
		Opts:          DefaultOptions(),
		LongTemplates: []LongTemplate{{F: bytes.Repeat(flow.Vector{53}, len(edgeGaps)+2), Gaps: packGaps(append(edgeGaps, top)...)}},
		Addresses:     []pkt.IPv4{0x0a000001},
		TimeSeq:       []TimeSeqRecord{{Long: true}},
		Index:         IndexConfig{Enabled: true},
	}
	for name, a := range map[string]*Archive{"compressed": a, "hand-built": hand} {
		c := encodeBytes(t, a)
		d, err := Decode(bytes.NewReader(c))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameArchive(t, name, d, wireForm(a))
		for _, lt := range d.LongTemplates {
			if cap(lt.F) != len(lt.F) || cap(lt.Gaps) != len(lt.Gaps) {
				t.Errorf("%s: decoded %d f values and %d gap bytes with room for %d and %d", name, len(lt.F), len(lt.Gaps), cap(lt.F), cap(lt.Gaps))
			}
		}
		want, err := Decompress(wireForm(a))
		if err != nil {
			t.Fatal(err)
		}
		readPaths(t, name, c, want)
	}
}

// TestOutOfOrderGapRefused: a table stage fed a long flow out of order — which
// every Pipeline refuses with ErrUnsorted before it gets that far — records
// the negative gap, -500 ns rounded down to -1 µs, a ten-byte uvarint, and
// Validate and Encode refuse the archive, naming the gap.
func TestOutOfOrderGapRefused(t *testing.T) {
	opts := DefaultOptions()
	opts.ShortMax = 2
	var packets []pkt.Packet
	for _, ts := range []time.Duration{time.Millisecond, 3 * time.Millisecond, 3*time.Millisecond - 500, 4 * time.Millisecond} {
		packets = append(packets, pkt.Packet{
			Timestamp: ts,
			SrcIP:     pkt.Addr(10, 0, 0, 1), DstIP: pkt.Addr(20, 0, 0, 1),
			SrcPort: 7000, DstPort: 80, Proto: pkt.ProtoTCP, Flags: pkt.FlagACK,
		})
	}
	a, _ := oneStage(opts, packets)
	gaps := []time.Duration{2 * time.Millisecond, -time.Microsecond, time.Millisecond}
	if len(a.LongTemplates) != 1 || !slices.Equal(unpackGaps(a.LongTemplates[0].Gaps), gaps) || len(a.LongTemplates[0].Gaps) != 2+10+2 {
		t.Fatalf("%d long templates, the first with a run of %x", len(a.LongTemplates), a.LongTemplates[0].Gaps)
	}
	const why = "core: long template 0 has gap 1 of -1µs"
	if err := a.Validate(); err == nil || err.Error() != why {
		t.Errorf("Validate = %v, want %q", err, why)
	}
	if _, err := a.Encode(io.Discard); err == nil || err.Error() != why {
		t.Errorf("Encode = %v, want %q", err, why)
	}
}

// TestValidateRefusesMalformedGapRuns: a gap run must hold len(F)-1 whole
// varints and nothing after them, each 0 to maxIndexUS µs. Gaps of 2^49 µs,
// the first eight-byte uvarint, and maxIndexUS µs pass.
func TestValidateRefusesMalformedGapRuns(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name string
		run  []byte
		why  string
	}{
		{"one gap short", packGaps(ms), "core: long template 0 has 1 gaps for 3 packets"},
		{"a whole gap too many", packGaps(ms, ms, 0), "core: long template 0 has 3 gaps for 3 packets"},
		{"a trailing byte", append(packGaps(ms, ms), 0x80), "core: long template 0 has gap 2 cut short after 1 bytes"},
		{"a truncated uvarint", packGaps(ms, ms)[:3], "core: long template 0 has gap 1 cut short after 1 bytes"},
		{"a gap past a duration", binary.AppendUvarint(packGaps(ms), maxIndexUS+1), "core: long template 0 has gap 1 of 9223372036854776µs"},
		{"a gap past 64 bits", append(bytes.Repeat([]byte{0xff}, 10), 1, 1), "core: long template 0 has gap 0 overflowing 64 bits"},
	} {
		a := &Archive{
			Opts:          DefaultOptions(),
			LongTemplates: []LongTemplate{{F: flow.Vector{21, 53, 59}, Gaps: tc.run}},
			Addresses:     []pkt.IPv4{0x0a000001},
			TimeSeq:       []TimeSeqRecord{{Long: true}},
		}
		if err := a.Validate(); err == nil || err.Error() != tc.why {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.why)
		}
	}
	a := &Archive{
		Opts:          DefaultOptions(),
		LongTemplates: []LongTemplate{{F: flow.Vector{21, 53, 59}, Gaps: binary.AppendUvarint(binary.AppendUvarint(nil, 1<<49), maxIndexUS)}},
		Addresses:     []pkt.IPv4{0x0a000001},
		TimeSeq:       []TimeSeqRecord{{Long: true}},
	}
	if err := a.Validate(); err != nil || len(a.LongTemplates[0].Gaps) != 2*maxGapBytes {
		t.Errorf("gaps of 2^49 and maxIndexUS µs in %d bytes: Validate = %v", len(a.LongTemplates[0].Gaps), err)
	}
}

// TestCharacterizeScratchBounded: a table stage keeps its characterization
// scratch after an ordinary long flow, and after one whose scratch passed
// maxScratch keeps at most maxScratch, not several times that flow's length,
// for the rest of its life.
func TestCharacterizeScratchBounded(t *testing.T) {
	opts := DefaultOptions()
	for _, n := range []int{300, 40000} {
		var packets []pkt.Packet
		for i := range n {
			packets = append(packets, pkt.Packet{
				Timestamp: time.Duration(i+1) * time.Millisecond,
				SrcIP:     pkt.Addr(10, 0, 0, 1), DstIP: pkt.Addr(20, 0, 0, 1),
				SrcPort: 7000, DstPort: 80, Proto: pkt.ProtoTCP, Flags: pkt.FlagACK,
			})
		}
		a, s := oneStage(opts, packets)
		if len(a.LongTemplates) != 1 || len(a.LongTemplates[0].F) != n {
			t.Fatalf("%d packets: %d long templates", n, len(a.LongTemplates))
		}
		if kept := cap(s.buf); kept > maxScratch || n < maxScratch/4 && kept < n {
			t.Errorf("%d packets: the table stage keeps %d bytes of scratch", n, kept)
		}
	}
}
