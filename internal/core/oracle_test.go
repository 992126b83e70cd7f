package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/stats"
	"flowzip/internal/trace"
	"flowzip/internal/wire"
)

// The container is lossless over what it stores, so its oracle is exact:
// Decode(Encode(a)) is a, field for field, once a is put in wire form.

// wireForm returns a as any container holds it: time-seq sorted, times in
// whole µs (long template gaps already are), no rtt on a long flow, the match threshold in hundredths, and the
// default group size spelled 0.
func wireForm(a *Archive) *Archive {
	w := *a
	w.Opts.LimitPct = math.Round(a.Opts.LimitPct*100) / 100
	if w.Index.GroupSize == DefaultIndexGroupSize {
		w.Index.GroupSize = 0
	}
	w.TimeSeq = slices.Clone(sortedTimeSeq(a.TimeSeq))
	for i := range w.TimeSeq {
		r := &w.TimeSeq[i]
		r.FirstTS, r.RTT = r.FirstTS.Truncate(time.Microsecond), r.RTT.Truncate(time.Microsecond)
		if r.Long {
			r.RTT = 0
		}
	}
	return &w
}

// sameArchive fails unless got and want agree in every field (a nil slice
// equals an empty one).
func sameArchive(t *testing.T, what string, got, want *Archive) {
	t.Helper()
	if got.Opts != want.Opts || got.Index != want.Index ||
		got.SourcePackets != want.SourcePackets || got.SourceTSHBytes != want.SourceTSHBytes {
		t.Fatalf("%s: header %+v %+v %d %d, want %+v %+v %d %d", what, got.Opts, got.Index, got.SourcePackets,
			got.SourceTSHBytes, want.Opts, want.Index, want.SourcePackets, want.SourceTSHBytes)
	}
	if !slices.EqualFunc(got.ShortTemplates, want.ShortTemplates, func(x, y flow.Vector) bool { return bytes.Equal(x, y) }) {
		t.Fatalf("%s: short templates differ", what)
	}
	if !slices.EqualFunc(got.LongTemplates, want.LongTemplates, sameLong) {
		t.Fatalf("%s: long templates differ", what)
	}
	if !slices.Equal(got.Addresses, want.Addresses) {
		t.Fatalf("%s: addresses differ", what)
	}
	if len(got.TimeSeq) != len(want.TimeSeq) {
		t.Fatalf("%s: %d time-seq records, want %d", what, len(got.TimeSeq), len(want.TimeSeq))
	}
	for i := range got.TimeSeq {
		if got.TimeSeq[i] != want.TimeSeq[i] {
			t.Fatalf("%s: time-seq %d = %+v, want %+v", what, i, got.TimeSeq[i], want.TimeSeq[i])
		}
	}
}

// The three bench shapes (bench/workloads.go), at the sizes that put their
// corner on the column coder.

// distinctTrace: short flows of random direction and payload class, so nearly
// every flow founds a template: with 9 000 flows the tag column has about as
// many symbols, far past wire.MaxSymbols.
func distinctTrace(seed uint64, flows int) *trace.Trace {
	rng := stats.NewRNG(seed)
	tr := trace.New("distinct")
	payloads := [3]uint16{0, 256, 1460}
	for i := 0; i < flows; i++ {
		client, server := pkt.IPv4(0x0b000000+uint32(i)), pkt.Addr(198, 51, byte(i%500/250), byte(1+i%250))
		cport := uint16(1024 + rng.Intn(60000))
		ts := time.Duration(i)*400*time.Microsecond + time.Duration(rng.Intn(300))*time.Microsecond
		n := 24 + (i+i/500)%25
		for k := 0; k < n; k++ {
			p := pkt.Packet{Timestamp: ts, SrcIP: client, DstIP: server, SrcPort: cport, DstPort: 80,
				Proto: pkt.ProtoTCP, Flags: pkt.FlagACK, TTL: 64, Window: 65535, PayloadLen: payloads[rng.Intn(3)]}
			switch {
			case k == 0:
				p.Flags, p.PayloadLen = pkt.FlagSYN, 0
			case k >= n-2:
				p.Flags, p.PayloadLen = pkt.FlagFIN|pkt.FlagACK, 0
			}
			if k == 1 || k == n-1 || k > 1 && k < n-2 && rng.Intn(2) == 0 {
				p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = server, client, 80, cport
			}
			if k == 1 {
				p.Flags = pkt.FlagSYN | pkt.FlagACK
			}
			tr.Append(p)
			ts += time.Duration(200+rng.Intn(600)) * time.Microsecond
		}
	}
	tr.Sort()
	return tr
}

// oracleArchives is every shape the oracle runs on: the three generators, the
// three bench shapes, and the degenerate ones.
func oracleArchives(t *testing.T) map[string]*Archive {
	t.Helper()
	distinctFlows := 9000
	if raceEnabled {
		distinctFlows = 1500 // matching is quadratic in templates and the detector slows it tenfold
	}
	traces := codecWorkloads() // web, fractal, p2p, flood, scan (one-symbol tag and rtt columns), bulk
	traces["distinct"] = distinctTrace(7, distinctFlows)
	traces["bulk-long"] = bulkTrace(3, 4500) // gaps of thousands per template
	traces["empty"] = trace.New("empty")
	traces["one-flow"] = scanTrace(1)
	as := make(map[string]*Archive, len(traces)+1)
	for name, tr := range traces {
		a, err := Compress(tr, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		as[name] = a
	}
	if n := len(as["distinct"].ShortTemplates); n < distinctFlows*9/10 {
		t.Fatalf("distinct: %d templates for %d flows, want nearly one each", n, distinctFlows)
	}
	as["one-symbol"] = oneSymbolArchive(3000) // every code zero bits long
	as["reversed"] = reversedArchive(as["web"])
	as["hand-built"] = handBuiltArchive()
	return as
}

// handBuiltArchive is an archive no compressor writes: weights other than the
// default, f values spanning every byte in both directions (so every f
// context and every gap context holds values), a one-packet long template,
// which has no gaps, and one whose f value after a 7 is nearly always 7, which
// puts the long f column through an rANS state.
func handBuiltArchive() *Archive {
	up := make(flow.Vector, 256)
	for i := range up {
		up[i] = byte(i)
	}
	down := slices.Clone(up)
	slices.Reverse(down)
	gaps := func(n int, scale time.Duration) []time.Duration {
		g := make([]time.Duration, n)
		for i := range g {
			g[i] = time.Duration(1+i*i%997) * scale
		}
		return g
	}
	skewed := bytes.Repeat(flow.Vector{7}, 2000)
	for i := 96; i < len(skewed); i += 97 {
		skewed[i] = 8
	}
	a := &Archive{
		Opts:           DefaultOptions(),
		ShortTemplates: []flow.Vector{{255}, up[:40], {0, 255, 0, 255, 7}},
		LongTemplates: []LongTemplate{
			{F: flow.Vector{200}},
			{F: up, Gaps: packGaps(gaps(255, time.Microsecond)...)},
			{F: down, Gaps: packGaps(gaps(255, time.Millisecond)...)},
			{F: skewed, Gaps: packGaps(gaps(len(skewed)-1, time.Microsecond)...)},
		},
		Addresses: []pkt.IPv4{0x0a000001, 0x0a000002, 0xc0a80001},
	}
	a.Opts.Weights = flow.Weights{Flag: 50, Dep: 20, Size: 5}
	for i := range 9 {
		a.TimeSeq = append(a.TimeSeq, TimeSeqRecord{FirstTS: time.Duration(i) * 3 * time.Millisecond,
			Long: i%2 == 1, Template: uint32(i % 3), RTT: time.Duration(i%2^1) * 40 * time.Millisecond, Addr: uint32(i % 3)})
	}
	return a
}

// unusedServer is the address reversedArchive adds: no generator's server.
const unusedServer = pkt.IPv4(0x01020304)

// reversedArchive is a's flows with the address dataset numbered backwards
// behind one address no flow uses. Index 0 is never referenced, so the
// time-seq new-address symbol, which stands for address 0 until it fires,
// never fires, and every address is written as its index plus one.
func reversedArchive(a *Archive) *Archive {
	if slices.Contains(a.Addresses, unusedServer) {
		panic("reversedArchive: the unused server is in use")
	}
	r := *a
	n := len(a.Addresses)
	r.Addresses = make([]pkt.IPv4, n+1)
	r.Addresses[0] = unusedServer
	for i, ip := range a.Addresses {
		r.Addresses[n-i] = ip
	}
	r.TimeSeq = slices.Clone(a.TimeSeq)
	for i := range r.TimeSeq {
		r.TimeSeq[i].Addr = uint32(n) - r.TimeSeq[i].Addr
	}
	return &r
}

// TestContainerOracle: Decode(Encode(a)) is a, on every shape, with and without a footer, at group sizes 1, 16, the
// default, and 1<<16; what Encode wrote, Encode writes again from the decoded
// archive; and with a footer a Reader extracts what Decompress decodes. Among
// the shapes are archives whose long templates are rANS-coded beside short
// ones that are not, plain and indexed, archives with the new-template symbols
// and without, plain and indexed, and footers coding their postings' first
// groups from each of the two predictions.
func TestContainerOracle(t *testing.T) {
	mixed := map[bool]bool{}      // by footer
	symbols := map[[2]bool]bool{} // by footer and flag
	preds := map[byte]bool{}      // the footers' predictions
	for name, a := range oracleArchives(t) {
		t.Run(name, func(t *testing.T) {
			for _, cfg := range []IndexConfig{{}, {Enabled: true}, {GroupSize: 1}, {Enabled: true, GroupSize: 1}, {GroupSize: 1 << 16}, {GroupSize: 16}, {Enabled: true, GroupSize: 16}} {
				a.Index = cfg
				var buf bytes.Buffer
				sizes, err := a.Encode(&buf)
				if err != nil {
					t.Fatal(err)
				}
				if sizes.Total() != int64(buf.Len()) || (sizes.Index != 0) != cfg.Enabled {
					t.Fatalf("%+v: sizes %+v for %d bytes", cfg, sizes, buf.Len())
				}
				_, info, err := Inspect(buf.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if f := info.Flushes; f.LongTemplates != 0 && f.ShortTemplates == 0 && len(a.ShortTemplates) > 0 {
					mixed[cfg.Enabled] = true
				}
				symbols[[2]bool{cfg.Enabled, buf.Bytes()[len(magic)+1]&flagNewTemplates != 0}] = true
				got, err := Decode(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("%+v: %v", cfg, err)
				}
				sameArchive(t, "Decode(Encode(a))", got, wireForm(a))
				if again := encodeBytes(t, got); !bytes.Equal(again, buf.Bytes()) {
					t.Fatalf("%+v: the decoded archive re-encodes to %d bytes that differ from the %d decoded", cfg, len(again), buf.Len())
				}
				if !cfg.Enabled {
					continue
				}
				r := openReader(t, buf.Bytes())
				// The footer is written whichever way takes fewer bytes,
				// prediction 0 on a tie.
				x, pred := r.idx, predPrevious
				footer := func(pred byte) []byte {
					var h [numFooterCols]wire.Histogram
					x.forEachValue(func(col int, previous, fresh uint64) {
						if pred == predFresh {
							previous = fresh
						}
						h[col].Add(previous)
					})
					var enc [numFooterCols]*wire.Encoder
					for col := range h {
						if x.has(col) {
							enc[col] = h[col].Encoder(false)
						}
					}
					return x.appendFooter(nil, pred, &enc)
				}
				if len(footer(predFresh)) < len(footer(predPrevious)) {
					pred = predFresh
				}
				if x.pred != pred {
					t.Fatalf("%+v: the footer's postings are coded from prediction %d, the smaller way is %d", cfg, x.pred, pred)
				}
				preds[pred] = true
				for _, g := range r.idx.groups {
					if name == "reversed" && g.fresh[newAddr] != 0 {
						t.Fatalf("%+v: the new-address symbol fired on a numbering it never matches", cfg)
					}
				}
				want, err := Decompress(got)
				if err != nil {
					t.Fatal(err)
				}
				all, err := r.ExtractFlows(FlowFilter{})
				if err != nil {
					t.Fatalf("%+v: %v", cfg, err)
				}
				samePackets(t, fmt.Sprintf("%+v: ExtractFlows", cfg), all.Packets, want.Packets)
			}
		})
	}
	if !mixed[false] || !mixed[true] {
		t.Errorf("no archive mixes rANS-coded long templates with bit-coded short ones, plain and indexed: %v", mixed)
	}
	if len(symbols) != 4 {
		t.Errorf("the archives take the new-template symbols, by footer and flag, only as %v", symbols)
	}
	if !preds[predPrevious] || !preds[predFresh] {
		t.Errorf("the footers code their postings' first groups from predictions %v, want both", preds)
	}
}

// TestLimitPctRoundTrips: the header stores the match threshold in
// hundredths, rounded. Truncated, as the paper-era versions 1 and 2 stored it,
// 0.29 came back as 0.28, 0.57 as 0.56, 1.13 as 1.12 and 4.35 as 4.34.
func TestLimitPctRoundTrips(t *testing.T) {
	a, err := Compress(webTrace(5, 40), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []float64{0.29, 0.57, 1.13, 4.35, 2.0} {
		a.Opts.LimitPct = limit
		got, err := Decode(bytes.NewReader(encodeBytes(t, a)))
		if err != nil {
			t.Fatal(err)
		}
		if got.Opts.LimitPct != limit {
			t.Errorf("Encode/Decode: limit %v came back as %v", limit, got.Opts.LimitPct)
		}
	}
}

// TestInspectAccountsForTheFile: Inspect reports the container as it is —
// its version, the sections its writer wrote — and attributes the
// entropy-coded sections to their columns: up to the run padding and the rANS
// flushes in the body, and exactly in the footer, whose postings are one
// unpadded run coding their first groups from the prediction it names, and
// whose group entries count new templates under the header's flag, which is
// held to it on and off. Every column holds at least the entropy of its
// values under the contexts they are coded in, and a template column has one
// table per context that holds values. The walk it counts with is the one the
// encoder builds its tables from. A sweep's footer codes its first groups
// from the groups that introduce their addresses, a Web mix's from the list
// before.
func TestInspectAccountsForTheFile(t *testing.T) {
	flags := map[bool]bool{} // the new-template flag of the files held to it
	for name, a := range oracleArchives(t) {
		t.Run(name, func(t *testing.T) {
			a.Index = IndexConfig{Enabled: true, GroupSize: 64}
			contexts := [numContextCols]map[int]bool{{}, {}, {}}
			cs := a.columnEncoders(sortedTimeSeq(a.TimeSeq), new(encodeBuffers))
			a.forEachValue(a.TimeSeq, false, &cs.gaps, cs.rtts, func(col, ctx int, _ uint64) {
				if col < numContextCols {
					contexts[col][ctx] = true
				}
			})
			long := int64(0)
			for _, r := range a.TimeSeq {
				if r.Long {
					long++
				}
			}
			sections := builtSections(t, a)
			file := bytes.Join(sections, nil)
			d, info, err := Inspect(file)
			if err != nil {
				t.Fatal(err)
			}
			sameArchive(t, "Inspect", d, wireForm(a))
			flagged := file[len(magic)+1]&flagNewTemplates != 0
			want := sectionSizes(sections)
			want.Index = int64(len(sections[5]))
			if info.Version != int(file[len(magic)]) || info.Sections != want {
				t.Fatalf("Inspect says version %d, sections %+v for %d bytes written as %+v", info.Version, info.Sections, len(file), want)
			}
			flags[flagged] = true
			wantCols := numColumns + numFooterCols
			if !flagged {
				wantCols -= 2 // the new-template counts
			}
			if len(info.Columns) != wantCols {
				t.Fatalf("%d columns, want %d", len(info.Columns), wantCols)
			}
			if named := strings.Contains(info.Columns[colTag].Name, "new-template"); named != flagged {
				t.Errorf("the tag column is %q", info.Columns[colTag].Name)
			}
			rtt := file[len(magic)+1]&flagRTTGaps != 0
			if named := strings.Contains(info.Columns[colGap].Name, "RTT"); named != rtt || rtt != cs.gaps.rtt {
				t.Errorf("the gap column is %q, the encoder's RTT flag %v", info.Columns[colGap].Name, cs.gaps.rtt)
			}
			section := map[string]float64{}
			tables := int64(0)
			for i, col := range info.Columns {
				wantTables := 1
				if i < numContextCols {
					wantTables = len(contexts[i])
				}
				if col.Tables != wantTables {
					t.Errorf("%s: %d tables, want %d", col.Name, col.Tables, wantTables)
				}
				if col.Mode == "rans" && col.Section == "footer index" {
					t.Errorf("%s: coded rans", col.Name)
				}
				if col.Bits < 0 || col.Bits+1e-6 < col.EntropyBits*(1-1e-12) {
					t.Errorf("%s: %.1f bits as written under an entropy of %.1f", col.Name, col.Bits, col.EntropyBits)
				}
				section[col.Section] += col.Bits
				if col.Section != "footer index" {
					tables += int64(col.TableBytes)
				}
			}
			if n := int64(a.Flows()); info.Columns[colDelta].Values != n || info.Columns[colTag].Values != n ||
				info.Columns[colAddr].Values != n || info.Columns[colRTT].Values != n-long {
				t.Errorf("time-seq columns hold %+v values for %d flows, %d long", info.Columns[colDelta:numColumns], n, long)
			}
			if want := info.Sections.Header - tables; want < 13 || want > 40 {
				t.Errorf("header of %d bytes with %d bytes of tables", info.Sections.Header, tables)
			}
			fl := info.Flushes
			for sec, size := range map[string][2]int64{"short templates": {info.Sections.ShortTemplates, fl.ShortTemplates}, "long templates": {info.Sections.LongTemplates, fl.LongTemplates}, "time-seq": {info.Sections.TimeSeq, fl.TimeSeq}} {
				if section[sec]/8+float64(size[1]) > float64(size[0]) {
					t.Errorf("%s: columns take %.1f bytes and flushes %d of a %d-byte section", sec, section[sec]/8, size[1], size[0])
				}
			}
			// The footer is its head, which ends in the prediction byte, a
			// table per column and one unpadded run of every column's
			// values.
			x := openReader(t, file).idx
			if x.newTemplates != flagged {
				t.Fatalf("the footer counts new templates: %v", x.newTemplates)
			}
			postings, nonEmpty := 0, int64(0)
			for _, p := range x.postings {
				postings += len(p)
				if len(p) > 0 {
					nonEmpty++
				}
			}
			footer, footerTables := map[string]int64{}, int64(0) // values by the name's first two words
			for _, col := range info.Columns[numColumns:] {
				words := strings.Fields(col.Name)
				footer[words[0]+" "+words[1]] += col.Values
				footerTables += int64(col.TableBytes)
			}
			groups, shortGroups := int64(len(x.groups)), int64(len(a.ShortTemplates)+63)/64
			if footer["postings length"] != int64(len(a.Addresses)) || footer["postings first"] != nonEmpty ||
				footer["postings first"]+footer["postings group"] != int64(postings) ||
				footer["short template"] != shortGroups || footer["long template"] != int64(len(a.LongTemplates)) ||
				footer["group offset"] != groups || footer["group first"] != groups || footer["group timestamp"] != groups ||
				footer["group new"] != groups*int64(wantCols-numColumns-8) {
				t.Errorf("footer columns hold %v for %d addresses, %d lists, %d postings, %d groups", footer, len(a.Addresses), nonEmpty, postings, groups)
			}
			size := int64(len(x.appendHead(nil, len(a.Addresses), postings, x.pred))) +
				int64(math.Ceil(section["footer index"]/8)) + footerTables + trailerLen
			if size != info.Sections.Index {
				t.Errorf("the footer's parts come to %d bytes, the footer has %d", size, info.Sections.Index)
			}
			// A sweep's time-seq names each server first in the order the
			// dataset numbers them, so every list starts at the group that
			// introduces its address; Compress numbers the Web mix's servers
			// as their flows complete, which is another order.
			if want, ok := map[string]byte{"scan": predFresh, "web": predPrevious}[name]; ok && x.pred != want {
				t.Errorf("the footer codes its first groups from prediction %d, want %d", x.pred, want)
			}

			var h [numColumns]wire.Histogram
			var th [numContextCols]*wire.ContextHistogram
			for col := range th {
				th[col] = wire.NewContextHistogram(columns[col].contexts)
			}
			recs := sortedTimeSeq(a.TimeSeq)
			c := a.columnEncoders(recs, new(encodeBuffers))
			a.forEachValue(recs, c.newTemplates, &c.gaps, c.rtts, func(col, ctx int, v uint64) {
				if col < numContextCols {
					th[col].Add(ctx, v)
				} else {
					h[col].Add(v)
				}
			})
			for col := range columns {
				var walked []byte
				var built []byte
				if col < numContextCols {
					walked, built = th[col].Encoder(c.rans[col]).AppendTables(nil), c.tpl[col].AppendTables(nil)
				} else {
					walked, built = h[col].Encoder(false).AppendTable(nil), c.enc[col].AppendTable(nil)
				}
				if !bytes.Equal(walked, built) {
					t.Errorf("%s: forEachValue and columnEncoders count different columns", columns[col].what)
				}
			}
		})
	}
	if len(flags) != 2 {
		t.Errorf("the files held to it have the new-template flag only as %v", flags)
	}
}
