package core

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"flowzip/internal/pkt"
	"flowzip/internal/stats"
	"flowzip/internal/trace"
)

// readFlowKey identifies one decompressed flow by the 5-tuple the
// decompressor synthesizes for it: the client identity is drawn from a
// 2^47-value space, so distinct records collide with negligible (and, per
// fixed seed, reproducible) probability.
type readFlowKey struct {
	client pkt.IPv4
	cport  uint16
	server pkt.IPv4
}

// keyOf canonicalizes a packet to its flow key; the synthesized server side
// always uses port 80 and client ports are ≥ 1024.
func keyOf(p pkt.Packet) readFlowKey {
	if p.SrcPort == 80 {
		return readFlowKey{client: p.DstIP, cport: p.DstPort, server: p.SrcIP}
	}
	return readFlowKey{client: p.SrcIP, cport: p.SrcPort, server: p.DstIP}
}

// filterPackets computes the reference answer for a FlowFilter from the full
// serial decompression: keep exactly the packets of flows whose first packet
// lies in the time window and whose server address lies under the prefix.
func filterPackets(full []pkt.Packet, f FlowFilter) []pkt.Packet {
	return packetFilterer(full)(f)
}

// packetFilterer is filterPackets for many filters over one decompression:
// the flow of every packet is looked up once.
func packetFilterer(full []pkt.Packet) func(FlowFilter) []pkt.Packet {
	start := make(map[readFlowKey]time.Duration)
	keys := make([]readFlowKey, len(full))
	for i, p := range full {
		keys[i] = keyOf(p)
		if _, ok := start[keys[i]]; !ok {
			start[keys[i]] = p.Timestamp
		}
	}
	starts := make([]time.Duration, len(full))
	for i, k := range keys {
		starts[i] = start[k]
	}
	return func(f FlowFilter) []pkt.Packet {
		out := []pkt.Packet{}
		for i, p := range full {
			if f.matchTime(starts[i]) && f.matchAddr(keys[i].server) {
				out = append(out, p)
			}
		}
		return out
	}
}

// samePackets fails unless got and want are element-for-element identical.
func samePackets(t *testing.T, what string, got, want []pkt.Packet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d packets, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: packet %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// floodTrace builds n single-packet flows sharing one timestamp — the
// degenerate workload where merge order is decided entirely by tie-breaking.
func floodTrace(n int) *trace.Trace {
	tr := trace.New("flood")
	for i := 0; i < n; i++ {
		tr.Append(pkt.Packet{
			Timestamp: time.Second,
			SrcIP:     pkt.IPv4(0x0a000000 + uint32(i)),
			DstIP:     pkt.IPv4(0xc0a80100 + uint32(i%7)),
			SrcPort:   uint16(1024 + i%60000),
			DstPort:   80,
			Proto:     pkt.ProtoTCP,
			Flags:     pkt.FlagSYN,
			TTL:       64,
			Window:    65535,
		})
	}
	return tr
}

// readPathWorkloads returns the workload sweep of the read-path property
// tests: the paper's three traffic shapes plus the one-packet-flow flood.
func readPathWorkloads() map[string]*trace.Trace {
	return map[string]*trace.Trace{
		"web":     webTrace(31, 300),
		"fractal": fractalTrace(32, 4000),
		"p2p":     p2pTrace(33),
		"flood":   floodTrace(1000),
	}
}

// TestExtractFlowsMatchesFilteredDecompress is the selective-decode property:
// for every address prefix length and a sweep of time windows, ExtractFlows
// over the index returns exactly the packets that filtering the full serial
// decompression by flow would.
func TestExtractFlowsMatchesFilteredDecompress(t *testing.T) {
	for name, tr := range readPathWorkloads() {
		t.Run(name, func(t *testing.T) {
			a, err := Compress(tr, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			full, err := Decompress(a)
			if err != nil {
				t.Fatal(err)
			}
			fz := indexedArchive(t, a, IndexConfig{Enabled: true, GroupSize: 16})
			r, err := OpenReader(bytes.NewReader(fz), int64(len(fz)))
			if err != nil {
				t.Fatal(err)
			}

			check := func(f FlowFilter) {
				t.Helper()
				got, err := r.ExtractFlows(f)
				if err != nil {
					t.Fatalf("filter %+v: %v", f, err)
				}
				samePackets(t, fmt.Sprintf("filter %+v", f), got.Packets, filterPackets(full.Packets, f))
			}

			// Every prefix length, anchored at two archive addresses —
			// sweeping from match-all through /32 exact matches.
			anchors := []pkt.IPv4{a.Addresses[0], a.Addresses[len(a.Addresses)/2]}
			for _, ip := range anchors {
				for plen := 0; plen <= 32; plen++ {
					check(FlowFilter{Prefix: ip, PrefixLen: plen})
				}
			}
			// A prefix matching no archive address at all.
			check(FlowFilter{Prefix: pkt.IPv4(0x01010101), PrefixLen: 32})

			// Time windows across the trace span, including empty and
			// open-ended ones, alone and combined with a prefix.
			span := full.Packets[len(full.Packets)-1].Timestamp
			q1, q3 := span/4, 3*span/4
			windows := []FlowFilter{
				{},
				{To: q1 + 1},
				{From: q1},
				{From: q1, To: q3 + 1},
				{From: span + time.Second},
				{To: 1},
			}
			for _, f := range windows {
				check(f)
				f.Prefix, f.PrefixLen = anchors[1], 16
				check(f)
			}
		})
	}
}

// TestDecompressMatchesStableSort pins the serial decode, which every other
// read path is compared with, to the order the merge stands for: each flow
// decoded on its own, in time-seq record order, and the packets stable-sorted
// by timestamp — (timestamp, record, packet), with no heap in sight.
func TestDecompressMatchesStableSort(t *testing.T) {
	for name, tr := range readPathWorkloads() {
		t.Run(name, func(t *testing.T) {
			a, err := Compress(tr, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decompress(a)
			if err != nil {
				t.Fatal(err)
			}
			d, err := newDecompressor(a)
			if err != nil {
				t.Fatal(err)
			}
			want := trace.New("naive")
			var pool cursorPool
			for i := range a.TimeSeq {
				for c := pool.open(d, &a.TimeSeq[i], i, drawIdentity(d.rng)); !c.done; c.advance() {
					want.Append(c.next)
				}
			}
			want.Sort()
			samePackets(t, "Decompress", got.Packets, want.Packets)
		})
	}
}

// TestDecompressParallelMatchesSerial pins the parallel full decode to the
// serial output for every worker count, across all workloads.
func TestDecompressParallelMatchesSerial(t *testing.T) {
	for name, tr := range readPathWorkloads() {
		t.Run(name, func(t *testing.T) {
			a, err := Compress(tr, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			want, err := Decompress(a)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				got, err := DecompressParallel(a, workers)
				if err != nil {
					t.Fatal(err)
				}
				samePackets(t, fmt.Sprintf("%d workers", workers), got.Packets, want.Packets)
			}
			// 0 selects one worker per CPU; whatever that resolves to, the
			// output contract is the same.
			got, err := DecompressParallel(a, 0)
			if err != nil {
				t.Fatal(err)
			}
			samePackets(t, "default workers", got.Packets, want.Packets)
		})
	}
}

// TestIdentityDrawsPinned pins the identityDraws contract: drawIdentity must
// consume exactly that many RNG values, because rngSkipRecords fast-forwards
// the stream arithmetically when the reader skips records.
func TestIdentityDrawsPinned(t *testing.T) {
	a, b := stats.NewRNG(99), stats.NewRNG(99)
	drawIdentity(a)
	for i := 0; i < identityDraws; i++ {
		b.Uint64()
	}
	for i := 0; i < 16; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("RNG streams diverge %d values after drawIdentity: %d != %d — identityDraws is wrong", i, x, y)
		}
	}
}

// TestRNGSkipRecordsMatchesDraws checks the skip helper against real draws.
func TestRNGSkipRecordsMatchesDraws(t *testing.T) {
	a, b := stats.NewRNG(7), stats.NewRNG(7)
	const n = 13
	for i := 0; i < n; i++ {
		drawIdentity(a)
	}
	rngSkipRecords(b, n)
	if x, y := a.Uint64(), b.Uint64(); x != y {
		t.Fatalf("rngSkipRecords(%d) lands elsewhere than %d drawIdentity calls: %d != %d", n, n, x, y)
	}
}

// sweepFilters returns the filter sweep of the warm-Reader tests over an
// archive whose decompressed trace spans span: every /32 (an even stride of
// some 256 of them where there are more: each also costs a fresh Reader),
// every prefix length at three anchor addresses, a sliding sweep of windows
// plus the edge windows, and each window intersected with four prefixes —
// over 200 filters on any workload.
func sweepFilters(a *Archive, span time.Duration) []FlowFilter {
	var fs []FlowFilter
	for i := 0; i < len(a.Addresses); i += max(1, len(a.Addresses)/256) {
		fs = append(fs, FlowFilter{Prefix: a.Addresses[i], PrefixLen: 32})
	}
	first, mid, last := a.Addresses[0], a.Addresses[len(a.Addresses)/2], a.Addresses[len(a.Addresses)-1]
	for _, ip := range []pkt.IPv4{first, mid, last} {
		for plen := 0; plen <= 32; plen++ {
			fs = append(fs, FlowFilter{Prefix: ip, PrefixLen: plen})
		}
	}
	windows := []FlowFilter{{To: span/4 + 1}, {From: span / 4}, {From: span + time.Second}, {To: 1}}
	for k := time.Duration(0); k < 16; k++ {
		windows = append(windows, FlowFilter{From: k * span / 16, To: (k+2)*span/16 + 1})
	}
	for _, w := range windows {
		fs = append(fs, w)
		for _, p := range []FlowFilter{{Prefix: first, PrefixLen: 32}, {Prefix: mid, PrefixLen: 24}, {Prefix: mid, PrefixLen: 16}, {Prefix: last, PrefixLen: 8}} {
			w.Prefix, w.PrefixLen = p.Prefix, p.PrefixLen
			fs = append(fs, w)
		}
	}
	return fs
}

// openReader opens the container b, which must be a valid indexed archive.
func openReader(t *testing.T, b []byte) *Reader {
	t.Helper()
	r, err := OpenReader(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// shuffled returns 0..n-1 in a seeded random order.
func shuffled(n int, seed uint64) []int {
	rng := stats.NewRNG(seed)
	order := make([]int, n)
	for i := range order {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], i
	}
	return order
}

// sweepCase is one workload of the warm-Reader tests: its indexed container
// at group size 16, the full decompression and the filter sweep.
type sweepCase struct {
	fz      []byte
	full    []pkt.Packet
	filters []FlowFilter
}

func newSweepCase(t *testing.T, tr *trace.Trace) *sweepCase {
	t.Helper()
	a, err := Compress(tr, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress(a)
	if err != nil {
		t.Fatal(err)
	}
	c := &sweepCase{
		fz:      indexedArchive(t, a, IndexConfig{Enabled: true, GroupSize: 16}),
		full:    full.Packets,
		filters: sweepFilters(a, full.Packets[len(full.Packets)-1].Timestamp),
	}
	if len(c.filters) < 200 {
		t.Fatalf("sweep has %d filters, want at least 200", len(c.filters))
	}
	return c
}

// sweep issues every filter on r twice, in two seeded random orders dealt
// round-robin to four goroutines, and hands each answer to check (which may
// be nil).
func (c *sweepCase) sweep(t *testing.T, r *Reader, check func(i int, got []pkt.Packet)) {
	t.Helper()
	order := append(shuffled(len(c.filters), 1000), shuffled(len(c.filters), 1001)...)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; k < len(order); k += 4 {
				i := order[k]
				got, err := r.ExtractFlows(c.filters[i])
				if err != nil {
					t.Errorf("filter %+v: %v", c.filters[i], err)
					return
				}
				if check != nil {
					check(i, got.Packets)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

// templatesHeld returns how many templates r holds, failing t unless every
// short template group it loaded is held whole: short templates load by
// their group, long ones one by one.
func templatesHeld(t *testing.T, r *Reader) int {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	held := 0
	for g, loaded := range r.shortLoaded {
		lo := g * r.idx.groupSize
		for i, v := range r.arch.ShortTemplates[lo:min(lo+r.idx.groupSize, r.idx.shorts)] {
			if (v != nil) != loaded {
				t.Fatalf("short template %d of group %d held %v, its group loaded %v", lo+i, g, v != nil, loaded)
			}
			if loaded {
				held++
			}
		}
	}
	for _, loaded := range r.longLoaded {
		if loaded {
			held++
		}
	}
	return held
}

// TestWarmReaderMatchesFresh is the memo's property: whatever a Reader has
// already been asked, in whatever order and from however many goroutines, a
// query answers what a fresh Reader and the filtered full decode answer, and
// a Reader holds every short template group it has touched whole.
func TestWarmReaderMatchesFresh(t *testing.T) {
	for name, tr := range readPathWorkloads() {
		t.Run(name, func(t *testing.T) {
			c := newSweepCase(t, tr)
			want, reference := make([][]pkt.Packet, len(c.filters)), packetFilterer(c.full)
			for i, f := range c.filters {
				want[i] = reference(f)
				fresh := openReader(t, c.fz)
				got, err := fresh.ExtractFlows(f)
				if err != nil {
					t.Fatalf("fresh Reader, filter %+v: %v", f, err)
				}
				samePackets(t, fmt.Sprintf("fresh Reader, filter %+v", f), got.Packets, want[i])
				templatesHeld(t, fresh)
			}
			warm := openReader(t, c.fz)
			c.sweep(t, warm, func(i int, got []pkt.Packet) {
				if !slices.Equal(got, want[i]) {
					t.Errorf("warm Reader, filter %+v: %d packets differ from the fresh Reader's %d", c.filters[i], len(got), len(want[i]))
				}
			})
			templatesHeld(t, warm)
		})
	}
}

// TestReaderReadsBodyOnce pins what the memo buys: over any number of queries
// a Reader fetches each group, each short template group and each long
// template at most once, so its body reads are bounded by the body and the
// templates it counts as loaded are the ones it holds, and a query it has
// answered before reads nothing at all.
func TestReaderReadsBodyOnce(t *testing.T) {
	for name, tr := range readPathWorkloads() {
		t.Run(name, func(t *testing.T) {
			c := newSweepCase(t, tr)
			r := openReader(t, c.fz)
			if r.idx.groupSize != 16 || len(r.idx.shortOffs) != (r.idx.shorts+15)/16 {
				t.Fatalf("%d short templates in %d groups of %d, want groups of 16", r.idx.shorts, len(r.idx.shortOffs), r.idx.groupSize)
			}
			c.sweep(t, r, nil)
			st, is := r.Stats(), r.IndexStats()
			if st.BodyBytesRead > is.BodyBytes || st.GroupsDecoded > is.Groups {
				t.Fatalf("%d queries read %d body bytes of %d and decoded %d groups of %d", 2*len(c.filters), st.BodyBytesRead, is.BodyBytes, st.GroupsDecoded, is.Groups)
			}
			if held := templatesHeld(t, r); st.TemplatesLoaded != held || held > is.ShortTemplates+is.LongTemplates {
				t.Fatalf("loaded %d templates, holds %d of %d", st.TemplatesLoaded, held, is.ShortTemplates+is.LongTemplates)
			}
			for _, f := range c.filters {
				if _, err := r.ExtractFlows(f); err != nil {
					t.Fatal(err)
				}
				if now := r.Stats(); now.BytesRead != st.BytesRead || now.GroupsDecoded != st.GroupsDecoded || now.TemplatesLoaded != st.TemplatesLoaded {
					t.Fatalf("repeating filter %+v read %d bytes, decoded %d groups and loaded %d templates", f,
						now.BytesRead-st.BytesRead, now.GroupsDecoded-st.GroupsDecoded, now.TemplatesLoaded-st.TemplatesLoaded)
				}
			}
		})
	}
}

// TestRNGBeforeGroup checks the kept RNG states against the definition: in
// front of group g the identity RNG has skipped exactly the records of the
// groups before it — after the sweep's arbitrary first-touch order, and on a
// fresh Reader asked for the groups in random order.
func TestRNGBeforeGroup(t *testing.T) {
	for name, tr := range readPathWorkloads() {
		t.Run(name, func(t *testing.T) {
			c := newSweepCase(t, tr)
			warm, fresh := openReader(t, c.fz), openReader(t, c.fz)
			c.sweep(t, warm, nil)
			for _, g := range shuffled(len(warm.idx.groups), 5) {
				want := stats.NewRNG(modelSeed)
				rngSkipRecords(want, warm.idx.groups[g].startRec)
				for what, r := range map[string]*Reader{"warm": warm, "fresh": fresh} {
					r.mu.Lock()
					got := r.rngBefore(g)
					r.mu.Unlock()
					if got != *want {
						t.Fatalf("%s Reader: RNG before group %d is not the seed advanced by %d records", what, g, warm.idx.groups[g].startRec)
					}
				}
			}
		})
	}
}

// TestReadPathsEqualAcrossVersions: every oracle archive decodes to itself
// and gives its packets through Decompress, DecompressParallel and
// ExtractFlows.
func TestReadPathsEqualAcrossVersions(t *testing.T) {
	for name, a := range oracleArchives(t) {
		t.Run(name, func(t *testing.T) {
			a.Index = IndexConfig{Enabled: true, GroupSize: 64}
			want, err := Decompress(wireForm(a))
			if err != nil {
				t.Fatal(err)
			}
			filters := []FlowFilter{{}}
			if len(a.Addresses) > 0 {
				mid := a.TimeSeq[len(a.TimeSeq)/2].FirstTS
				filters = append(filters,
					FlowFilter{Prefix: a.Addresses[len(a.Addresses)/2], PrefixLen: 32},
					FlowFilter{Prefix: a.Addresses[0], PrefixLen: 8},
					FlowFilter{From: mid / 2, To: mid + 1},
					FlowFilter{Prefix: a.Addresses[0], PrefixLen: 2, From: mid / 2})
			}
			b := encodeBytes(t, a)
			d, err := Decode(bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			sameArchive(t, "Decode", d, wireForm(a))

			got, err := DecompressParallel(d, 3)
			if err != nil {
				t.Fatal(err)
			}
			samePackets(t, "DecompressParallel", got.Packets, want.Packets)
			r := openReader(t, b)
			for _, f := range filters {
				got, err := r.ExtractFlows(f)
				if err != nil {
					t.Fatalf("filter %+v: %v", f, err)
				}
				samePackets(t, fmt.Sprintf("ExtractFlows(%+v)", f), got.Packets, filterPackets(want.Packets, f))
			}
			if s := r.IndexStats(); s.Groups != (a.Flows()+63)/64 || s.Flows != a.Flows() {
				t.Fatalf("index stats %+v", s)
			}
		})
	}
}
