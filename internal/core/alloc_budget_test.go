package core

import (
	"bytes"
	"errors"
	"math"
	"math/bits"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"flowzip/internal/alloctest"
	"flowzip/internal/flow"
	"flowzip/internal/pkt"
	"flowzip/internal/trace"
)

// allocBytes returns the bytes fn allocates, measured the way bench/ measures
// compress_alloc_b_per_pkt: TotalAlloc across the call, after two collections
// so tablePool (a sync.Pool survives one) starts cold like a fresh process.
func allocBytes(fn func()) float64 {
	runtime.GC()
	runtime.GC()
	return float64(alloctest.Bytes(fn))
}

// leastAllocBytes is allocBytes read as the least of three runs, each from a
// cold pool. TotalAlloc counts the whole process, so one reading can take in
// what another goroutine allocated meanwhile; the least of three holds the
// budget to what fn itself allocates.
func leastAllocBytes(fn func()) float64 {
	return min(allocBytes(fn), allocBytes(fn), allocBytes(fn))
}

// wideBlocks returns the length of t's wide store, which holds the exact gaps
// of the packet words whose gaps are not whole µs under 67 s (flow.Table.wide;
// it has no reader outside the package, so reflection reads it).
func wideBlocks(t *flow.Table) int { return reflect.ValueOf(t).Elem().FieldByName("wide").Len() }

// budgetTraces builds the three flow shapes the allocation tests run on: 20 k
// one-packet flows, 16 flows of 4 k packets, and the staggered variant
// TestCompressAllocBudget describes.
func budgetTraces() (scan, bulk, stagger *trace.Trace) {
	scan = trace.New("scan")
	for i := 0; i < 20000; i++ {
		scan.Append(pkt.Packet{
			Timestamp: time.Duration(i) * 50 * time.Microsecond,
			SrcIP:     pkt.Addr(10, 0, 0, 1), DstIP: pkt.IPv4(0x14000000 + uint32(i)),
			SrcPort: uint16(1024 + i%60000), DstPort: 80,
			Proto: pkt.ProtoTCP, Flags: pkt.FlagSYN, TTL: 64,
		})
	}
	bulk = trace.New("bulk")
	for i := 0; i < 16*4096; i++ {
		c := uint32(i % 16)
		p := pkt.Packet{
			Timestamp: time.Duration(i) * 10 * time.Microsecond,
			SrcIP:     pkt.IPv4(0x0a000000 + c), DstIP: pkt.Addr(20, 0, 0, 1),
			SrcPort: uint16(1024 + c), DstPort: 80,
			Proto: pkt.ProtoTCP, Flags: pkt.FlagACK, TTL: 64, PayloadLen: 1460,
		}
		if i/16%4 == 3 { // every fourth packet of a flow is the receiver's ack
			p.SrcIP, p.DstIP, p.SrcPort, p.DstPort, p.PayloadLen = p.DstIP, p.SrcIP, p.DstPort, p.SrcPort, 0
		}
		bulk.Append(p)
	}

	stagger = trace.New("stagger")
	const longFlows, longLen, lag = 16, 4096, 256
	for round := 0; round < (longFlows-1)*lag+longLen; round++ {
		for c := uint32(0); c < longFlows; c++ {
			n := round - int(c)*lag // index of this packet in flow c
			if n < 0 || n >= longLen {
				continue
			}
			p := pkt.Packet{
				Timestamp: time.Duration(stagger.Len()) * 10 * time.Microsecond,
				SrcIP:     pkt.IPv4(0x0a000000 + c), DstIP: pkt.Addr(20, 0, 0, 1),
				SrcPort: uint16(1024 + c), DstPort: 80,
				Proto: pkt.ProtoTCP, Flags: pkt.FlagACK, TTL: 64, PayloadLen: 1460,
			}
			if n == longLen-1 {
				p.Flags = pkt.FlagRST
			}
			stagger.Append(p)
			if n == longLen-1 {
				p.Timestamp += 5 * time.Microsecond
				p.SrcIP, p.Flags, p.PayloadLen = pkt.IPv4(0x0b000000+c), pkt.FlagSYN, 0
				stagger.Append(p)
			}
		}
	}
	return scan, bulk, stagger
}

// rstTrace is 20 k four-packet flows, one after the other, each closed by its
// server's RST: every time-seq record is a closed one, staged while the trace
// runs and sorted at the end, and the flow table only ever holds one flow.
func rstTrace() *trace.Trace {
	tr := trace.New("rst")
	for i := 0; i < 20000; i++ {
		for j, flags := range []pkt.TCPFlags{pkt.FlagSYN, pkt.FlagSYN | pkt.FlagACK, pkt.FlagACK, pkt.FlagRST} {
			p := pkt.Packet{
				Timestamp: time.Duration(4*i+j) * 10 * time.Microsecond,
				SrcIP:     pkt.IPv4(0x0a000000 + uint32(i)), DstIP: pkt.Addr(20, 0, 0, byte(i%16)),
				SrcPort: uint16(1024 + i%60000), DstPort: 80,
				Proto: pkt.ProtoTCP, Flags: flags, TTL: 64,
			}
			if j%2 == 1 {
				p.SrcIP, p.DstIP, p.SrcPort, p.DstPort = p.DstIP, p.SrcIP, p.DstPort, p.SrcPort
			}
			tr.Append(p)
		}
	}
	return tr
}

// TestCompressAllocBudget pins what serial Compress allocates on the extreme
// flow shapes, split the way bench/'s traced pass splits it: the flow.Table
// stage on its own (AcquireTable + Add + Flush into a recycling sink) and the
// rest of core (time-seq records, address table, template store, long-template
// copies). The ceilings sit about 10 % over the measured values — 20 k
// one-packet flows: 74.3 B/flow in flow.Table (78.3 while a packet word was 8
// bytes, 97.0 while a Flow was 72 bytes and held two pointers), 50.5 in core
// (108.2 and 63.2 when both hash tables doubled); 16 flows of 4 k packets: 4.6
// B/pkt in flow.Table (8.9 with 8-byte packet words, 9.2 while the page
// directory held a pointer a page, 17.2 when a flow's words past 64 sat in one
// array doubled at each fill), 3.4 in core, nearly all of it the long templates' f values and
// packed gaps in whole µs in one exact allocation a flow (4.4 while the packed
// gaps were in ns, 9.3 when they were 8-byte durations in an allocation of
// their own) — so a change that brings
// back per-flow over-allocation, append regrowth or a wider record fails here,
// in tier 1, and not only in bench/. Per flow the scan row is 56-byte,
// pointer-free flows in 255-flow slabs behind one table pointer, one
// 14 336-byte size class each, 56.2 B a flow (72-byte flows with two pointers
// in 256-flow slabs took the 19 072-byte class, 74.5 B a flow, and 80-byte
// ones, with a payload sum on them, the 21 760-byte class: 127.1 B/flow in
// flow.Table) — the two list links are on the flow, so neither the free list
// nor the flush order is storage of its own, and Flush, measured alone,
// allocates nothing (under 1 B/flow) — 8-byte pointer-free table slots in the 4 KiB segments the table
// ends with, 64 of them at 20 k flows, 13.3 B/flow (a flat array doubled from
// 4 096 slots allocated 24.6 B/flow, every array it outgrew besides the last;
// a 32-byte slot with a pointer cost four times that), and a one-packet
// class-0 backing (4 bytes; it was 8, and before that 16) in flow.Table; in core the time-seq
// dataset, made once at exactly the flow count (cap == len), the address
// table's words in segments like the flow table's (doubled from 256 slots
// they took 26.1 B/flow, now 13.3) and the one exact-size address list
// Finish reads off them.
//
// The third trace is the second with the 16 flows starting 256 packets apart,
// each reset after its 4 096th packet and followed by a one-packet probe from
// a new address: when a long flow closes, the flows behind it are still
// growing. Table.Recycle hands the closed flow's pages to the free page list,
// so the growing flows take their next pages from it (2.6 B/pkt in
// flow.Table; 5.0 with 8-byte packet words). With one doubling array a flow, the flow eight behind took the
// closed one's array off its class's spare list (6.7 B/pkt), and allocated a
// fresh one when the array stayed on the recycled flow for the probe (10.7).
// Its core share is the bulk trace's: 3.1 B/pkt (4.7 with the packed gaps in
// ns, 9.6 with 8-byte gaps).
//
// The fourth (rstTrace) closes every flow by RST, so all of its records are
// staged and sorted: 65.6 B/flow in core — a 32-byte record in its 8 KiB
// chunk and again in the dataset, the radix sort scattering between the two.
// With (FirstTS, index) sort pairs and their radix scratch hoisted beside them
// it was 98.4; records appended to one slice, regrown 1.25× at a time, then
// Grown, copied aside and merged cost 181.8.
//
// The fifth (distinctTrace, 4 000 flows of 24 to 48 packets) founds a short
// template for nearly every flow, so the template store carries the core's
// share: 230.7 B/flow, with bucket pages written once at their capacity,
// Templates in 256-Template directory pages and a memo that holds matched
// vectors only, so none of the new templates (328.5 with a 16-byte memo slot
// per template and the time-seq sort pairs; 423.3 with every store array
// grown by doubling and Templates carved from slabs; 581.6 with append
// regrowth, a Template allocated alone and 40-byte slots holding a slice
// header); 13.3 B/flow in flow.Table (21.4 with 8-byte packet words, 30.1 when
// its slot array started at 4 096 slots and doubled).
//
// The sixth (webTrace, 20 k flows of the paper's Web mix) leaves most of its
// flows open to the end-of-trace flush, so they are never recycled and each
// holds its slab place, as scan's do: 64.6 to 65.2 B/flow in flow.Table (83.0
// to 83.6 with 8-byte packet words, 95.8 with 72-byte flows), 54.5 to 56.8 in
// core.
//
// None of these traces has a gap that escapes the packet word's whole-µs field
// (flow.PacketInfo), so none may make the table's wide store.
func TestCompressAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are held without the race detector (CI's Allocation budget step)")
	}
	scan, bulk, stagger := budgetTraces()
	const longFlows = 16 // long flows in stagger, each followed by a one-packet probe

	for _, tc := range []struct {
		tr                *trace.Trace
		per               string
		units             int
		tableMax, coreMax float64
		flowsWant         int64
	}{
		{tr: scan, per: "flow", units: 20000, tableMax: 82, coreMax: 56, flowsWant: 20000},
		{tr: bulk, per: "packet", units: 16 * 4096, tableMax: 5.1, coreMax: 3.8, flowsWant: 16},
		{tr: stagger, per: "packet", units: stagger.Len(), tableMax: 2.9, coreMax: 3.5, flowsWant: 2 * longFlows},
		{tr: rstTrace(), per: "flow", units: 20000, tableMax: 5, coreMax: 72, flowsWant: 20000},
		{tr: distinctTrace(7, 4000), per: "flow", units: 4000, tableMax: 14.7, coreMax: 254, flowsWant: 4000},
		{tr: webTrace(1, 20000), per: "flow", units: 20000, tableMax: 72, coreMax: 62, flowsWant: 20000},
	} {
		// Each row is the least of three whole builds (leastAllocBytes).
		table, flush := math.Inf(1), math.Inf(1)
		for range 3 {
			var tbl *flow.Table
			build := allocBytes(func() {
				tbl = flow.AcquireTable(func(f *flow.Flow) { tbl.Recycle(f) })
				for i := range tc.tr.Packets {
					tbl.Add(&tc.tr.Packets[i])
				}
			})
			fl := allocBytes(tbl.Flush)
			if n := wideBlocks(tbl); n != 0 {
				t.Fatalf("%s: the flow table made a wide store of %d blocks", tc.tr.Name, n)
			}
			tbl.Release()
			table, flush = min(table, build+fl), min(flush, fl)
		}
		var a *Archive
		total := leastAllocBytes(func() {
			var err error
			if a, err = Compress(tc.tr, DefaultOptions()); err != nil {
				t.Fatal(err)
			}
		})
		if got := int64(len(a.TimeSeq)); got != tc.flowsWant || cap(a.TimeSeq) != len(a.TimeSeq) {
			t.Fatalf("%s: %d flows in a dataset with room for %d, want %d", tc.tr.Name, got, cap(a.TimeSeq), tc.flowsWant)
		}
		n := float64(tc.units)
		t.Logf("%s: flow.Table %.1f B/%s (Flush %.2f), core %.1f B/%s", tc.tr.Name, table/n, tc.per, flush/n, (total-table)/n, tc.per)
		if flush/n > 1 {
			t.Errorf("%s: Flush allocates %.1f B/%s into a recycling consumer, budget 1 (it walks the open list)", tc.tr.Name, flush/n, tc.per)
		}
		if table/n > tc.tableMax {
			t.Errorf("%s: flow.Table allocates %.1f B/%s, budget %g (packet arena, flow slabs, slot growth)",
				tc.tr.Name, table/n, tc.per, tc.tableMax)
		}
		if (total-table)/n > tc.coreMax {
			t.Errorf("%s: core allocates %.1f B/%s on top of flow.Table, budget %g (time-seq chunks and dataset, address table, template store, long-template copies)",
				tc.tr.Name, (total-table)/n, tc.per, tc.coreMax)
		}
	}
}

// TestDecompressAllocBudget pins what Decompress allocates per packet on the
// same shapes and on a 5 k-flow Web trace: the output trace, made once from
// the packet count the decoded datasets add up to (40 B a packet; grown by
// append it was about 180), and a cursor per flow open at once: a finished
// cursor goes back to the Decompressor's free list and the next flow takes it, so
// the 20 k one-packet flows of scan share one cursor (a cursor each was
// 216 B/pkt there and 72 on web). Ceilings about 10 % over the measured
// 40.2, 40.1, 40.2 and 40.8 B/pkt.
func TestDecompressAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are held without the race detector (CI's Allocation budget step)")
	}
	scan, bulk, stagger := budgetTraces()
	for _, tc := range []struct {
		tr  *trace.Trace
		max float64
	}{
		{scan, 45}, {bulk, 44}, {stagger, 44}, {webTrace(64, 5000), 45},
	} {
		a, err := Compress(tc.tr, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var out *trace.Trace
		alloc := allocBytes(func() {
			if out, err = Decompress(a); err != nil {
				t.Fatal(err)
			}
		})
		if out.Len() != tc.tr.Len() || cap(out.Packets) != out.Len() {
			t.Fatalf("%s: %d packets in an output with room for %d, want %d", tc.tr.Name, out.Len(), cap(out.Packets), tc.tr.Len())
		}
		perPkt := alloc / float64(out.Len())
		t.Logf("%s: Decompress %.1f B/pkt", tc.tr.Name, perPkt)
		if perPkt > tc.max {
			t.Errorf("%s: Decompress allocates %.1f B/pkt, budget %.0f (output trace, flow cursors)", tc.tr.Name, perPkt, tc.max)
		}
	}
}

// TestDecompressorAllocBudget holds the decoder to what it keeps, each
// figure the least of three runs. On the 20 k-flow Web trace and the bulk
// shape a full drain of a Decompressor allocates its batch buffer, a cursor
// per flow open at once and the heap over them: at most 4 B/pkt (2.2 and 2.6
// measured). Decompress adds the one output trace: at most 41 B/pkt (40.6 and
// 40.1). A warm point ExtractFlows, on the 20 k-flow Web archive the
// Reader's budgets are held on, allocates no more than before the queries
// drained a Decompressor: its output, its cursor slab and the heap.
func TestDecompressorAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are held without the race detector (CI's Allocation budget step)")
	}
	_, bulk, _ := budgetTraces()
	for _, tr := range []*trace.Trace{webTrace(1, 20000), bulk} {
		a, err := Compress(tr, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		n := float64(a.Packets())
		drain := float64(alloctest.Least(func() {
			d, err := NewDecompressor(a)
			for err == nil {
				_, err = d.Next()
			}
		})) / n
		whole := float64(alloctest.Least(func() {
			if _, err := Decompress(a); err != nil {
				t.Fatal(err)
			}
		})) / n
		t.Logf("%s: a Decompressor drains at %.2f B/pkt, Decompress %.2f", tr.Name, drain, whole)
		if drain > 4 {
			t.Errorf("%s: a Decompressor's drain allocates %.2f B/pkt, budget 4 (batch buffer, cursors, heap)", tr.Name, drain)
		}
		if whole > 41 {
			t.Errorf("%s: Decompress allocates %.2f B/pkt, budget 41 (output trace, cursors, heap)", tr.Name, whole)
		}
	}

	a, err := pipeTrace(webTrace(27, 20000), DefaultOptions(), PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	flows := make([]int, len(a.Addresses))
	for _, rec := range a.TimeSeq {
		flows[rec.Addr]++
	}
	most, least := 0, 0
	for id, n := range flows {
		if n > flows[most] {
			most = id
		}
		if n < flows[least] {
			least = id
		}
	}
	r := openReader(t, indexedArchive(t, a, IndexConfig{Enabled: true}))
	// The bytes a warm query allocated when the decode was a merge of
	// callbacks, for these servers' 3 843 flows and one.
	for id, before := range map[int]uint64{most: 1510824, least: 488} {
		f := FlowFilter{Prefix: a.Addresses[id], PrefixLen: 32}
		if _, err := r.ExtractFlows(f); err != nil {
			t.Fatal(err)
		}
		warm := alloctest.Least(func() {
			if _, err := r.ExtractFlows(f); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d flows: a warm point query allocates %d B", flows[id], warm)
		if warm > before {
			t.Errorf("%d flows: a warm point query allocates %d B, %d before", flows[id], warm, before)
		}
	}
}

// TestExtractWarmBudget holds a warm point query to what it returns. On the
// 20 k-flow Web archive, once a Reader has answered a /32 it reads nothing to
// answer it again, and it allocates the output trace and its packets, the
// cursor slab and the merge heap: 4 allocations for the least popular server
// (one flow), the same plus the heap's doublings for the most popular
// (3 843 flows, 10) — and exactly as many at group size 16 as at
// 256, where the query walks 15 times the groups and passes over the same
// records: neither the group count nor the records skipped allocate.
func TestExtractWarmBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are held without the race detector (CI's Allocation budget step)")
	}
	a, err := pipeTrace(webTrace(27, 20000), DefaultOptions(), PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	flows := make([]int, len(a.Addresses))
	most, least := 0, 0
	for _, rec := range a.TimeSeq {
		flows[rec.Addr]++
	}
	for id, n := range flows {
		if n > flows[most] {
			most = id
		}
		if n < flows[least] {
			least = id
		}
	}
	for _, id := range []int{most, least} {
		f := FlowFilter{Prefix: a.Addresses[id], PrefixLen: 32}
		var allocs [2]float64
		for i, gs := range []int{16, 256} {
			fz := indexedArchive(t, a, IndexConfig{Enabled: true, GroupSize: gs})
			r := openReader(t, fz)
			if _, err := r.ExtractFlows(f); err != nil {
				t.Fatal(err)
			}
			cold := r.Stats()
			// A collection inside the count moved it by one, depending on
			// which other targets the run selected: count with the collector
			// off.
			gc := debug.SetGCPercent(-1)
			allocs[i] = testing.AllocsPerRun(10, func() {
				if _, err := r.ExtractFlows(f); err != nil {
					t.Fatal(err)
				}
			})
			debug.SetGCPercent(gc)
			if warm := r.Stats(); warm.BytesRead != cold.BytesRead || warm.FlowsMatched != cold.FlowsMatched+11*flows[id] {
				t.Fatalf("group size %d: 11 warm queries for %d flows read %d bytes and matched %d flows", gs, flows[id], warm.BytesRead-cold.BytesRead, warm.FlowsMatched-cold.FlowsMatched)
			}
		}
		t.Logf("%d flows: %.0f allocations a warm query", flows[id], allocs[0])
		if allocs[0] != allocs[1] {
			t.Errorf("%d flows: %.0f allocations at group size 16, %.0f at 256: the group count allocates", flows[id], allocs[0], allocs[1])
		}
		if budget := float64(6 + bits.Len(uint(flows[id]))); allocs[0] > budget {
			t.Errorf("%d flows: a warm query makes %.0f allocations, budget %.0f (6 and the merge heap's doublings)", flows[id], allocs[0], budget)
		}
	}
}

// watchedSource calls watch each time a run pulls the next batch from the
// source it wraps.
type watchedSource struct {
	PacketSource
	watch func()
}

func (s watchedSource) Next() ([]pkt.Packet, error) {
	s.watch()
	return s.PacketSource.Next()
}

// TestOneStageRun pins what Pipeline.Compress runs at one P: the one-stage
// run, in the calling goroutine. For each flow shape and batch size it starts
// no goroutine, counted each time it pulls a batch, and its archive equals
// the two-stage run's byte for byte; input a run would reject is rejected,
// and the flow table of the rejected run, open flows and all, is back in the
// pool.
func TestOneStageRun(t *testing.T) {
	// With one P, sync.Pool keeps what Release put where the next Get looks
	// first, so a released table is one the next acquire does not allocate.
	// (The race build's pool drops a quarter of its Puts on purpose.)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	scan, bulk, stagger := budgetTraces()
	traces := []*trace.Trace{scan, bulk, stagger, webTrace(64, 5000)}
	p, err := NewPipeline(DefaultOptions(), PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(traces))
	for i, tr := range traces {
		staged, err := p.run(trace.Batches(tr, 0), 2)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = encodeBytes(t, staged)
	}
	// Counted after the two-stage runs, whose record stages have exited.
	goroutines := runtime.NumGoroutine()
	noNewGoroutine := func() {
		if n := runtime.NumGoroutine(); n > goroutines {
			t.Errorf("%d goroutines mid-run, %d before it", n, goroutines)
		}
	}
	for i, tr := range traces {
		for _, batch := range []int{1, 7, 4096} {
			a, err := p.Compress(watchedSource{trace.Batches(tr, batch), noNewGoroutine})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeBytes(t, a), want[i]) {
				t.Errorf("%s batch %d: archive differs from the two-stage run's", tr.Name, batch)
			}
		}
	}

	// Both rejected inputs fail mid-stream: a packet older than its
	// predecessor, and a source that reports an error.
	head := chunked(scan, 128).batches[:64]
	late := pkt.Packet{Timestamp: time.Millisecond, Proto: pkt.ProtoTCP, SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 80}
	sentinel := errors.New("disk on fire")
	for name, src := range map[string]*sliceSource{
		"unsorted":     {batches: append(slices.Clone(head), []pkt.Packet{late})},
		"source error": {batches: head, err: sentinel},
	} {
		runtime.GC()
		runtime.GC() // empty the pool: a table in it comes from this run
		_, err := p.Compress(watchedSource{src, noNewGoroutine})
		if err == nil || (src.err != nil && !errors.Is(err, src.err)) {
			t.Errorf("%s: err = %v", name, err)
		}
		alloc := alloctest.Bytes(func() { flow.AcquireTable(nil).Release() })
		if !raceEnabled && alloc != 0 {
			t.Errorf("%s: the rejected run kept its table: the next acquire allocated %d bytes", name, alloc)
		}
	}
}

// TestStreamChunksRecycled pins that a two-stage run's batches do not grow
// with the stream: a run allocates at most batchQueue+2 of them however long
// the stream, because the record stage hands each back to the table stage.
// The two stages compress 20 000 flows closed by RST, then the same flows
// again behind them, and the second pass adds what it adds to a one-stage
// run: the flows' own records, 64.0 B/flow at 1, 2 and 4 Ps. With a batch
// made afresh each time one shipped, the second pass added 98 B/flow more.
// The budget is 4 B/flow.
func TestStreamChunksRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	once := rstTrace()
	twice := once.Clone()
	shift := once.Packets[once.Len()-1].Timestamp + 10*time.Microsecond
	for _, q := range once.Packets {
		q.Timestamp += shift
		twice.Append(q)
	}
	p, err := NewPipeline(DefaultOptions(), PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var alloc [2][2]float64 // [pass][stages-1]
	for i, tr := range []*trace.Trace{once, twice} {
		var archives [2]*Archive
		for stages := 1; stages <= 2; stages++ {
			alloc[i][stages-1] = leastAllocBytes(func() {
				if archives[stages-1], err = p.run(trace.Batches(tr, 4096), stages); err != nil {
					t.Fatal(err)
				}
			})
		}
		if !bytes.Equal(encodeBytes(t, archives[1]), encodeBytes(t, archives[0])) {
			t.Errorf("%d packets: two-stage archive differs from the one-stage one", tr.Len())
		}
	}
	n := float64(20000)
	oneGrowth, twoGrowth := (alloc[1][0]-alloc[0][0])/n, (alloc[1][1]-alloc[0][1])/n
	t.Logf("second pass: two stages +%.1f B/flow, one stage +%.1f B/flow", twoGrowth, oneGrowth)
	if d := twoGrowth - oneGrowth; d > 4 {
		t.Errorf("the second pass adds %.1f B/flow more in two stages than in one (%.1f vs %.1f), budget 4: the batches grow with the stream", d, twoGrowth, oneGrowth)
	}
}

// TestRunAllocBudget pins what a run allocates in one stage and in two. Each
// row is the least of three runs from a cold pool (leastAllocBytes), so the
// flow table and the batches are new ones, as they are in a fresh process.
//
// One stage allocates what the compressor it replaced did — a compressor of
// its own that recorded each flow as it finalized — plus its one batch of 64
// flows, 3 KiB a run, and the long templates' slots in it: scan 124.87 to
// 124.89 B/flow, bulk 8.08 to 8.09 B/packet, stagger 5.78 and web 119.5 to
// 120.1 B/flow at 1, 2 and 4 Ps (128.97, 12.34, 8.03 and 137.6 to 138.1 while
// a packet word was 8 bytes). The ceilings sit about 3 % over, so a one-stage
// batch that grows with the run, 32 bytes a flow, fails the scan and web
// rows.
//
// Two stages add to that their set of batches — batchQueue+2 of them, each
// a 1 024-flow record array of 32 bytes a flow and a 64 KiB arena, 576 KiB —
// and the record stage's goroutine and channels. Over 9 readings at 1, 2 and
// 4 Ps each row read one mode: scan 154.26 to 154.30 B/flow, bulk 17.05 to
// 17.07 B/packet, stagger 14.74 to 14.76 and web 149.5 to 150.2 B/flow (158.4,
// 21.3, 17.0 and 167.3 to 168.4 with 8-byte packet words). The ceilings sit
// about 10 % over. With batches made as they were
// first needed, a run made two to six of them, as far as the record stage
// lagged, and the same rows read up to 15 B/flow apart from one run to the
// next.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are held without the race detector (CI's Allocation budget step)")
	}
	scan, bulk, stagger := budgetTraces()
	p, err := NewPipeline(DefaultOptions(), PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tr    *trace.Trace
		units int
		per   string     // flow or packet
		max   [2]float64 // one stage, two stages
	}{
		{scan, 20000, "flow", [2]float64{129, 170}},
		{bulk, bulk.Len(), "packet", [2]float64{8.35, 18.8}},
		{stagger, stagger.Len(), "packet", [2]float64{5.95, 16.2}},
		{webTrace(1, 20000), 20000, "flow", [2]float64{124, 165}},
	} {
		var (
			archives [2]*Archive
			alloc    [2]float64
		)
		for stages := 1; stages <= 2; stages++ {
			alloc[stages-1] = leastAllocBytes(func() {
				if archives[stages-1], err = p.run(trace.Batches(tc.tr, 0), stages); err != nil {
					t.Fatal(err)
				}
			})
		}
		if !bytes.Equal(encodeBytes(t, archives[1]), encodeBytes(t, archives[0])) {
			t.Fatalf("%s: two-stage archive differs from the one-stage one", tc.tr.Name)
		}
		n := float64(tc.units)
		t.Logf("%s: one stage %.2f B/%s, two stages %.2f", tc.tr.Name, alloc[0]/n, tc.per, alloc[1]/n)
		for i, got := range alloc {
			if got/n > tc.max[i] {
				t.Errorf("%s: %d stages allocate %.2f B/%s, budget %g", tc.tr.Name, i+1, got/n, tc.per, tc.max[i])
			}
		}
	}
}
