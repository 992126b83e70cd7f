package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"flowzip/internal/alloctest"
	"flowzip/internal/flow"
	"flowzip/internal/obs"
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
// one-packet flows: 78.3 B/flow in flow.Table (97.0 while a Flow was 72 bytes
// and held two pointers), 50.5 in core (108.2 and 63.2 when both hash tables
// doubled); 16 flows of 4 k packets: 8.9 B/pkt in flow.Table (9.2 while the
// page directory held a pointer a page, 17.2 when a flow's words past 64 sat
// in one array doubled at each fill), 3.4 in core, nearly all of it the long templates' f values and
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
// class-0 backing (8 bytes; it was 16) in flow.Table; in core the time-seq
// dataset, made once at exactly the flow count (cap == len), the address
// table's words in segments like the flow table's (doubled from 256 slots
// they took 26.1 B/flow, now 13.3) and the one exact-size address list
// Finish reads off them.
//
// The third trace is the second with the 16 flows starting 256 packets apart,
// each reset after its 4 096th packet and followed by a one-packet probe from
// a new address: when a long flow closes, the flows behind it are still
// growing. Table.Recycle hands the closed flow's pages to the free page list,
// so the growing flows take their next pages from it (5.0 B/pkt in
// flow.Table). With one doubling array a flow, the flow eight behind took the
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
// header); 22.9 B/flow in flow.Table (30.1 when its slot array started at
// 4 096 slots and doubled).
//
// The sixth (webTrace, 20 k flows of the paper's Web mix) leaves most of its
// flows open to the end-of-trace flush, so they are never recycled and each
// holds its slab place, as scan's do: 83.0 to 83.6 B/flow in flow.Table (95.8
// with 72-byte flows), 55.1 to 56.8 in core.
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
		{tr: scan, per: "flow", units: 20000, tableMax: 86, coreMax: 56, flowsWant: 20000},
		{tr: bulk, per: "packet", units: 16 * 4096, tableMax: 10.6, coreMax: 3.8, flowsWant: 16},
		{tr: stagger, per: "packet", units: stagger.Len(), tableMax: 6.1, coreMax: 3.5, flowsWant: 2 * longFlows},
		{tr: rstTrace(), per: "flow", units: 20000, tableMax: 5, coreMax: 72, flowsWant: 20000},
		{tr: distinctTrace(7, 4000), per: "flow", units: 4000, tableMax: 25.5, coreMax: 254, flowsWant: 4000},
		{tr: webTrace(1, 20000), per: "flow", units: 20000, tableMax: 92, coreMax: 62, flowsWant: 20000},
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
// cursor goes back to the merge's cursorPool and the next flow takes it, so
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

// TestExtractWarmBudget holds a warm point query to what it returns. On the
// 20 k-flow Web archive, once a Reader has answered a /32 it reads nothing to
// answer it again, and it allocates the output trace and its packets, the
// cursor slab, the decompressor and the merge heap: 6 allocations for the
// least popular server (one flow), the same plus the heap's doublings for the
// most popular (3 843 flows, 12) — and exactly as many at group size 16 as at
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

// TestOneWorkerPipelineIsSerial pins what Workers: 1 means on a stream: the
// serial compressor in the calling goroutine. For each flow shape and batch
// size the archive equals Compress's byte for byte, the run allocates what
// Compress allocates (2 %: the bound bench/ holds compress_alloc_b_per_pkt
// to) and starts no goroutine, counted each time it pulls a batch; input
// Compress would reject is rejected, and the flow table of the rejected run,
// open flows and all, is back in the pool. A two-worker stream rejects the
// same input, leaves no goroutine behind and returns both its tables.
func TestOneWorkerPipelineIsSerial(t *testing.T) {
	scan, bulk, stagger := budgetTraces()
	traces := []*trace.Trace{scan, bulk, stagger, webTrace(64, 5000)}
	goroutines := runtime.NumGoroutine()
	noNewGoroutine := func() {
		if n := runtime.NumGoroutine(); n > goroutines {
			t.Errorf("%d goroutines mid-run, %d before it", n, goroutines)
		}
	}
	p, err := NewPipeline(DefaultOptions(), PipelineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces {
		var serial *Archive
		serialAlloc := allocBytes(func() {
			if serial, err = Compress(tr, DefaultOptions()); err != nil {
				t.Fatal(err)
			}
		})
		want := encodeBytes(t, serial)
		for _, batch := range []int{1, 7, 4096} {
			var a *Archive
			alloc := allocBytes(func() {
				if a, err = p.Compress(watchedSource{trace.Batches(tr, batch), noNewGoroutine}); err != nil {
					t.Fatal(err)
				}
			})
			if !bytes.Equal(encodeBytes(t, a), want) {
				t.Errorf("%s batch %d: archive differs from Compress", tr.Name, batch)
			}
			// Allocation counts are not compared under -race, as in
			// TestCompressAllocBudget.
			if !raceEnabled && (alloc > serialAlloc*1.02 || alloc < serialAlloc*0.98) {
				t.Errorf("%s batch %d: allocated %.0f B, Compress %.0f B", tr.Name, batch, alloc, serialAlloc)
			}
		}
	}

	// Both rejected inputs fail mid-stream, a window of flows in: a packet
	// older than its predecessor, and a source that reports an error. A window
	// is more than three chunks a worker at two workers, so the reader blocks
	// on a full shard channel and both workers hold their tables at once
	// before the run fails; a shorter head on one P let the second worker
	// start after the first had released its table, and take that one.
	head := chunked(scan, 128).batches[:streamWindow/128]
	late := pkt.Packet{Timestamp: time.Millisecond, Proto: pkt.ProtoTCP, SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 80}
	sentinel := errors.New("disk on fire")
	// With one P, sync.Pool keeps what Release put where the next Get looks
	// first, so a released table is one the next acquire does not allocate.
	// (The race build's pool drops a quarter of its Puts on purpose.)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Two workers reject the same input the same way: the shard workers have
	// exited by the time Compress returns, and both their tables are back.
	p2, err := NewPipeline(DefaultOptions(), PipelineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Pipeline{p, p2} {
		for name, src := range map[string]*sliceSource{
			"unsorted":     {batches: append(slices.Clone(head), []pkt.Packet{late})},
			"source error": {batches: head, err: sentinel},
		} {
			name = fmt.Sprintf("%s, %d workers", name, p.workers())
			runtime.GC()
			runtime.GC() // empty the pool: a table in it comes from this run
			_, err := p.Compress(src)
			if err == nil || (src.err != nil && !errors.Is(err, src.err)) {
				t.Errorf("%s: err = %v", name, err)
			}
			// A worker that has called wg.Done may still be on its way out.
			for i := 0; i < 1000 && runtime.NumGoroutine() > goroutines; i++ {
				runtime.Gosched()
			}
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Errorf("%s: %d goroutines after the rejected run, %d before it", name, n, goroutines)
			}
			tbls := make([]*flow.Table, p.workers())
			alloc := alloctest.Bytes(func() {
				for i := range tbls {
					tbls[i] = flow.AcquireTable(nil)
				}
			})
			if !raceEnabled && alloc != 0 {
				t.Errorf("%s: the rejected run kept a table: the next %d acquires allocated %d bytes", name, len(tbls), alloc)
			}
			for _, tbl := range tbls {
				tbl.Release()
			}
		}
	}
}

// TestStreamChunksRecycled pins that a streamed run's reader→shard chunks do
// not grow with the stream: a run allocates at most workers × (chanDepth + 2)
// of them however long the stream, because the workers hand drained chunks
// back. Two workers stream 16 flows of 4 k packets, four windows, and then
// the same trace twice over. The second pass adds what the flows themselves
// grow by, as it does to the in-memory path (CompressTrace), and no chunk:
// 11.3 to 15.8 B/pkt streamed against 10.1 to 18.3 in memory at 1, 2 and 4
// Ps. With the drained chunks dropped, so every send allocates afresh, the
// streamed pass read 132 to 137. The budget is 10 B/pkt over the in-memory
// growth. One pass of each shape compared outright leaves no room: streamed
// 25.2 against 15.7 B/pkt in memory at two Ps, 26.7 against 12.3 at one,
// the streamed run's constant chunk cost over a short stream. Both shapes
// encode the same bytes, and the streamed run never holds more than
// streamWindow.
func TestStreamChunksRecycled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	_, bulk, _ := budgetTraces()
	twice := bulk.Clone()
	shift := bulk.Packets[bulk.Len()-1].Timestamp + 10*time.Microsecond
	for _, q := range bulk.Packets {
		q.Timestamp += shift
		twice.Append(q)
	}
	m := NewPipelineMetrics(obs.NewRegistry(), "pipeline")
	p, err := NewPipeline(DefaultOptions(), PipelineConfig{Workers: 2, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	var inMemory, streamed [2]float64
	for i, tr := range []*trace.Trace{bulk, twice} {
		var fromTrace, fromStream *Archive
		inMemory[i] = leastAllocBytes(func() {
			if fromTrace, err = p.CompressTrace(tr); err != nil {
				t.Fatal(err)
			}
		})
		streamed[i] = leastAllocBytes(func() {
			if fromStream, err = p.Compress(trace.Batches(tr, 4096)); err != nil {
				t.Fatal(err)
			}
		})
		if !bytes.Equal(encodeBytes(t, fromStream), encodeBytes(t, fromTrace)) {
			t.Errorf("%d packets: streamed archive differs from the in-memory one", tr.Len())
		}
	}
	n := float64(bulk.Len())
	memGrowth, streamGrowth := (inMemory[1]-inMemory[0])/n, (streamed[1]-streamed[0])/n
	t.Logf("second pass: streamed +%.1f B/pkt, in memory +%.1f B/pkt; resident peak %d", streamGrowth, memGrowth, m.ResidentPeak.Load())
	if d := streamGrowth - memGrowth; d > 10 {
		t.Errorf("the second pass adds %.1f B/pkt more streamed than in memory (%.1f vs %.1f), budget 10: the stream's chunks grow with it", d, streamGrowth, memGrowth)
	}
	if got := m.ResidentPeak.Load(); got == 0 || got > streamWindow {
		t.Errorf("resident peak %d outside (0, %d]", got, streamWindow)
	}
}

// TestShardedAllocBudget pins what a 4-worker CompressTrace allocates per
// flow: one byte of shard id a packet, each shard's flow table and captured
// flows, and the merge, which records every flow into the one template
// store. A shard matches nothing: it copies a short vector, one byte a
// packet, into chunks that are never moved, 4 KiB at first and doubling up to
// 64 KiB. Ceilings sit about 10 % over the measured 665 to 683 B/flow on
// distinctTrace and 193 to 194 on budgetTraces' scan trace, at 1, 2 and 4
// Ps. With 72-byte flows, two pointers each, in 256-flow slabs scan read 202
// to 203; while the shards walked buckets of int32 packet indices, 4 B a
// packet more, they read 816 and 207 (832 and 223 while the flow and address tables
// grew by doubling). With a memo slot per template and the time-seq sort
// pairs they were 932 and 223; with every chunk 64 KiB, 936 and 233; when
// each shard deduplicated its vectors in an exact-match store of its own
// before the merge matched them again, 1 055 and 232. On budgetTraces' bulk
// trace, per packet, a shard keeps each long flow's f values and packed gaps
// in whole µs in one exact allocation. Read as one run of a fresh process
// under a fresh shard seed, that row read 11.3 to 13.3 B/pkt (45 readings);
// with the gaps in ns 11.8 to 14.8, with the index buckets 16.6 to 18.2, and
// with the gaps as 8-byte durations, allocated apart, 21.1 to 22.7. Every row
// is now read as the least of three runs under one fixed seed: over 45
// readings at 1, 2 and 4 Ps, distinctTrace 638.8 to 639.2 B/flow, scan 151.1,
// and bulk 5.17 or 5.18 B/pkt 43 times and 5.67 to 5.68 twice, under a bulk
// ceiling about 10 % over the highest of those.
func TestShardedAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are held without the race detector (CI's Allocation budget step)")
	}
	scan, bulk, _ := budgetTraces()
	p, err := NewPipeline(DefaultOptions(), PipelineConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// What a run allocates depends on the number of Ps (GOMAXPROCS): the
	// shard workers take their flow tables from a sync.Pool, which is per P,
	// and how the workers are scheduled decides what they find there. At one
	// P a later worker takes the table an earlier one released, and the scan
	// trace read 194.9 B/flow; at four it read 222.7 to 277.0. Pin the two
	// Ps the ceilings were set at, as TestOneWorkerPipelineIsSerial pins one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	// CompressTrace keys the shard hash with a fresh seed a run, and which
	// flows share a shard moves what the shards allocate: one fixed seed, and
	// the least of three runs, make a row's reading repeat.
	const shardSeed = 1
	for _, tc := range []struct {
		tr    *trace.Trace
		flows int
		per   string // flow or packet
		max   float64
	}{
		{distinctTrace(7, 4000), 4000, "flow", 750},
		{scan, 20000, "flow", 213},
		{bulk, 16, "packet", 6.2},
	} {
		var a *Archive
		alloc := float64(alloctest.Least(func() {
			if a, err = p.compressTrace(tc.tr, shardSeed); err != nil {
				t.Fatal(err)
			}
		}))
		if len(a.TimeSeq) != tc.flows {
			t.Fatalf("%s: %d flows, want %d", tc.tr.Name, len(a.TimeSeq), tc.flows)
		}
		units := tc.flows
		if tc.per == "packet" {
			units = tc.tr.Len()
		}
		per := alloc / float64(units)
		t.Logf("%s: 4-worker CompressTrace %.2f B/%s", tc.tr.Name, per, tc.per)
		if per > tc.max {
			t.Errorf("%s: 4-worker CompressTrace allocates %.1f B/%s, budget %g", tc.tr.Name, per, tc.per, tc.max)
		}
	}
}
