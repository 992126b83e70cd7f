package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"flowzip/internal/pkt"
	"flowzip/internal/trace"
)

// flowLen returns the packet count of a record's template.
func (d *decompressor) flowLen(r *TimeSeqRecord) int {
	if r.Long {
		return len(d.archive.LongTemplates[r.Template].F)
	}
	return len(d.archive.ShortTemplates[r.Template])
}

// decompressParallel regenerates the trace with workers concurrent decoders
// and is packet-for-packet identical to decompress.
//
// The decomposition relies on two invariants of the serial decode: the
// identity RNG draws exactly identityDraws values per time-seq record in
// record order, and the merge emits packets in the unique (timestamp,
// record, packet) total order. So the identities are drawn serially up
// front (cheap — three RNG calls per flow), the records are partitioned
// into contiguous ranges balanced by packet count, each worker merges its
// range into a sorted run, and the runs are concatenated by a final k-way
// merge that breaks timestamp ties toward the lower range — exactly where
// the smaller record index lives.
func (d *decompressor) decompressParallel(workers int) *trace.Trace {
	recs := d.archive.TimeSeq
	n := len(recs)
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), maxDecompressWorkers)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return d.decompress()
	}

	ids := make([]flowIdentity, n)
	for i := range ids {
		ids[i] = drawIdentity(d.rng)
	}

	// Prefix packet counts, so range boundaries split the work evenly even
	// when long flows cluster.
	pkts := make([]int64, n+1)
	for i := range recs {
		pkts[i+1] = pkts[i] + int64(d.flowLen(&recs[i]))
	}
	total := pkts[n]
	bounds := make([]int, workers+1)
	bounds[workers] = n
	for w := 1; w < workers; w++ {
		target := total * int64(w) / int64(workers)
		lo := sort.Search(n, func(i int) bool { return pkts[i+1] > target })
		bounds[w] = max(lo, bounds[w-1])
	}

	runs := make([][]pkt.Packet, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := bounds[w], bounds[w+1]
			out := make([]pkt.Packet, 0, min(pkts[hi]-pkts[lo], maxOutputReserve))
			var pool cursorPool
			mergeCursors(hi-lo,
				func(i int) *flowCursor { return pool.open(d, &recs[lo+i], lo+i, ids[lo+i]) },
				func(i int) time.Duration { return recs[lo+i].FirstTS },
				func(p pkt.Packet) { out = append(out, p) }, pool.done)
			runs[w] = out
		}(w)
	}
	wg.Wait()

	// Final k-way merge of the workers' runs, timestamp ties to the lower
	// range, which is where the smaller record index lives. The ranges are
	// consecutive in start order, so runs overlap only around their ends and
	// most of each is copied as one stretch.
	tr := newOutput("decomp", total)
	var h trace.RunHeap[[]pkt.Packet]
	for w, run := range runs {
		if len(run) > 0 {
			h.Push(run[0].Timestamp, w, run)
		}
	}
	for h.Len() > 0 {
		run := h.Top()
		k := 1
		for k < len(*run) && h.TopLeads((*run)[k].Timestamp) {
			k++
		}
		tr.Packets = append(tr.Packets, (*run)[:k]...)
		if *run = (*run)[k:]; len(*run) > 0 {
			h.FixTop((*run)[0].Timestamp)
		} else {
			h.PopTop()
		}
	}
	return tr
}

// maxDecompressWorkers bounds DecompressParallel's worker count, and the
// count one per CPU resolves to.
const maxDecompressWorkers = 256

// DecompressParallel is the one-call convenience over an archive: decode
// with workers concurrent decoders, packet-identical to Decompress. workers is
// in [0, maxDecompressWorkers]: 0 means one per CPU, 1 the serial decode; a
// count outside it is refused.
func DecompressParallel(a *Archive, workers int) (*trace.Trace, error) {
	if workers < 0 || workers > maxDecompressWorkers {
		return nil, fmt.Errorf("core: decompress workers %d outside [0,%d]", workers, maxDecompressWorkers)
	}
	d, err := newDecompressor(a)
	if err != nil {
		return nil, err
	}
	return d.decompressParallel(workers), nil
}
