package core

import (
	"fmt"
	"runtime"
	"sync"

	"flowzip/internal/pkt"
	"flowzip/internal/trace"
)

// maxDecompressWorkers bounds DecompressParallel's worker count, and the
// count one per CPU resolves to.
const maxDecompressWorkers = 256

// DecompressParallel is the one-call convenience over an archive: decode
// with workers concurrent decoders, packet-identical to Decompress. workers is
// in [0, maxDecompressWorkers]: 0 means one per CPU, 1 the serial decode; a
// count outside it is refused.
//
// The decomposition relies on two invariants of the serial decode: the
// identity RNG draws exactly identityDraws values per time-seq record in
// record order, and the merge emits packets in the unique (timestamp,
// record, packet) total order. So the records are partitioned into
// contiguous ranges balanced by packet count, each worker drains a
// Decompressor over its range with the RNG fast-forwarded past the records
// in front of it (rngSkipRecords), and the runs are concatenated by a final
// k-way merge that breaks timestamp ties toward the lower range — exactly
// where the smaller record index lives.
func DecompressParallel(a *Archive, workers int) (*trace.Trace, error) {
	if workers < 0 || workers > maxDecompressWorkers {
		return nil, fmt.Errorf("core: decompress workers %d outside [0,%d]", workers, maxDecompressWorkers)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	recs := a.TimeSeq
	n := len(recs)
	if workers == 0 {
		workers = min(runtime.GOMAXPROCS(0), maxDecompressWorkers)
	}
	if workers = min(workers, n); workers <= 1 {
		return rangeDecompressor(a, 0, n).drain("decomp"), nil
	}

	// Range k starts at the record whose packets take the running count past
	// k/workers of the total, so the ranges split the work evenly even when
	// long flows cluster.
	total := int64(a.Packets())
	bounds := make([]int, workers+1)
	bounds[workers] = n
	sum, k := int64(0), 1
	for i := range recs {
		sum += int64(a.flowLen(&recs[i]))
		for ; k < workers && sum > total*int64(k)/int64(workers); k++ {
			bounds[k] = i
		}
	}

	runs := make([][]pkt.Packet, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runs[w] = rangeDecompressor(a, bounds[w], bounds[w+1]).drain("").Packets
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
	return tr, nil
}
