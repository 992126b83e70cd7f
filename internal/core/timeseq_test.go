package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"flowzip/internal/alloctest"
)

// TestTimeSeqBuilderMatchesStableSort holds the time-seq builder to its
// definition: the dataset is the finalize sequence — closed records in close
// order, then flushed ones in FirstTS order — stably sorted by FirstTS. The
// closed counts straddle the 256-record chunk edge; with ties drawn from a
// handful of timestamps most flushed records tie closed ones; and timestamps
// varying in 1, 2, 3 and 8 bytes take the radix sort through an odd number of
// passes, ending in the dataset's tail, and an even number, ending in the
// chunks. beginFlush allocates the dataset and nothing else.
func TestTimeSeqBuilderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	byTS := func(a, b TimeSeqRecord) int { return cmp.Compare(a.FirstTS, b.FirstTS) }
	for _, closed := range []int{0, 1, 255, 256, 257, 4099} {
		for _, open := range []int{0, 1, 700} {
			for _, width := range []int{1, 2, 3, 8} {
				for _, ties := range []bool{false, true} {
					name := fmt.Sprintf("closed=%d open=%d width=%d ties=%v", closed, open, width, ties)
					ts := func() time.Duration {
						var v uint64
						if ties {
							v = uint64(rng.IntN(6)) << (8*width - 3)
						} else {
							v = rng.Uint64() >> (64 - 8*width)
						}
						if width == 8 {
							return time.Duration(v) // negative timestamps too
						}
						return 0x5a<<40 | time.Duration(v)
					}
					seq := make([]TimeSeqRecord, closed+open)
					for i := range seq {
						seq[i] = TimeSeqRecord{FirstTS: ts(), Template: uint32(i)}
					}
					// The flush emits its records in FirstTS order.
					slices.SortStableFunc(seq[closed:], byTS)

					// The fewest bytes of three runs, each after a collection,
					// so neither the dataset's allocation starting one nor
					// another goroutine allocating meanwhile adds to it. The
					// dataset alone takes what a slice grown to its length
					// holds: its size class.
					var b timeSeqBuilder
					alloc := uint64(math.MaxUint64)
					for range 3 {
						b = timeSeqBuilder{}
						for _, r := range seq[:closed] {
							b.add(r)
						}
						runtime.GC()
						alloc = min(alloc, alloctest.Bytes(func() { b.beginFlush(open) }))
					}
					dataset := uint64(cap(slices.Grow([]TimeSeqRecord(nil), closed+open))) * uint64(unsafe.Sizeof(TimeSeqRecord{}))
					if !raceEnabled && alloc != dataset {
						t.Errorf("%s: beginFlush allocated %d bytes, want %d, the dataset's", name, alloc, dataset)
					}
					if len(b.out) != closed+open || cap(b.out) != closed+open {
						t.Fatalf("%s: dataset of %d records with room for %d, want %d", name, len(b.out), cap(b.out), closed+open)
					}
					for _, r := range seq[closed:] {
						b.add(r)
					}
					got := b.finish()

					want := slices.Clone(seq)
					slices.SortStableFunc(want, byTS)
					if len(got) != len(want) {
						t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: record %d is %+v, want %+v", name, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
