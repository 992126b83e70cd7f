package trace

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"flowzip/internal/pkt"
)

// mergeRuns drains a RunHeap over slice runs, run i with tie key i, taking
// one packet per step — or, with stretches set, every packet TopLeads allows.
func mergeRuns(runs [][]pkt.Packet, stretches bool) []pkt.Packet {
	var h RunHeap[[]pkt.Packet]
	for i, run := range runs {
		if len(run) > 0 {
			h.Push(run[0].Timestamp, i, run)
		}
	}
	var out []pkt.Packet
	for h.Len() > 0 {
		if h.TopHead() != (*h.Top())[0].Timestamp {
			panic("TopHead is not the top run's head")
		}
		run := h.Top()
		k := 1
		for stretches && k < len(*run) && h.TopLeads((*run)[k].Timestamp) {
			k++
		}
		out = append(out, (*run)[:k]...)
		if *run = (*run)[k:]; len(*run) > 0 {
			h.FixTop((*run)[0].Timestamp)
		} else {
			h.PopTop()
		}
	}
	return out
}

// stableSorted is the order the merge must reproduce: the runs laid end to
// end in tie-key order, stable-sorted by timestamp.
func stableSorted(runs [][]pkt.Packet) []pkt.Packet {
	all := &Trace{Packets: slices.Concat(runs...)}
	all.Sort()
	return all.Packets
}

// TestRunHeapTieRule pins the tie rule once for every user of the merge
// (flowgen's conversations, core's flow cursors and parallel ranges): among
// equal timestamps the run with the lower tie key goes first, whatever order
// the runs were pushed in, and a run's own packets keep their order.
func TestRunHeapTieRule(t *testing.T) {
	const runs, perRun = 5, 4
	at := func(run, i int) pkt.Packet {
		// Every run: two packets at 1 ms, then two at 2 ms. SrcPort and
		// IPID say where the packet came from.
		return pkt.Packet{Timestamp: time.Duration(1+i/2) * time.Millisecond, SrcPort: uint16(run), IPID: uint16(i)}
	}
	for _, order := range [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}} {
		var h RunHeap[[]pkt.Packet]
		for _, r := range order {
			run := make([]pkt.Packet, perRun)
			for i := range run {
				run[i] = at(r, i)
			}
			h.Push(run[0].Timestamp, r, run)
		}
		if h.Len() != runs {
			t.Fatalf("Len = %d after %d pushes", h.Len(), runs)
		}
		// Expected: at 1 ms run 0's two packets, run 1's two, ...; then the
		// same at 2 ms.
		for n := 0; n < runs*perRun; n++ {
			half, rest := n/(runs*2), n%(runs*2)
			want := at(rest/2, half*2+rest%2)
			run := h.Top()
			if got := (*run)[0]; got != want {
				t.Fatalf("push order %v: packet %d is run %d #%d at %v, want run %d #%d at %v",
					order, n, got.SrcPort, got.IPID, got.Timestamp, want.SrcPort, want.IPID, want.Timestamp)
			}
			if *run = (*run)[1:]; len(*run) > 0 {
				h.FixTop((*run)[0].Timestamp)
			} else {
				h.PopTop()
			}
		}
		if h.Len() != 0 {
			t.Fatalf("%d runs left on a drained heap", h.Len())
		}
	}
}

// TestRunHeapLateAdmission is the decompressor's use: runs pushed in start
// order, each just before the first packet later than its start is taken.
// The heap then never holds the runs that ended before the newest started.
func TestRunHeapLateAdmission(t *testing.T) {
	// Run i starts at i ms and has three packets 400 us apart, so at most
	// two runs overlap.
	const runs = 50
	run := func(i int) []pkt.Packet {
		out := make([]pkt.Packet, 3)
		for j := range out {
			out[j] = pkt.Packet{Timestamp: time.Duration(i)*time.Millisecond + time.Duration(j)*400*time.Microsecond, SrcPort: uint16(i)}
		}
		return out
	}
	var all [][]pkt.Packet
	var h RunHeap[[]pkt.Packet]
	var got []pkt.Packet
	deepest := 0
	for i := 0; i <= runs; i++ {
		limit := time.Duration(1<<63 - 1)
		if i < runs {
			limit = time.Duration(i) * time.Millisecond
		}
		for h.Len() > 0 && h.TopHead() < limit {
			r := h.Top()
			got = append(got, (*r)[0])
			if *r = (*r)[1:]; len(*r) > 0 {
				h.FixTop((*r)[0].Timestamp)
			} else {
				h.PopTop()
			}
		}
		if i < runs {
			all = append(all, run(i))
			h.Push(all[i][0].Timestamp, i, all[i])
			deepest = max(deepest, h.Len())
		}
	}
	if !slices.Equal(got, stableSorted(all)) {
		t.Fatal("late admission changed the merged order")
	}
	if deepest > 2 {
		t.Fatalf("heap held %d runs at once, 2 overlap", deepest)
	}
}

// Property: the merge of k sorted runs, packet by packet or in stretches, is
// the stable sort of the runs laid end to end.
func TestQuickRunHeapMatchesStableSort(t *testing.T) {
	f := func(raws [][]uint32, coarse bool) bool {
		runs := make([][]pkt.Packet, len(raws))
		for i, raw := range raws {
			tr := traceFromRaw(raw)
			if coarse {
				// Millisecond timestamps: ties within and across runs.
				for j := range tr.Packets {
					tr.Packets[j].Timestamp = tr.Packets[j].Timestamp.Truncate(100 * time.Millisecond)
				}
			}
			tr.Sort()
			runs[i] = tr.Packets
		}
		want := stableSorted(runs)
		return slices.Equal(mergeRuns(runs, false), want) && slices.Equal(mergeRuns(runs, true), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
