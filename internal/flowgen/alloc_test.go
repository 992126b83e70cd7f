package flowgen

import (
	"runtime"
	"testing"
	"unsafe"

	"flowzip/internal/pkt"
	"flowzip/internal/trace"
)

// TestWebAllocBudget holds Web to its output: the packet slice is made once
// at its final length, and what else Web allocates — the model's tables and
// the packet backings of the conversations open at once, recycled as they
// finish — stays under 30 % of it. (Sorting every conversation laid end to
// end took 5.5 times the output.)
func TestWebAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are held without the race detector (CI's Allocation budget step)")
	}
	cfg := benchWebConfig()
	var tr *trace.Trace
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	tr = Web(cfg)
	runtime.ReadMemStats(&m1)
	if cap(tr.Packets) != tr.Len() {
		t.Fatalf("Web returned %d packets in room for %d: the count is known up front", tr.Len(), cap(tr.Packets))
	}
	output := float64(tr.Len()) * float64(unsafe.Sizeof(pkt.Packet{}))
	alloc := float64(m1.TotalAlloc - m0.TotalAlloc)
	t.Logf("Web: %d packets, %.0f bytes allocated, %.2f of the output", tr.Len(), alloc, alloc/output)
	if alloc > 1.3*output {
		t.Errorf("Web allocated %.0f bytes for %.0f of packets (%.2fx), budget 1.3x", alloc, output, alloc/output)
	}
}
