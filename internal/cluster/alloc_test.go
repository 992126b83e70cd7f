package cluster

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"flowzip/internal/flow"
)

// TestRecordSizes pins the memo slot at 16 bytes with no pointer in it: the
// slot array is the memo's whole per-entry cost, and a pointer-free array is
// one the collector never scans.
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(memoSlot{}); got != 16 {
		t.Errorf("a memo slot is %d bytes, want 16", got)
	}
	st := reflect.TypeOf(memoSlot{})
	for i := 0; i < st.NumField(); i++ {
		switch f := st.Field(i); f.Type.Kind() {
		case reflect.Int32, reflect.Uint64:
		default:
			t.Errorf("memo slot field %s is a %s, want a plain integer", f.Name, f.Type)
		}
	}
}

// TestStoreAllocBudget pins what the template store and its memo allocate.
//
// An all-miss run founds a template per vector, the way the distinct
// workload does: 20 000 random vectors of 24 to 48 elements, far apart under
// the paper's limit. Each template costs its arena bytes (36 on average), a
// 40-byte Template carved from a slab, a pointer in the store's and its
// bucket's lists, its element sum and a 16-byte memo slot, every array
// grown by doubling, so what the run allocates is at most twice the final
// arrays: 253.1 B/template measured, ceiling about 10 % over. Grown by
// append, with a Template allocated alone and a 40-byte memo slot holding a
// slice header, it was 430.5.
//
// A repeat-heavy run matches vectors the memo has seen, templates and
// near-duplicates of them alike: every hit allocates nothing.
func TestStoreAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are held without the race detector (CI's Allocation budget step)")
	}
	rng := rand.New(rand.NewPCG(1, 2))
	const templates = 20000
	vs := make([]flow.Vector, templates)
	for i := range vs {
		v := make(flow.Vector, 24+rng.IntN(25))
		for j := range v {
			v[j] = uint8(rng.IntN(120))
		}
		vs[i] = v
	}
	var s *Store
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s = NewStore().EnableMemo()
	for _, v := range vs {
		s.Match(v)
	}
	runtime.ReadMemStats(&m1)
	if st := s.Stats(); st.Matched != 0 || st.Templates != templates {
		t.Fatalf("all-miss run: %+v, want %d templates and no match", st, templates)
	}
	perTpl := float64(m1.TotalAlloc-m0.TotalAlloc) / templates
	t.Logf("all-miss: %.1f B/template", perTpl)
	if perTpl > 278 {
		t.Errorf("all-miss: the store allocates %.1f B/template, budget 278 (arena, Template slab, lists, element sum, memo slot)", perTpl)
	}

	// Near-duplicates: one element of a template moved by one, within the
	// limit, so each is matched and copied into the memo's arena once.
	near := make([]flow.Vector, 0, 2*len(vs[:1000]))
	for _, v := range vs[:1000] {
		d := append(flow.Vector(nil), v...)
		d[0]++
		near = append(near, v, d)
	}
	for _, v := range near {
		s.Match(v)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		for _, v := range near {
			if _, created := s.Match(v); created {
				t.Fatal("a repeated vector founded a template")
			}
		}
	}); allocs != 0 {
		t.Errorf("repeat-heavy: %.0f allocations for %d memo hits, want 0", allocs, len(near))
	}
}
