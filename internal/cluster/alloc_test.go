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
// 40-byte Template in a 256-Template directory page, a pointer in its bucket
// page and its element sum; the memo, which holds matched vectors only, stays
// empty. Bucket pages are written once at their capacity: 109.3 B/template
// allocated and 105.8 still in use after a collection with the store live,
// ceilings about 10 % over. With a 16-byte memo slot per template, its array
// grown by doubling, it was 161.3 allocated and 131.7 in use; with every store
// array grown by doubling and Templates carved from slabs, 253.1 allocated and
// 194.9 in use; grown by append, with a Template allocated alone and a 40-byte
// memo slot holding a slice header, 430.5 allocated.
//
// A repeat-heavy run matches vectors the memo has seen, repeats of templates
// and near-duplicates of them alike, once each to memoize them: every hit
// after that allocates nothing.
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
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s = NewStore().EnableMemo()
	for _, v := range vs {
		s.Match(v)
	}
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	if st := s.Stats(); st.Matched != 0 || st.Templates != templates {
		t.Fatalf("all-miss run: %+v, want %d templates and no match", st, templates)
	}
	perTpl := float64(m1.TotalAlloc-m0.TotalAlloc) / templates
	resident := (float64(m2.HeapAlloc) - float64(m0.HeapAlloc)) / templates
	t.Logf("all-miss: %.1f B/template allocated, %.1f in use", perTpl, resident)
	if perTpl > 120 {
		t.Errorf("all-miss: the store allocates %.1f B/template, budget 120 (arena, Template page, bucket pages, element sum)", perTpl)
	}
	if resident > 116 {
		t.Errorf("all-miss: the live store holds %.1f B/template, budget 116 (nothing it outgrew may stay reachable)", resident)
	}

	// Templates' own vectors and near-duplicates of them (one element moved
	// by one, within the limit): each is matched and copied into the memo's
	// arena once.
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
