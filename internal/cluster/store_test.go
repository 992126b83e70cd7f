package cluster

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"flowzip/internal/flow"
)

func vec(vals ...uint8) flow.Vector { return flow.Vector(vals) }

func TestMatchCreatesThenReuses(t *testing.T) {
	s := NewStore()
	a := vec(25, 37, 41, 58, 55)
	t1, created := s.Match(a)
	if !created || t1 == nil {
		t.Fatal("first match must create")
	}
	// Identical vector reuses.
	t2, created := s.Match(a)
	if created || t2 != t1 {
		t.Fatal("identical vector must reuse template")
	}
	if t1.Members != 2 {
		t.Fatalf("members = %d, want 2", t1.Members)
	}
}

func TestMatchWithinLimit(t *testing.T) {
	s := NewStore()
	// n=5 so d_lim = 5; distance 4 matches, distance 5 does not (strict <).
	base := vec(25, 37, 41, 58, 55)
	s.Match(base)
	near := vec(25, 37, 41, 58, 59) // distance 4
	if _, created := s.Match(near); created {
		t.Fatal("distance 4 < 5 must match")
	}
	far := vec(25, 37, 41, 58, 60) // distance 5
	if _, created := s.Match(far); !created {
		t.Fatal("distance 5 must not match (strict <)")
	}
	if s.Len() != 2 {
		t.Fatalf("templates = %d, want 2", s.Len())
	}
}

func TestDifferentLengthsNeverMatch(t *testing.T) {
	s := NewStore()
	s.Match(vec(25, 37))
	if _, created := s.Match(vec(25, 37, 41)); !created {
		t.Fatal("different length must create a new template")
	}
}

func TestHitRateAndStats(t *testing.T) {
	s := NewStore()
	if s.HitRate() != 0 {
		t.Fatal("empty store hit rate must be 0")
	}
	s.Match(vec(25, 37))
	s.Match(vec(25, 37))
	s.Match(vec(75, 75))
	if hr := s.HitRate(); hr < 0.33 || hr > 0.34 {
		t.Fatalf("hit rate = %v, want 1/3", hr)
	}
	st := s.Stats()
	if st.Templates != 2 || st.Matched != 1 || st.Created != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCustomLimit(t *testing.T) {
	s := NewStoreLimit(func(n int) int { return 0 }) // never match
	s.Match(vec(1, 1))
	if _, created := s.Match(vec(1, 1)); !created {
		t.Fatal("limit 0 must never match, even identical vectors")
	}
	s2 := NewStoreLimit(func(n int) int { return 1 << 20 }) // always match same length
	s2.Match(vec(1, 1))
	if _, created := s2.Match(vec(200, 200)); created {
		t.Fatal("huge limit must always match same-length vectors")
	}
}

// Property: every matched vector is within d_lim of the returned template,
// and every created template equals its input vector.
func TestQuickMatchInvariant(t *testing.T) {
	f := func(raw [][4]uint8) bool {
		s := NewStore()
		for _, r := range raw {
			v := flow.Vector(r[:])
			tpl, created := s.Match(v)
			if created {
				if flow.Distance(tpl.Vector, v) != 0 {
					return false
				}
			} else if flow.Distance(tpl.Vector, v) >= flow.DistanceLimit(len(v)) {
				return false
			}
		}
		// Members add up to the number of inserted vectors.
		total := 0
		for i := range s.Len() {
			total += s.Template(i).Members
		}
		return total == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: templates of one length bucket are pairwise >= d_lim apart.
// (Each new center was only created because no existing center was within
// the limit.)
func TestQuickCentersSeparated(t *testing.T) {
	f := func(raw [][6]uint8) bool {
		s := NewStore()
		for _, r := range raw {
			s.Match(flow.Vector(r[:]))
		}
		for i := range s.Len() {
			for j := i + 1; j < s.Len(); j++ {
				a, b := s.Template(i).Vector, s.Template(j).Vector
				if len(a) != len(b) {
					continue
				}
				if flow.Distance(a, b) < flow.DistanceLimit(len(a)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a memoized store is observationally identical to a plain one —
// same template ids, same created flags, same Members, same hit rate — for
// any Match sequence. This is what lets the parallel compressor's merge use
// the memo while reproducing serial output exactly.
func TestQuickMemoTransparent(t *testing.T) {
	f := func(raw [][4]uint8, dup []uint8) bool {
		// Interleave fresh vectors with forced duplicates so the memo path
		// actually fires.
		var seq []flow.Vector
		for i, r := range raw {
			seq = append(seq, flow.Vector(r[:]))
			if len(dup) > 0 {
				seq = append(seq, flow.Vector(raw[int(dup[i%len(dup)])%len(raw)][:]))
			}
		}
		plain, memo := NewStore(), NewStore().EnableMemo()
		for _, v := range seq {
			pt, pc := plain.Match(v)
			mt, mc := memo.Match(v)
			if pt.ID != mt.ID || pc != mc || pt.Members != mt.Members {
				return false
			}
		}
		if plain.Len() != memo.Len() || plain.HitRate() != memo.HitRate() {
			return false
		}
		for i := range plain.Len() {
			if flow.Distance(plain.Template(i).Vector, memo.Template(i).Vector) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A zero distance limit disables clustering: every Match creates a template,
// and the memo must not short-circuit that.
func TestMemoZeroLimit(t *testing.T) {
	s := NewStoreLimit(func(int) int { return 0 }).EnableMemo()
	v := flow.Vector{1, 2, 3}
	for i := 0; i < 5; i++ {
		tpl, created := s.Match(v)
		if !created {
			t.Fatalf("match %d: reused template %d under zero limit", i, tpl.ID)
		}
	}
	if s.Len() != 5 {
		t.Fatalf("expected 5 templates, got %d", s.Len())
	}
}

// An exact (limit 1) memoized store groups identical vectors only: the memo
// never widens what the limit admits.
func TestMemoExactStore(t *testing.T) {
	s := NewStoreLimit(func(int) int { return 1 }).EnableMemo()
	a := flow.Vector{10, 20, 30}
	b := flow.Vector{10, 20, 31} // distance 1: similar, but not identical
	t1, created := s.Match(a)
	if !created {
		t.Fatal("first vector should create")
	}
	if tpl, created := s.Match(append(flow.Vector(nil), a...)); created || tpl.ID != t1.ID {
		t.Fatal("identical vector should reuse the template")
	}
	if _, created := s.Match(b); !created {
		t.Fatal("near-but-distinct vector must create its own template")
	}
}

// --- Indexed-vs-naive equivalence (the pruned match path must be
// observationally identical to a plain linear first-fit scan) ---

// naiveStore is an independent reference implementation of the store's
// semantics: per-length buckets scanned linearly in insertion order, every
// decision taken by the full Distance. The property tests pin the production
// store against it.
//
// It also counts what an observer of a slot-by-slot walk reports: each find
// is a lookup, and each slot it visits up to the first fit is a sum reject or
// a distance call, classified by flow.Sum. With memo set, match resolves a
// vector it has already matched without a walk, as the store's exact-vector
// memo does.
type naiveStore struct {
	byLen map[int][]flow.Vector // template vectors per length, insertion order
	ids   map[int][]int         // parallel template ids
	limit func(int) int
	next  int

	// memo, when set, maps each vector match has matched to its template id.
	memo map[string]int
	// The slot-by-slot walk's counts, as an observer reports them.
	lookups, sumRejects, distCalls, memoHits int64
}

func newNaiveStore(limit func(int) int) *naiveStore {
	return &naiveStore{byLen: map[int][]flow.Vector{}, ids: map[int][]int{}, limit: limit}
}

func (n *naiveStore) find(v flow.Vector) int {
	n.lookups++
	lim := n.limit(len(v))
	if lim <= 0 {
		return -1
	}
	vsum := flow.Sum(v)
	for i, t := range n.byLen[len(v)] {
		if tsum := flow.Sum(t); vsum-tsum >= lim || tsum-vsum >= lim {
			n.sumRejects++
		} else {
			n.distCalls++
		}
		if flow.Distance(t, v) < lim {
			return n.ids[len(v)][i]
		}
	}
	return -1
}

func (n *naiveStore) match(v flow.Vector) (int, bool) {
	if id, ok := n.memo[string(v)]; ok {
		n.memoHits++
		return id, false
	}
	id, created := n.find(v), false
	if id < 0 {
		id, created = n.next, true
		n.next++
		n.byLen[len(v)] = append(n.byLen[len(v)], append(flow.Vector(nil), v...))
		n.ids[len(v)] = append(n.ids[len(v)], id)
	}
	if n.memo != nil && !created {
		n.memo[string(v)] = id
	}
	return id, created
}

// adversarialVectors builds a population designed to defeat the O(1) sum
// bound: permutations of one base and swaps within one of its eight segments
// (identical sums, so every candidate reaches the distance kernel), and
// vectors with tiny element tweaks around the match limit.
func adversarialVectors(seed uint64, count, length int) []flow.Vector {
	rng := rand.New(rand.NewPCG(seed, 99))
	base := make(flow.Vector, length)
	for i := range base {
		base[i] = uint8(20 + rng.UintN(60))
	}
	out := make([]flow.Vector, 0, count)
	for len(out) < count {
		v := append(flow.Vector(nil), base...)
		switch rng.UintN(3) {
		case 0: // global permutation: same sum, same element multiset
			rng.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
		case 1: // swap within one segment: same sum
			if length >= 2 {
				seg := int(rng.UintN(8))
				lo, hi := seg*length/8, (seg+1)*length/8
				if hi-lo >= 2 {
					i := lo + int(rng.UintN(uint(hi-lo)))
					j := lo + int(rng.UintN(uint(hi-lo)))
					v[i], v[j] = v[j], v[i]
				}
			}
		case 2: // near-limit tweaks
			for k := 0; k < int(rng.UintN(4)); k++ {
				v[rng.UintN(uint(length))] += uint8(rng.UintN(3))
			}
		}
		out = append(out, v)
	}
	return out
}

// missVectors returns BenchmarkStoreMatch/miss's first count vectors: 5
// elements, the base-50 digits of i each scaled by 5, so any two are at least
// d_lim(5) = 5 apart and every Match walks its whole bucket and creates. It
// is the population that keeps the sum bound: a distinct digit sum is a sum
// reject, and an equal one reaches the kernel.
func missVectors(count int) []flow.Vector {
	vs := make([]flow.Vector, count)
	for i := range vs {
		v, n := make(flow.Vector, 5), i
		for j := range v {
			v[j] = uint8(n % 50 * 5)
			n /= 50
		}
		vs[i] = v
	}
	return vs
}

// walkPopulations returns the populations the walk tests share: the
// adversarial ones at lengths from one element to past four words, and the
// all-miss one.
func walkPopulations() map[string][]flow.Vector {
	pops := map[string][]flow.Vector{"miss": missVectors(400)}
	for _, length := range []int{1, 2, 5, 8, 16, 33} {
		pops[fmt.Sprintf("adversarial/%d", length)] = adversarialVectors(uint64(length), 400, length)
	}
	return pops
}

// findFirst is the store's first-fit walk as Match takes it, without the
// memo in front and without creating a template on a miss: the template the
// pruned walk accepts for v, or nil.
func findFirst(s *Store, v flow.Vector) *Template {
	return s.find(v, s.limit(len(v)), flow.Sum(v))
}

// TestIndexedMatchesNaiveAdversarial drives the pruned walk and Match over
// the adversarial and all-miss populations with the default, the exact and a
// zero limit, with and without the memo, asserting every observable agrees
// with the naive linear scan.
func TestIndexedMatchesNaiveAdversarial(t *testing.T) {
	populations := walkPopulations()
	limits := map[string]func(int) int{
		"paper": flow.DistanceLimit,
		"exact": func(int) int { return 1 },
		"zero":  func(int) int { return 0 },
	}
	for name, lim := range limits {
		for _, memo := range []bool{false, true} {
			for pop, vecs := range populations {
				ref := newNaiveStore(lim)
				s := NewStoreLimit(lim)
				if memo {
					s.EnableMemo()
				}
				for i, v := range vecs {
					// The walk must agree before the vector is interned...
					wantID := ref.find(v)
					got := findFirst(s, v)
					if (got == nil) != (wantID < 0) || (got != nil && got.ID != wantID) {
						t.Fatalf("%s memo=%v %s vec %d: find disagrees with naive scan", name, memo, pop, i)
					}
					// ...and Match must make the identical first-fit decision.
					wantMatchID, wantCreated := ref.match(v)
					tpl, created := s.Match(v)
					if tpl.ID != wantMatchID || created != wantCreated {
						t.Fatalf("%s memo=%v %s vec %d: Match = (%d,%v), naive (%d,%v)",
							name, memo, pop, i, tpl.ID, created, wantMatchID, wantCreated)
					}
				}
				if s.Len() != ref.next {
					t.Fatalf("%s memo=%v %s: %d templates, naive %d", name, memo, pop, s.Len(), ref.next)
				}
			}
		}
	}
}

// Property: for arbitrary fuzzed vector streams the indexed store and the
// naive scan agree on every walk and Match observable.
func TestQuickIndexedMatchesNaive(t *testing.T) {
	f := func(raw [][5]uint8, dup []uint8) bool {
		var seq []flow.Vector
		for i, r := range raw {
			seq = append(seq, flow.Vector(r[:]))
			if len(dup) > 0 {
				seq = append(seq, flow.Vector(raw[int(dup[i%len(dup)])%len(raw)][:]))
			}
		}
		ref := newNaiveStore(flow.DistanceLimit)
		s := NewStore().EnableMemo()
		for _, v := range seq {
			wantFindID := ref.find(v)
			gotFind := findFirst(s, v)
			if (gotFind == nil) != (wantFindID < 0) || (gotFind != nil && gotFind.ID != wantFindID) {
				return false
			}
			wantID, wantCreated := ref.match(v)
			tpl, created := s.Match(v)
			if tpl.ID != wantID || created != wantCreated {
				return false
			}
		}
		return s.Len() == ref.next
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The memo's puts and gets must round-trip exact vectors only: a probe
// matches a key of the same bytes and the same length, and never a prefix or
// an extension of it.
func TestVecIndexExactness(t *testing.T) {
	x := newMemo()
	a := flow.Vector{1, 2, 3}
	b := flow.Vector{1, 2, 4}
	x.put(a, 10)
	if id, ok := x.get(a); !ok || id != 10 {
		t.Fatalf("get(a) = (%d,%v)", id, ok)
	}
	if _, ok := x.get(b); ok {
		t.Fatal("get(b) must miss")
	}
	if _, ok := x.get(flow.Vector{1, 2}); ok {
		t.Fatal("prefix must miss")
	}
	if _, ok := x.get(flow.Vector{1, 2, 3, 0}); ok {
		t.Fatal("extension must miss")
	}
	var zero memo
	if _, ok := zero.get(a); ok {
		t.Fatal("zero-value memo must miss")
	}

	// A stored key longer than the probe misses even when the hashes agree:
	// the comparison covers the key's whole length, not the probe's.
	long := flow.Vector{7, 8, 9, 10}
	x.put(long, 30)
	short := long[:3]
	for i := range x.slots {
		if e := &x.slots[i]; e.key != 0 && e.id == 30 {
			e.hash = hashVec(short)
			// Move the entry to short's home slot so the probe reaches it.
			home := &x.slots[e.hash&x.mask]
			*home, *e = *e, *home
			break
		}
	}
	if id, ok := x.get(short); ok {
		t.Fatalf("a 3-byte probe resolved to the 4-byte key's id %d", id)
	}
}

// TestMemoHoldsMatchedVectorsOnly pins the memo's contract: it registers the
// vectors that matched a template, never a created template's own. An
// all-miss run leaves it empty at its initial size; the first exact repeat
// of a template's vector walks its bucket once and first-fits that template,
// and the second is a memo hit that allocates nothing.
func TestMemoHoldsMatchedVectorsOnly(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	o := &StoreObserver{}
	s := NewStore().EnableMemo().Observe(o)
	vs := make([]flow.Vector, 2000)
	for i := range vs {
		v := make(flow.Vector, 24+rng.IntN(25))
		for j := range v {
			v[j] = uint8(rng.IntN(120))
		}
		vs[i] = v
		if _, created := s.Match(v); !created {
			t.Fatalf("vector %d matched: the population must be all-miss", i)
		}
	}
	if s.memo.n != 0 || len(s.memo.slots) != 64 || len(s.memo.copies) != 0 {
		t.Fatalf("all-miss run: memo has %d entries in %d slots, %d copied bytes; want 0 in 64, 0",
			s.memo.n, len(s.memo.slots), len(s.memo.copies))
	}

	want := s.Template(1234)
	repeat := append(flow.Vector(nil), want.Vector...)
	lookups := o.Lookups.Load()
	if tpl, created := s.Match(repeat); created || tpl != want {
		t.Fatalf("first repeat: Match = (%d,%v), want template %d", tpl.ID, created, want.ID)
	}
	if got := o.Lookups.Load() - lookups; got != 1 || o.MemoHits.Load() != 0 {
		t.Fatalf("first repeat: %d walks and %d memo hits, want 1 and 0", got, o.MemoHits.Load())
	}
	if s.memo.n != 1 {
		t.Fatalf("first repeat: memo has %d entries, want 1", s.memo.n)
	}
	if allocs := testing.AllocsPerRun(1, func() {
		if tpl, created := s.Match(repeat); created || tpl != want {
			t.Fatalf("second repeat: Match = (%d,%v), want template %d", tpl.ID, created, want.ID)
		}
	}); allocs != 0 {
		t.Errorf("second repeat: %.0f allocations, want 0", allocs)
	}
	if got := o.Lookups.Load() - lookups; got != 1 || o.MemoHits.Load() == 0 {
		t.Fatalf("second repeat: %d walks and %d memo hits in all, want 1 and at least 1", got, o.MemoHits.Load())
	}
}

// TestPageEdgesMatchNaive holds the walk across bucket page edges. One
// 8-element bucket of 520 templates has its page edges at slots 4, 8, 16, ...,
// 256 and 512. Filler templates, elements at most 64, are sum-rejected by
// every query; around the edges 3|4, 7|8, 255|256 and 511|512 sit four
// same-sum templates each, slots e-2 to e+1, so every query's run of
// sum-surviving candidates straddles one edge. The queries are each of the
// four, points midway between neighbours (a fit for both under the wider
// limit, so the first fit is the earlier one) and a miss. Hit, sum rejects
// and distance calls must equal a slot-by-slot walk over the templates in
// creation order.
func TestPageEdgesMatchNaive(t *testing.T) {
	const n, slots = 8, 520
	edges := []int{4, 8, 256, 512}
	// variant returns edge class c's base with +4 at element a and -4 at b;
	// the four templates of a class take pairs (0,1), (2,3), (4,5), (6,7),
	// 16 apart, and (1,0) is 16 from each of them.
	variant := func(c, a, b int) flow.Vector {
		v := make(flow.Vector, n)
		for i := range v {
			v[i] = uint8(200 + 2*c)
		}
		v[a] += 4
		v[b] -= 4
		return v
	}
	class := map[int][2]int{} // slot -> (edge class, position in it)
	for c, e := range edges {
		for k := range 4 {
			class[e-2+k] = [2]int{c, k}
		}
	}
	s, filler := NewStore(), 0
	for i := range slots {
		var v flow.Vector
		if ck, ok := class[i]; ok {
			v = variant(ck[0], 2*ck[1], 2*ck[1]+1)
		} else {
			// The base-9 digits of a filler counter, scaled by 8: fillers
			// are at least 8 apart and sum to at most 512.
			v = make(flow.Vector, n)
			for j, d := 0, filler; j < n; j, d = j+1, d/9 {
				v[j] = uint8(d % 9 * 8)
			}
			filler++
		}
		if _, created := s.Match(v); !created {
			t.Fatalf("slot %d did not found a template", i)
		}
	}
	var starts []int
	next := 0
	for _, pg := range s.byLen[n] {
		starts = append(starts, next)
		next += len(pg.sums)
	}
	if want := []int{0, 4, 8, 16, 32, 64, 128, 256, 512}; !slices.Equal(starts, want) || next != slots {
		t.Fatalf("pages start at slots %v and hold %d, want %v and %d", starts, next, want, slots)
	}

	naive := func(v flow.Vector, lim int) (hit int, rejects, dists int64) {
		vsum := flow.Sum(v)
		for i := range s.Len() {
			tv := s.Template(i).Vector
			if ds := vsum - flow.Sum(tv); ds >= lim || -ds >= lim {
				rejects++
			} else {
				dists++
			}
			if flow.Distance(tv, v) < lim {
				return i, rejects, dists
			}
		}
		return -1, rejects, dists
	}
	for c, e := range edges {
		var queries []flow.Vector
		for k := range 4 {
			queries = append(queries, variant(c, 2*k, 2*k+1))
		}
		for k := range 3 {
			mid := variant(c, 2*k, 2*k+1)
			mid[2*k] -= 2
			mid[2*k+1] += 2
			mid[2*k+2] += 2
			mid[2*k+3] -= 2
			queries = append(queries, mid)
		}
		queries = append(queries, variant(c, 1, 0))
		for qi, v := range queries {
			for _, lim := range []int{flow.DistanceLimit(n), 12} {
				wantHit, wantRejects, wantDists := naive(v, lim)
				o := &StoreObserver{}
				s.Observe(o)
				got := s.find(v, lim, flow.Sum(v))
				s.Observe(nil)
				gotHit := -1
				if got != nil {
					gotHit = got.ID
				}
				if gotHit != wantHit || o.SumRejects.Load() != wantRejects || o.DistCalls.Load() != wantDists {
					t.Errorf("edge %d|%d query %d limit %d: hit %d, %d sum rejects, %d distance calls; slot-by-slot walk %d, %d, %d",
						e-1, e, qi, lim, gotHit, o.SumRejects.Load(), o.DistCalls.Load(), wantHit, wantRejects, wantDists)
				}
			}
		}
	}
}
