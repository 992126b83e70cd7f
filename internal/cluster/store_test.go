package cluster

import (
	"fmt"
	"math/rand/v2"
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
		for _, tpl := range s.Templates() {
			total += tpl.Members
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
		tpls := s.Templates()
		for i := 0; i < len(tpls); i++ {
			for j := i + 1; j < len(tpls); j++ {
				a, b := tpls[i].Vector, tpls[j].Vector
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
		for i, tpl := range plain.Templates() {
			if flow.Distance(tpl.Vector, memo.Templates()[i].Vector) != 0 {
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

// An exact (limit 1) memoized store groups identical vectors only — the
// configuration the parallel compressor's shard stores rely on.
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
// vector it has already seen (under a positive limit) without a walk, as the
// store's exact-vector memo does.
type naiveStore struct {
	byLen map[int][]flow.Vector // template vectors per length, insertion order
	ids   map[int][]int         // parallel template ids
	limit func(int) int
	next  int

	// memo, when set, maps each vector match has seen to its first-fit id.
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
	if id, ok := n.memo[string(v)]; ok && n.limit(len(v)) > 0 {
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
	if n.memo != nil {
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
// matches a key of the same bytes and the same length, whether the key is a
// template's vector or the memo's own copy, and never a prefix or an
// extension of it.
func TestVecIndexExactness(t *testing.T) {
	x := newMemo()
	a := flow.Vector{1, 2, 3}
	b := flow.Vector{1, 2, 4}
	x.put(a, -1, 10, nil)
	if id, ok := x.get(a, nil); !ok || id != 10 {
		t.Fatalf("get(a) = (%d,%v)", id, ok)
	}
	if _, ok := x.get(b, nil); ok {
		t.Fatal("get(b) must miss")
	}
	if _, ok := x.get(flow.Vector{1, 2}, nil); ok {
		t.Fatal("prefix must miss")
	}
	if _, ok := x.get(flow.Vector{1, 2, 3, 0}, nil); ok {
		t.Fatal("extension must miss")
	}
	x.put(a, -1, 20, nil) // upsert
	if id, _ := x.get(a, nil); id != 20 {
		t.Fatalf("upsert kept %d", id)
	}
	var zero memo
	if _, ok := zero.get(a, nil); ok {
		t.Fatal("zero-value memo must miss")
	}

	// A stored key longer than the probe misses even when the hashes agree:
	// the comparison covers the key's whole length, not the probe's.
	long := flow.Vector{7, 8, 9, 10}
	x.put(long, -1, 30, nil)
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
	if id, ok := x.get(short, nil); ok {
		t.Fatalf("a 3-byte probe resolved to the 4-byte key's id %d", id)
	}

	// A template key and a copy key with equal bytes are one entry: the later
	// put overwrites the id, and adds no copy.
	s := NewStore().EnableMemo()
	tpl, _ := s.Match(flow.Vector{40, 50, 60})
	copies := len(s.memo.copies)
	s.memo.put(append(flow.Vector(nil), tpl.Vector...), -1, 99, s.templates)
	if id, ok := s.memo.get(tpl.Vector, s.templates); !ok || id != 99 {
		t.Fatalf("get after the copy put = (%d,%v), want (99,true)", id, ok)
	}
	if s.memo.n != 1 || len(s.memo.copies) != copies {
		t.Fatalf("%d entries and %d copied bytes after two puts of one key, want 1 and %d", s.memo.n, len(s.memo.copies), copies)
	}
	m2 := newMemo()
	m2.put(flow.Vector{40, 50, 60}, -1, 1, s.templates)
	m2.put(tpl.Vector, tpl.ID, 2, s.templates)
	if id, ok := m2.get(flow.Vector{40, 50, 60}, s.templates); !ok || id != 2 || m2.n != 1 {
		t.Fatalf("copy then template put: get = (%d,%v) over %d entries, want (2,true) over 1", id, ok, m2.n)
	}
}
