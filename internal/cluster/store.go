package cluster

import "flowzip/internal/flow"

// Template is one cluster center: an F vector that represents every flow
// matched to it.
type Template struct {
	ID      int
	Vector  flow.Vector
	Members int // number of flows matched to this template (including itself)
}

// Store holds templates bucketed by flow length and answers first-fit match
// queries under the paper's L1 similarity with threshold d_lim(n).
//
// The paper's method only compares flows with identical packet counts, so
// each length has an independent bucket, a list of pages. A page is
// structure-of-arrays: its vectors live back to back in one []byte arena, with
// each vector's precomputed element sum in a parallel slice — so the candidate
// walk is a linear scan over cache-resident arrays instead of a pointer chase
// through per-template allocations. Candidates are still visited in insertion
// order — first-fit semantics are what keep every pipeline byte-identical —
// with each one first screened against the O(1) sum bound; maximal runs of
// candidates that survive it are then handed to the wide first-fit kernel
// (flow.DistanceWithinBatch), which computes early-exit distances straight
// over a page's arena. The bound cannot reject a true match and the batch
// kernel visits its run in arena order, so exactly the first template the
// naive linear scan would accept is accepted here.
type Store struct {
	byLen      map[int][]page // a length's bucket: its pages in slot order
	tpls       tplDir         // every template, in creation order
	ntpl       int            // templates created so far
	limit      func(n int) int
	memo       memo // exact-vector Match cache, zero-value unless enabled
	matches    int64
	misses     int64
	arenaBytes int64
	obs        *StoreObserver // optional sampler, nil when observability is off

	// limCache memoizes limit(n) for short lengths: the limit function is
	// fixed per store and the default does float math per call, which showed
	// up as measurable on the per-flow Match path. limUnset marks cold slots
	// (0 is a valid limit).
	limCache [limCacheLen]int32
}

const (
	limCacheLen = 64
	limUnset    = int32(-1 << 31)
)

// limFor returns limit(n), served from the per-length cache when possible.
func (s *Store) limFor(n int) int {
	if n < limCacheLen {
		if l := s.limCache[n]; l != limUnset {
			return int(l)
		}
		l := s.limit(n)
		s.limCache[n] = int32(l)
		return l
	}
	return s.limit(n)
}

// page is a run of one length bucket's slots, n elements a vector, as
// structure-of-arrays: slot i of the arena (bytes [i*n, (i+1)*n)) is template
// tpls[i]'s vector, sums[i] its element sum. All three arrays are allocated at
// the page's capacity and only appended into, so a slot never moves and a
// template's Vector aliases its slot for the store's life. A bucket's first
// page holds 4 slots and each later one as many as the bucket already holds,
// up to 256.
type page struct {
	arena []byte // len(tpls) vectors of n bytes, back to back
	tpls  []*Template
	sums  []int32
}

// tplPageLen is how many Templates a page of the template directory holds,
// 1<<tplPageShift.
const (
	tplPageShift = 8
	tplPageLen   = 1 << tplPageShift
)

// tplDir lists templates in creation order in fixed pages: template i is
// dir[i>>tplPageShift][i&(tplPageLen-1)]. Pages are appended and never move,
// so a *Template stays valid.
type tplDir []*[tplPageLen]Template

func (d tplDir) at(i int) *Template { return &d[i>>tplPageShift][i&(tplPageLen-1)] }

// NewStore builds a store using the paper's threshold d_lim(n) = n.
func NewStore() *Store { return NewStoreLimit(flow.DistanceLimit) }

// NewStoreLimit builds a store with a custom threshold function, used by the
// threshold-ablation experiment. limit(n) is the exclusive upper bound on
// the L1 distance for a match ("difference ... lower than 2% of the maximum
// inter flow distance").
func NewStoreLimit(limit func(n int) int) *Store {
	s := &Store{byLen: make(map[int][]page), limit: limit}
	for i := range s.limCache {
		s.limCache[i] = limUnset
	}
	return s
}

// EnableMemo turns on the exact-duplicate match cache and returns the store.
// Match then resolves a vector identical to one that has already matched a
// template with one hash and one compare instead of a bucket scan, allocating
// nothing on a hit (the cache is a memo of 16-byte slots, not a string-keyed
// map, so no key is ever built).
//
// The cache is exact: buckets are append-only and the limit function is fixed
// per store, so the first template within the limit of a given vector — the
// first-fit answer — never changes once computed, and a memoized Match is
// indistinguishable from the linear scan. It holds matched vectors only: a
// repeat of the vector a template was created from first-fits that template,
// since no earlier one was within the limit, so it walks its bucket once and
// is memoized then. On traffic that never repeats a shape the memo stays
// empty; traffic that repeats a small set of shapes constantly resolves
// nearly every Match through it.
func (s *Store) EnableMemo() *Store {
	if !s.memo.enabled() {
		s.memo = newMemo()
	}
	return s
}

// find is the pruned first-fit walk behind Match: it returns the first
// template of v's bucket within lim, visiting candidates in insertion order
// and rejecting them via the sum lower bound, |vsum - sum(t)| <= L1(v, t),
// before paying for an (early-exit) distance computation. Candidates that
// survive the bound are scanned in maximal contiguous runs by the wide arena
// kernel; a run's first fit is the walk's first fit, because the bound never
// rejects a true match and the kernel visits the run in insertion order. A
// run ends at a page's last slot and the next starts on the next page's
// first, so pages are walked in order and the walk stays in insertion order.
//
// The sum bound stays although the kernel exits early on its own: on short
// vectors, where the kernel takes its byte loop, one int32 compare per slot
// is cheaper than the loop's first bytes. Without it the all-miss walk over
// 5-byte vectors (BenchmarkStoreMatch/miss) ran 1.3-1.8x slower.
//
// The walk counts what a slot-by-slot walk would report to an attached
// observer: a reject wherever the outer loop skips a candidate (a run's
// extension re-screens the slot that ends it, and the outer loop counts it
// there), and k+1 distance calls for a hit at offset k of a run, j-i for a
// run that misses. The counts live in locals and reach the observer once per
// walk, so the unobserved walk pays no per-candidate branch.
func (s *Store) find(v flow.Vector, lim, vsum int) *Template {
	var (
		hit               *Template
		sumRejects, dists int
	)
	// A non-positive limit admits nothing: distances are >= 0.
	if pages := s.byLen[len(v)]; lim > 0 {
		n := len(v)
	walk:
		for p := range pages {
			sums := pages[p].sums
			for i := 0; i < len(sums); {
				if ds := vsum - int(sums[i]); ds >= lim || -ds >= lim {
					sumRejects++
					i++
					continue
				}
				// Extend the run of candidates that survive the bound.
				j := i + 1
				for j < len(sums) {
					if ds := vsum - int(sums[j]); ds >= lim || -ds >= lim {
						break
					}
					j++
				}
				if k := flow.DistanceWithinBatch(pages[p].arena[i*n:j*n], j-i, v, lim); k >= 0 {
					hit, dists = pages[p].tpls[i+k], dists+k+1
					break walk
				}
				dists += j - i
				i = j
			}
		}
	}
	if o := s.obs; o != nil {
		o.Lookups.Add(1)
		o.SumRejects.Add(int64(sumRejects))
		o.DistCalls.Add(int64(dists))
	}
	return hit
}

// Match implements the compressor's insert-or-reuse step: it returns the
// matching template and created=false, or installs v as a new cluster center
// and returns it with created=true. The element sum is only computed after
// the memo misses — on repeat-heavy traffic most Match calls resolve with
// one hash probe and never touch it.
func (s *Store) Match(v flow.Vector) (t *Template, created bool) {
	if t := s.memoHit(v); t != nil {
		return t, false
	}
	return s.matchSlow(v, s.limFor(len(v)), flow.Sum(v))
}

// memoHit resolves v through the exact-duplicate cache, returning nil on a
// miss (or when the memo is off). No distance recheck is needed on a hit:
// the limit is fixed per store and buckets are append-only, so the entry's
// registration already proved its template is within the limit of these
// exact bytes.
func (s *Store) memoHit(v flow.Vector) *Template {
	if !s.memo.enabled() {
		return nil
	}
	id, ok := s.memo.get(v)
	if !ok {
		return nil
	}
	t := s.tpls.at(int(id))
	t.Members++
	s.matches++
	if s.obs != nil {
		s.obs.MemoHits.Add(1)
		s.obs.Matches.Add(1)
	}
	return t
}

// matchSlow is the post-memo tail of Match: the pruned first-fit walk, then
// template creation on a miss.
func (s *Store) matchSlow(v flow.Vector, lim, vsum int) (_ *Template, created bool) {
	if t := s.find(v, lim, vsum); t != nil {
		t.Members++
		s.matches++
		if s.obs != nil {
			s.obs.Matches.Add(1)
		}
		if s.memo.enabled() {
			// The caller may reuse v's backing (the compressor's scratch
			// vector), so the memo keeps its own copy, in its byte arena.
			s.memo.put(v, int32(t.ID))
		}
		return t, false
	}
	t := s.create(v, vsum)
	s.misses++
	if s.obs != nil {
		s.obs.Creates.Add(1)
	}
	return t, true
}

// MatchBatch is the loop it looks like: tpls[i] and created[i] receive
// Match(vs[i]) in order, so templates created for earlier vectors are
// first-fit candidates for later ones and all counters advance as they would.
// It amortizes nothing; the bench's cluster.match stage times the store
// through it. tpls and created must hold at least len(vs) entries.
func (s *Store) MatchBatch(vs []flow.Vector, tpls []*Template, created []bool) {
	for i, v := range vs {
		tpls[i], created[i] = s.Match(v)
	}
}

// create installs v (copied into the next slot of its bucket's last page,
// after opening a page if that one is full) as a new template with its
// precomputed element sum. The template's Vector aliases its slot, and the
// Template itself lives in the directory's last page, opened every 256
// templates.
func (s *Store) create(v flow.Vector, vsum int) *Template {
	n := len(v)
	pages := s.byLen[n]
	if len(pages) == 0 || len(pages[len(pages)-1].sums) == cap(pages[len(pages)-1].sums) {
		slots := 0
		for i := range pages {
			slots += len(pages[i].sums)
		}
		c := min(max(slots, 4), 256)
		pages = append(pages, page{arena: make([]byte, 0, c*n), tpls: make([]*Template, 0, c), sums: make([]int32, 0, c)})
		s.byLen[n] = pages
	}
	pg := &pages[len(pages)-1]
	off := len(pg.arena)
	pg.arena = append(pg.arena, v...)
	if s.ntpl == len(s.tpls)<<tplPageShift {
		s.tpls = append(s.tpls, new([tplPageLen]Template))
	}
	t := s.tpls.at(s.ntpl)
	*t = Template{
		ID:      s.ntpl,
		Vector:  flow.Vector(pg.arena[off : off+n : off+n]),
		Members: 1,
	}
	s.ntpl++
	pg.tpls = append(pg.tpls, t)
	pg.sums = append(pg.sums, int32(vsum))
	s.arenaBytes += int64(n)
	if s.obs != nil {
		s.obs.ArenaBytes.Add(int64(n))
	}
	return t
}

// grow returns s with room for extra more elements. When the spare capacity
// runs out it moves s to a backing of twice the capacity: append grows by
// about 1.25x past 256 elements, so a memo built by append allocates several
// times its final arrays on the way there.
func grow[T any](s []T, extra int) []T {
	if len(s)+extra <= cap(s) {
		return s
	}
	g := make([]T, len(s), max(2*cap(s), len(s)+extra))
	copy(g, s)
	return g
}

// Len returns the number of templates (clusters).
func (s *Store) Len() int { return s.ntpl }

// Template returns template i, 0 <= i < Len(), in creation order: its ID is i.
func (s *Store) Template(i int) *Template { return s.tpls.at(i) }

// ArenaBytes returns the total vector bytes held in bucket arenas.
func (s *Store) ArenaBytes() int64 { return s.arenaBytes }

// HitRate returns the fraction of Match calls that reused a template.
func (s *Store) HitRate() float64 {
	total := s.matches + s.misses
	if total == 0 {
		return 0
	}
	return float64(s.matches) / float64(total)
}

// Stats summarizes store occupancy. Created counts Match misses, so it
// always equals Templates.
type Stats struct {
	Templates int
	Matched   int64 // flows that reused a template
	Created   int64 // flows that became new templates
}

// Stats returns current counters.
func (s *Store) Stats() Stats {
	return Stats{Templates: s.ntpl, Matched: s.matches, Created: s.misses}
}
