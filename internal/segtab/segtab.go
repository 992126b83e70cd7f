// Package segtab is the open-addressing hash table behind the flow table and
// the server-address interner: a table of pointer-free words that grows one
// 4 KiB segment at a time and never rehashes the whole of itself (extendible
// hashing).
//
// A word is tag<<32 | val. The tag is the caller's 32-bit hash; val is the
// caller's non-zero 32-bit payload (an index + 1), so the zero word is the
// empty slot. The table keeps no keys: a lookup yields the values stored
// under a tag, one at a time, and the caller compares whatever they name.
//
// The words live in segments of 1<<segBits slots. A directory of 1<<depth
// entries picks a tag's segment by the tag's top depth bits; inside
// the segment, the tag's low bits pick its home slot, and linear probing and
// backward-shift deletion wrap within the segment. Each segment has a local
// depth, the number of top tag bits all its words share by construction, at
// most the directory's; the 1<<(depth-local) directory entries with those bits
// point to it.
//
// A segment that an insert would take past 7/8 load splits: it and one new
// segment take the words whose next tag bit is 0 and 1, both one level
// deeper, and the directory doubles — copying its entries, a slots pointer
// and a segment number each, never a word — just when the splitting segment
// was already as deep as the directory. No word ever moves to a larger
// array, so growth allocates the segments the table ends with, a directory
// of 16 bytes an entry and a list of 16 bytes a segment, and nothing that
// becomes garbage but the directories and lists it outgrew. Drain clears the segments in place and
// keeps them split as they are, so a fill of the same words again splits and
// allocates nothing.
//
// A segment holds words whose top local-depth tag bits agree, and the low
// segBits bits are its slot index, so a split can use the bits in between:
// the depth stops at 32 - segBits. There the directory has 2^23 entries and
// the table at most 2^23 · 448 = 7 · 2^29 words. Splitting a segment whose
// words, and the tag being inserted, agree in every bit a split could still
// use would only deepen the directory for nothing; Put panics after the first
// such split instead, as it does on a full segment at the depth limit. A
// caller that seeds its tags makes either unreachable without more words
// than the limit.
package segtab

const (
	// segBits is the log2 of a segment's slot count: 512 words, 4 KiB.
	segBits  = 9
	segSlots = 1 << segBits

	// maxLoad is the most words a segment holds, 7/8 of its slots; an insert
	// past it splits the segment.
	maxLoad = segSlots * 7 / 8
)

// Table is a segmented open-addressing table of tag<<32 | val words. Make one
// with New.
type Table struct {
	dir   []entry
	shift uint8 // 32 - log2 len(dir): tag's directory entry is tag>>shift
	n     int
	segs  []segment // each segment once, in the order made
}

// entry is a directory entry: a segment's slots, so that a probe reaches them
// in one load from the directory, and its index in Table.segs.
type entry struct {
	slots *[segSlots]uint64
	seg   int
}

// segment is a segment's slots and counts. The counts of all segments sit
// together in Table.segs, out of the way of other objects' cache lines:
// every insert and delete writes one.
type segment struct {
	slots *[segSlots]uint64
	n     int32 // words held
	depth uint8 // local depth: the top tag bits all its words share
}

// New returns an empty table of one segment.
func New() Table {
	t := Table{shift: 32}
	t.dir = []entry{t.newSegment()}
	return t
}

// Len returns the number of words held.
func (t *Table) Len() int { return t.n }

// depth returns the directory's depth, the tag bits that pick an entry.
func (t *Table) depth() uint8 { return 32 - t.shift }

// at returns the directory entry of tag's segment.
func (t *Table) at(tag uint32) *entry {
	return &t.dir[uint64(tag)>>(t.shift&63)]
}

// Get returns the value of the first word stored under tag from the skip-th
// slot of tag's probe run on, and the skip that resumes the walk past it;
// val is 0 when the run ends first. Get(tag, 0) starts at the home slot.
func (t *Table) Get(tag, skip uint32) (val, resume uint32) {
	i, w := probe(t.at(tag).slots, tag, skip)
	if w == 0 {
		return 0, 0
	}
	return uint32(w), i - tag + 1
}

// Intern returns the value of the first word stored under tag, storing the
// word tag<<32 | val first if there is none: one walk of the probe run, for
// a caller whose tag is its key. val must not be 0.
func (t *Table) Intern(tag, val uint32) uint32 {
	e := t.at(tag)
	i, w := probe(e.slots, tag, 0)
	switch s := &t.segs[e.seg]; {
	case w != 0:
		return uint32(w)
	case s.n == maxLoad:
		t.Put(tag, val)
	default:
		e.slots[i%segSlots] = uint64(tag)<<32 | uint64(val)
		s.n++
		t.n++
	}
	return val
}

// probe walks tag's probe run in slots from its skip-th slot to the first
// word stored under tag, or to the empty slot that ends the run, and returns
// that slot's index from tag's home and its word.
func probe(slots *[segSlots]uint64, tag, skip uint32) (i uint32, w uint64) {
	for i = tag + skip; ; i++ {
		if w = slots[i%segSlots]; w == 0 || uint32(w>>32) == tag {
			return i, w
		}
	}
}

// Put stores the word tag<<32 | val. val must not be 0, and the word must not
// be stored already.
func (t *Table) Put(tag, val uint32) {
	e := t.at(tag)
	for t.segs[e.seg].n == maxLoad {
		t.split(e.seg, tag)
		e = t.at(tag)
	}
	place(e.slots, uint64(tag)<<32|uint64(val))
	t.segs[e.seg].n++
	t.n++
}

// place puts w in the first empty slot from its home.
func place(slots *[segSlots]uint64, w uint64) {
	i := uint32(w >> 32)
	for slots[i%segSlots] != 0 {
		i++
	}
	slots[i%segSlots] = w
}

// Del removes the word tag<<32 | val, compacting the probe run behind it
// (backward-shift deletion): every word displaced past the hole that could
// legally live closer to its home slot moves back, so lookups never need
// tombstones. Deleting a word that is not stored is a no-op.
func (t *Table) Del(tag, val uint32) {
	e := t.at(tag)
	slots := e.slots
	want := uint64(tag)<<32 | uint64(val)
	i := tag % segSlots
	for slots[i] != want {
		if slots[i] == 0 {
			return
		}
		i = (i + 1) % segSlots
	}
	t.segs[e.seg].n--
	t.n--
	j := i
	for {
		// Find the next word allowed to fill the hole at i: one whose home
		// slot is not inside the cyclic window (i, j] — moving it to i keeps
		// it reachable from its home by the same linear probe.
		for {
			j = (j + 1) % segSlots
			if slots[j] == 0 {
				slots[i] = 0
				return
			}
			if (j-uint32(slots[j]>>32))%segSlots >= (j-i)%segSlots {
				break
			}
		}
		slots[i] = slots[j]
		i = j
	}
}

// split divides segment si, which has no room for tag, by its next tag bit
// into itself and a new segment.
func (t *Table) split(si int, tag uint32) {
	old := t.segs[si].depth
	if old == 32-segBits {
		panic("segtab: a full segment at the depth limit")
	}
	if old == t.depth() {
		t.grow()
	}
	// si's directory entries are the run of 1<<(depth-local) that share its
	// top local-depth bits; the upper half of the run goes to the new segment.
	run := uint64(1) << (t.depth() - old)
	start := uint64(tag) >> ((32 - old) & 63) * run
	ne := t.newSegment()
	s, ns := &t.segs[si], &t.segs[ne.seg]
	s.depth, ns.depth = old+1, old+1
	for i := start + run/2; i < start+run; i++ {
		t.dir[i] = ne
	}
	// Each word goes to the segment its next tag bit names.
	words := *s.slots // s's words, on the stack while s is refilled
	clear(s.slots[:])
	halves := [2]*[segSlots]uint64{s.slots, ns.slots}
	var n [2]int32
	var differ uint32
	for _, w := range words {
		if w != 0 {
			h := w >> (63 - old) & 1
			place(halves[h], w)
			n[h]++
			differ |= uint32(w>>32) ^ tag
		}
	}
	s.n, ns.n = n[0], n[1]
	// If the words and tag agree in every bit a split could use, from this
	// one's down to the slot index, this split moved them all to tag's half
	// and no later one will do better: fail rather than deepen the
	// directory for nothing.
	if differ&(uint32(1)<<(32-old)-1<<segBits) == 0 {
		panic("segtab: a full segment's words share every tag bit a split could use")
	}
}

// grow doubles the directory, each entry becoming two adjacent ones.
func (t *Table) grow() {
	dir := make([]entry, 2*len(t.dir))
	for i, e := range t.dir {
		dir[2*i], dir[2*i+1] = e, e
	}
	t.dir = dir
	t.shift--
}

// newSegment makes a new empty segment and returns its directory entry.
func (t *Table) newSegment() entry {
	e := entry{new([segSlots]uint64), len(t.segs)}
	t.segs = append(t.segs, segment{slots: e.slots})
	return e
}

// Drain empties the table in O(slots) without per-word deletion shifts. The
// segments stay, and so does the directory.
func (t *Table) Drain() {
	for i := range t.segs {
		clear(t.segs[i].slots[:])
		t.segs[i].n = 0
	}
	t.n = 0
}

// Each calls f with every word held, in no particular order.
func (t *Table) Each(f func(tag, val uint32)) {
	for _, s := range t.segs {
		for _, w := range s.slots {
			if w != 0 {
				f(uint32(w>>32), uint32(w))
			}
		}
	}
}

// Steps returns the slots a lookup of every word walks, from its home slot
// through its own: the number of words when no probe run is longer than it
// must be, about n²/2 when n words share one home.
func (t *Table) Steps() int {
	steps := 0
	for _, s := range t.segs {
		for j, w := range s.slots {
			if w != 0 {
				steps += int((uint32(j)-uint32(w>>32))%segSlots) + 1
			}
		}
	}
	return steps
}

// Segments returns the number of segments and the directory's length.
func (t *Table) Segments() (segments, dir int) { return len(t.segs), len(t.dir) }
