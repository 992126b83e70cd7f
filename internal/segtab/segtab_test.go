package segtab

import (
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// model holds a Table against the map it must behave as: tag to the set of
// values stored under it.
type model struct {
	t   *testing.T
	tab Table
	ref map[uint32]map[uint32]bool
	n   int
}

func newModel(t *testing.T) *model {
	return &model{t: t, tab: New(), ref: map[uint32]map[uint32]bool{}}
}

func (m *model) put(tag, val uint32) {
	m.tab.Put(tag, val)
	if m.ref[tag] == nil {
		m.ref[tag] = map[uint32]bool{}
	}
	m.ref[tag][val] = true
	m.n++
}

// intern calls Intern, which stores the word only when no word is stored
// under tag, and reports whether it did.
func (m *model) intern(tag, val uint32) bool {
	m.t.Helper()
	got := m.tab.Intern(tag, val)
	if len(m.ref[tag]) > 0 {
		if !m.ref[tag][got] {
			m.t.Fatalf("Intern(%#x, %d) = %d, the map holds %v", tag, val, got, m.ref[tag])
		}
		return false
	}
	if got != val {
		m.t.Fatalf("Intern(%#x, %d) = %d of a tag the map does not hold", tag, val, got)
	}
	m.ref[tag] = map[uint32]bool{val: true}
	m.n++
	return true
}

func (m *model) del(tag, val uint32) {
	m.tab.Del(tag, val)
	if m.ref[tag][val] {
		delete(m.ref[tag], val)
		m.n--
	}
}

func (m *model) drain() {
	m.tab.Drain()
	clear(m.ref)
	m.n = 0
}

// checkTag compares the values a probe of tag yields with the map's.
func (m *model) checkTag(tag uint32) {
	m.t.Helper()
	got := map[uint32]bool{}
	for v, skip := m.tab.Get(tag, 0); v != 0; v, skip = m.tab.Get(tag, skip) {
		if got[v] {
			m.t.Fatalf("probe of %#x yields %d twice", tag, v)
		}
		got[v] = true
	}
	if len(got) != len(m.ref[tag]) {
		m.t.Fatalf("probe of %#x yields %v, the map holds %v", tag, got, m.ref[tag])
	}
	for v := range got {
		if !m.ref[tag][v] {
			m.t.Fatalf("probe of %#x yields %d, the map holds %v", tag, v, m.ref[tag])
		}
	}
}

// check compares everything: the count, every tag's values, and the shape —
// each segment's count and load, each word in a segment the directory picks
// for its tag, each segment reached by exactly the directory run its local
// depth gives it.
func (m *model) check() {
	m.t.Helper()
	if m.tab.Len() != m.n {
		m.t.Fatalf("table counts %d words, the map %d", m.tab.Len(), m.n)
	}
	for tag := range m.ref {
		m.checkTag(tag)
	}
	seen := 0
	m.tab.Each(func(tag, val uint32) {
		if !m.ref[tag][val] {
			m.t.Fatalf("table holds %#x=%d, the map does not", tag, val)
		}
		seen++
	})
	if seen != m.n {
		m.t.Fatalf("Each yields %d words, the map holds %d", seen, m.n)
	}
	tab := &m.tab
	depth := tab.depth()
	if len(tab.dir) != 1<<depth {
		m.t.Fatalf("directory of %d entries at depth %d", len(tab.dir), depth)
	}
	reach := make([]int, len(tab.segs))
	for i, e := range tab.dir {
		s := &tab.segs[e.seg]
		if e.slots != s.slots {
			m.t.Fatalf("directory entry %d holds another segment's slots", i)
		}
		if s.depth > depth {
			m.t.Fatalf("segment at local depth %d under a directory at %d", s.depth, depth)
		}
		if first := i &^ (1<<(depth-s.depth) - 1); tab.dir[first].seg != e.seg {
			m.t.Fatalf("directory entry %d points outside its segment's run", i)
		}
		reach[e.seg]++
	}
	for si, s := range tab.segs {
		if reach[si] != 1<<(depth-s.depth) {
			m.t.Fatalf("segment at local depth %d reached by %d entries", s.depth, reach[si])
		}
		n := 0
		for _, w := range s.slots {
			if w == 0 {
				continue
			}
			n++
			if tab.at(uint32(w>>32)).seg != si {
				m.t.Fatalf("word %#x in a segment its tag does not pick", w)
			}
		}
		if int(s.n) != n || n > maxLoad {
			m.t.Fatalf("segment counts %d words, holds %d of %d slots", s.n, n, segSlots)
		}
	}
}

// TestTableMatchesMap drives random interleavings of put, intern, get, del and
// drain against a map, over a tag universe where tags repeat (values tell them
// apart), crowd one 12-bit prefix (splits that move every word to one side,
// and a directory many levels deep) and share their home slot (runs that wrap
// the segment), in phases that lean towards inserts or towards deletes.
func TestTableMatchesMap(t *testing.T) {
	const words = 12000
	const phaseSteps = 2 * words
	phases := []float64{0.7, 0.3, 0.9, 0.5}
	var splits, doublings, wraps int
	for seed := 0; seed < 4; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		tags := make([]uint32, 0, words)
		copies := map[uint32]int{}
		for len(tags) < words {
			tag := rng.Uint32()
			switch rng.Intn(8) {
			case 0: // a tag repeated under another value, at most thrice: 449
				// words under one tag would fill a segment no split can divide
				if len(tags) > 0 && copies[tags[len(tags)-1]] < 3 {
					tag = tags[len(tags)-1]
				}
			case 1: // one 12-bit prefix for an eighth of the universe
				tag = 0xabc00000 | tag&0xfffff
			case 2: // home in the segment's last slot
				tag |= segSlots - 1
			}
			copies[tag]++
			tags = append(tags, tag)
		}
		m := newModel(t)
		held := make([]bool, words)
		for step := 0; step < 5*phaseSteps; step++ {
			putShare := phases[(step/phaseSteps+seed)%len(phases)]
			if step == 7*phaseSteps/2 {
				m.drain()
				clear(held)
				m.check()
			}
			k := rng.Intn(words)
			tag, val := tags[k], uint32(k+1)
			m.checkTag(tag)
			switch put := rng.Float64() < putShare; {
			case held[k] && !put:
				m.del(tag, val)
				held[k] = false
			case !held[k] && put:
				segs, depth := len(m.tab.segs), m.tab.depth()
				if rng.Intn(2) == 0 {
					m.put(tag, val)
					held[k] = true
				} else {
					held[k] = m.intern(tag, val)
				}
				splits += len(m.tab.segs) - segs
				doublings += int(m.tab.depth() - depth)
			}
			m.checkTag(tag)
			if step%5000 == 0 {
				m.check()
				for _, s := range m.tab.segs {
					if s.slots[0] != 0 && s.slots[0]>>32%segSlots != 0 {
						wraps++
					}
				}
			}
		}
		m.check()
	}
	t.Logf("%d splits, %d directory doublings, %d wrapped runs seen", splits, doublings, wraps)
	if splits < 60 || doublings < 30 || wraps < 20 {
		t.Errorf("the walks made %d splits, %d directory doublings and saw %d wrapped runs", splits, doublings, wraps)
	}
}

// TestWrapDeletes builds one probe run across the end of a segment and
// deletes from its front, so the backward shifts carry words from slot 0 and
// up back over the wrap.
func TestWrapDeletes(t *testing.T) {
	m := newModel(t)
	const n = 24 // homes in the last 8 of 512 slots: at least 16 wrap
	for i := uint32(0); i < n; i++ {
		m.put(0x1ff-i%8, i+1)
	}
	s := m.tab.segs[0]
	if s.slots[0x1ff] == 0 || s.slots[0] == 0 || s.slots[15] == 0 {
		t.Fatal("the probe run does not wrap the end of the segment")
	}
	m.check()
	for i := uint32(0); i < n; i++ {
		m.del(0x1ff-i%8, i+1)
		m.check()
	}
	if s.slots[0] != 0 {
		t.Fatal("slot 0 still occupied after every word was deleted")
	}
}

// TestUnsplittablePanics: words whose tags agree in every bit a split could
// use fill their segment, and the next one panics after one split that moves
// them all to one half, instead of splitting again, and deepening the
// directory, for nothing. Tags that first differ in bit 20 split as deep as
// that takes, twelve levels, and no deeper.
func TestUnsplittablePanics(t *testing.T) {
	put := func(tab *Table, tags []uint32) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = r.(string)
			}
		}()
		for i, tag := range tags {
			tab.Put(tag, uint32(i+1))
		}
		return ""
	}
	// A segment holds 448 words and splits by tag bits 31 down to 9.
	same := make([]uint32, maxLoad+1) // one tag: no split can tell them apart
	homes := make([]uint32, maxLoad+1)
	deep := make([]uint32, maxLoad+1)
	for i := range same {
		same[i] = 0xdeadbeef
		homes[i] = 0xdeadbe00 | uint32(i) // the top 23 bits agree
		deep[i] = 0xdea00000 | uint32(i&1)<<20 | uint32(i>>1)
	}
	for _, c := range []struct {
		name  string
		tags  []uint32
		panic bool
		depth uint8
	}{
		{"one tag", same, true, 1},
		{"one 23-bit prefix", homes, true, 1},
		{"prefixes differing in bit 20", deep, false, 12},
	} {
		tab := New()
		msg := put(&tab, c.tags)
		if c.panic != (msg != "") || c.panic && !strings.Contains(msg, "split") {
			t.Errorf("%s: panic %q", c.name, msg)
		}
		if d := tab.depth(); d != c.depth {
			t.Errorf("%s: directory depth %d, want %d", c.name, d, c.depth)
		}
	}
}

// TestDrainKeepsSegments: a drained table refilled with the same words
// allocates nothing — its segments and directory stay, split as they were.
func TestDrainKeepsSegments(t *testing.T) {
	tab := New()
	rng := rand.New(rand.NewSource(1))
	tags := make([]uint32, 20000)
	for i := range tags {
		tags[i] = rng.Uint32()
	}
	fill := func() {
		for i, tag := range tags {
			tab.Put(tag, uint32(i+1))
		}
	}
	fill()
	segs, dir := tab.Segments()
	if a := testing.AllocsPerRun(3, func() { tab.Drain(); fill() }); a != 0 {
		t.Errorf("a drained table refilled allocates %v times", a)
	}
	if s, d := tab.Segments(); s != segs || d != dir {
		t.Errorf("refilled: %d segments under a %d-entry directory, first fill %d under %d", s, d, segs, dir)
	}
}

// TestSlotsHoldNoPointers: a slot is one pointer-free word, so the collector
// never scans a segment and a slot write trips no write barrier.
func TestSlotsHoldNoPointers(t *testing.T) {
	var slots *[segSlots]uint64 = segment{}.slots // the declared type is the check
	if got := unsafe.Sizeof(*slots); got != 4096 {
		t.Errorf("a segment's slots take %d bytes, want 4 KiB", got)
	}
}
