package flow

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"flowzip/internal/flowgen"
	"flowzip/internal/pkt"
)

// tabKey is the i-th key of the pool the table tests draw from.
func tabKey(i int) pkt.FlowKey {
	return pkt.FlowKey{LoIP: pkt.IPv4(0x0a000000 + i), HiIP: pkt.Addr(20, 0, 0, 1), LoPort: uint16(1024 + i%50000), HiPort: 80, Proto: pkt.ProtoTCP}
}

// tabKeys searches the pool for the keys that stress what a slot leaves out:
// pairs whose probe hashes agree in all 32 tag bits (only the full key
// comparison tells them apart) and keys whose home is one of the last eight
// slots of a 4 096-, 8 192- or 16 384-slot array (their probe runs wrap).
// The hashes are seed 0's, the seed of newTabModel's table.
func tabKeys(t *testing.T) (pairs [][2]pkt.FlowKey, tail []pkt.FlowKey) {
	const pool = 400000 // about pool²/2³³ = 18 tag collisions
	byTag := make(map[uint32]int32, pool)
	var seed0 flowTab
	for i := 0; i < pool; i++ {
		tag := uint32(seed0.probeHash(tabKey(i)))
		if j, ok := byTag[tag]; ok {
			pairs = append(pairs, [2]pkt.FlowKey{tabKey(int(j)), tabKey(i)})
		}
		byTag[tag] = int32(i)
		if tag&0x3fff >= 0x3ff8 {
			tail = append(tail, tabKey(i))
		}
	}
	if len(pairs) < 3 || len(tail) < 64 {
		t.Fatalf("pool yields %d tag-colliding pairs and %d tail keys", len(pairs), len(tail))
	}
	return pairs, tail
}

// tabModel holds a flowTab against the map it must behave as. Deleted flows
// are reused for later inserts, as Table does through its free list.
type tabModel struct {
	t    *testing.T
	tab  flowTab
	ref  map[pkt.FlowKey]*Flow
	free []*Flow
}

// newTabModel's table has seed 0, so the keys tabKeys finds collide in it.
func newTabModel(t *testing.T) *tabModel {
	m := &tabModel{t: t, tab: newFlowTab(), ref: map[pkt.FlowKey]*Flow{}}
	m.tab.seed = 0
	return m
}

func (m *tabModel) put(k pkt.FlowKey) {
	var fl *Flow
	if n := len(m.free); n > 0 {
		fl, m.free = m.free[n-1], m.free[:n-1]
	} else {
		fl = m.tab.carve()
	}
	fl.Key = k
	m.tab.put(m.tab.probeHash(k), fl)
	m.ref[k] = fl
}

func (m *tabModel) del(k pkt.FlowKey) {
	fl := m.ref[k]
	m.tab.del(m.tab.probeHash(k), fl)
	delete(m.ref, k)
	m.free = append(m.free, fl)
}

func (m *tabModel) drain() {
	m.tab.drain()
	for _, fl := range m.ref {
		m.free = append(m.free, fl)
	}
	clear(m.ref)
}

// checkKey compares one lookup, present or absent, with the map's.
func (m *tabModel) checkKey(k pkt.FlowKey) {
	m.t.Helper()
	if got, want := m.tab.get(m.tab.probeHash(k), k), m.ref[k]; got != want {
		m.t.Fatalf("get(%v) = %p, the map holds %p", k, got, want)
	}
}

// check compares everything: the count, every stored key, and that the slot
// array holds exactly one word per entry.
func (m *tabModel) check() {
	m.t.Helper()
	if m.tab.n != len(m.ref) {
		m.t.Fatalf("table counts %d entries, the map %d", m.tab.n, len(m.ref))
	}
	for k := range m.ref {
		m.checkKey(k)
	}
	used := 0
	for _, s := range m.tab.slots {
		if s != 0 {
			used++
		}
	}
	if used != len(m.ref) {
		m.t.Fatalf("%d slots in use for %d entries", used, len(m.ref))
	}
}

// TestFlowTabTagCollisions: two keys with the same 32-bit tag share a home
// slot and match each other's tag on every probe; each must still find its own
// flow, and deleting one must leave the other reachable.
func TestFlowTabTagCollisions(t *testing.T) {
	pairs, _ := tabKeys(t)
	m := newTabModel(t)
	for _, p := range pairs {
		m.put(p[0])
		m.put(p[1])
	}
	m.check()
	for i, p := range pairs {
		m.del(p[i%2])
		m.checkKey(p[0])
		m.checkKey(p[1])
	}
	m.check()
	// A flow that is not in the table — here one whose twin's slot carries
	// the same tag from the same home — deletes nothing.
	for _, gone := range m.free {
		m.tab.del(m.tab.probeHash(gone.Key), gone)
	}
	m.check()
}

// TestFlowTabWrap builds one probe run across the end of the slot array and
// deletes from its front, so the backward shifts carry entries from slot 0
// and up back over the wrap.
func TestFlowTabWrap(t *testing.T) {
	_, tail := tabKeys(t)
	m := newTabModel(t)
	keys := tail[:24] // homes in the last 8 of 4 096 slots: at least 16 wrap
	for _, k := range keys {
		m.put(k)
	}
	if m.tab.slots[m.tab.mask] == 0 || m.tab.slots[0] == 0 || m.tab.slots[15] == 0 {
		t.Fatal("the probe run does not wrap the end of the slot array")
	}
	m.check()
	for _, k := range keys {
		m.del(k)
		m.check()
		m.checkKey(k)
	}
	if m.tab.slots[0] != 0 {
		t.Fatal("slot 0 still occupied after every key was deleted")
	}
}

// TestFlowTabMatchesMap drives random interleavings of put, get, del and
// drain against a map, over a key universe salted with the tag-colliding
// pairs and the wrapping keys, in phases that lean towards inserts or
// towards deletes so the table crosses its growth thresholds in both.
func TestFlowTabMatchesMap(t *testing.T) {
	pairs, tail := tabKeys(t)
	var hot []pkt.FlowKey
	for _, p := range pairs {
		hot = append(hot, p[0], p[1])
	}
	hot = append(hot, tail...)
	const cold = 12000 // enough keys to pass 7/8 of 4 096 and of 8 192 slots
	// The share of inserts among the mutations sets where the entry count
	// settles: at 0.45 of the universe it drifts past the first threshold with
	// more deletes than inserts landing on the keys already there, at 0.8 it
	// passes the second. Each seed starts the rotation at a different phase.
	phases := []float64{0.45, 0.8, 0.2}
	const phaseSteps = 20000
	grown, grownDeleting := 0, 0
	for seed := 0; seed < len(phases); seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		m := newTabModel(t)
		for step := 0; step < 5*phaseSteps; step++ {
			putShare := phases[(step/phaseSteps+seed)%len(phases)]
			if step == 7*phaseSteps/2 {
				m.drain()
				m.check()
			}
			k := tabKey(1000000 + rng.Intn(cold)) // outside the searched pool
			if rng.Intn(5) < 2 {
				k = hot[rng.Intn(len(hot))]
			}
			m.checkKey(k)
			_, present := m.ref[k]
			switch put := rng.Float64() < putShare; {
			case present && !put:
				m.del(k)
			case !present && put:
				mask := m.tab.mask
				m.put(k)
				if m.tab.mask != mask {
					grown++
					if putShare < 0.5 {
						grownDeleting++
					}
				}
			}
			m.checkKey(k)
			if m.tab.n != len(m.ref) {
				t.Fatalf("seed %d step %d: table counts %d entries, the map %d", seed, step, m.tab.n, len(m.ref))
			}
			if step%2000 == 0 {
				m.check()
			}
		}
		m.check()
		m.drain()
		m.check()
	}
	if grown < 4 || grownDeleting == 0 {
		t.Errorf("the walks grew the table %d times, %d of them in a delete-heavy phase", grown, grownDeleting)
	}
}

// probeSteps is what looking up every entry of tab costs: the slots each
// lookup walks, its home slot through the entry's own.
func probeSteps(tab *flowTab) int {
	steps := 0
	for j, s := range tab.slots {
		if s != 0 {
			steps += int((uint64(j)-s>>32)&tab.mask) + 1
		}
	}
	return steps
}

// TestFlowTabSeededProbeRuns: keys chosen to share a home slot under one seed
// (here seed 0) are a complexity attack on that table — n of them cost about
// n²/2 probe steps — and cost about one step each in a table with its own
// random seed. So do keys whose address and port words XOR to the same value,
// which no seed mixed in after that XOR could tell apart.
func TestFlowTabSeededProbeRuns(t *testing.T) {
	const n = 256
	var seed0 flowTab
	var sharedHome, equalWord []pkt.FlowKey
	for i := 0; len(sharedHome) < n; i++ {
		if seed0.probeHash(tabKey(i))&(flowTabMinSlots-1) == 0 {
			sharedHome = append(sharedHome, tabKey(i))
		}
	}
	// HiIP bits 8-15 and the HiPort low byte land on the same bits of the
	// word the ports are XORed into; flip both by the same i.
	for i := 0; i < n; i++ {
		k := tabKey(0)
		k.HiIP ^= pkt.IPv4(i << 8)
		k.HiPort ^= uint16(i)
		equalWord = append(equalWord, k)
	}
	for _, c := range []struct {
		name string
		keys []pkt.FlowKey
		zero bool
	}{
		{"shared home, seed 0", sharedHome, true},
		{"shared home, random seed", sharedHome, false},
		{"equal words, random seed", equalWord, false},
	} {
		m := newTabModel(t)
		if !c.zero {
			m.tab.seed = newFlowTab().seed
		}
		for _, k := range c.keys {
			m.put(k)
		}
		m.check()
		steps := probeSteps(&m.tab)
		t.Logf("%s: %d probe steps for %d keys", c.name, steps, n)
		if c.zero && steps < n*n/2 {
			t.Fatalf("%s: %d probe steps, the keys do not collide there (want at least %d)", c.name, steps, n*n/2)
		}
		if !c.zero && steps > 2*n {
			t.Errorf("%s: %d probe steps for %d keys, budget %d", c.name, steps, n, 2*n)
		}
	}
}

// TestTableSeedInvisible: the probe seed changes where flows sit in the slot
// array and nothing a consumer sees — two tables with different seeds emit
// the same flows in the same order.
func TestTableSeedInvisible(t *testing.T) {
	cfg := flowgen.DefaultWebConfig()
	cfg.Seed, cfg.Flows, cfg.Duration = 9, 3000, 5*time.Second
	packets := append(flowgen.Web(cfg).Packets, reuseTrace()...)
	var runs [2][]*Flow
	for i := range runs {
		tbl := NewTable(nil)
		tbl.active.seed = uint64(i) * 0x9e3779b97f4a7c15
		for j := range packets {
			tbl.Add(&packets[j])
		}
		tbl.Flush()
		runs[i] = tbl.Flows()
	}
	if len(runs[0]) != len(runs[1]) {
		t.Fatalf("%d flows under one seed, %d under the other", len(runs[0]), len(runs[1]))
	}
	for i, a := range runs[0] {
		b := runs[1][i]
		if a.Key != b.Key || a.FirstTimestamp() != b.FirstTimestamp() || a.Closed != b.Closed || !slices.Equal(wordsOf(a), wordsOf(b)) {
			t.Fatalf("flow %d differs between the seeds: %v at %v against %v at %v", i, a.Key, a.FirstTimestamp(), b.Key, b.FirstTimestamp())
		}
	}
}
