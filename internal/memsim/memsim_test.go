package memsim

import (
	"testing"
	"testing/quick"
)

func TestArenaAllocationsDisjoint(t *testing.T) {
	a := NewArena()
	x := a.Alloc(32, 8)
	y := a.Alloc(32, 8)
	if x == 0 || y == 0 {
		t.Fatal("arena must not hand out address 0")
	}
	if y < x+32 {
		t.Fatalf("allocations overlap: %x and %x", x, y)
	}
}

func TestArenaAlignment(t *testing.T) {
	a := NewArena()
	a.Alloc(3, 8)
	x := a.Alloc(8, 64)
	if x%64 != 0 {
		t.Fatalf("alloc not 64-aligned: %x", x)
	}
}

func TestArenaPanics(t *testing.T) {
	a := NewArena()
	mustPanic(t, func() { a.Alloc(0, 8) })
	mustPanic(t, func() { a.Alloc(8, 3) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestRecorderPerPacket(t *testing.T) {
	r := NewRecorder(nil)
	r.BeginPacket()
	r.Access(0x1000)
	r.Access(0x2000)
	r.EndPacket()
	r.BeginPacket()
	r.Access(0x3000)
	r.EndPacket()
	recs := r.Records()
	if len(recs) != 2 || recs[0].Accesses != 2 || recs[1].Accesses != 1 {
		t.Fatalf("records = %+v", recs)
	}
	acc, miss := r.Totals()
	if acc != 3 || miss != 0 {
		t.Fatalf("totals = %d/%d", acc, miss)
	}
}

func TestRecorderOutsideCheckpoint(t *testing.T) {
	r := NewRecorder(nil)
	r.Access(0x1000) // table setup, no packet open
	r.BeginPacket()
	r.EndPacket()
	acc, _ := r.Totals()
	if acc != 1 {
		t.Fatalf("total = %d", acc)
	}
	if len(r.Records()) != 1 || r.Records()[0].Accesses != 0 {
		t.Fatalf("records = %+v", r.Records())
	}
}

func TestRecorderCheckpointMisuse(t *testing.T) {
	r := NewRecorder(nil)
	r.BeginPacket()
	mustPanic(t, func() { r.BeginPacket() })
	r2 := NewRecorder(nil)
	mustPanic(t, func() { r2.EndPacket() })
}

func TestRecorderWithCacheCountsMisses(t *testing.T) {
	c := MustCache(CacheConfig{TotalBytes: 1024, BlockBytes: 32, Ways: 2})
	r := NewRecorder(c)
	r.BeginPacket()
	r.Access(0x10000) // cold miss
	r.Access(0x10000) // hit
	r.EndPacket()
	recs := r.Records()
	if recs[0].Accesses != 2 || recs[0].Misses != 1 {
		t.Fatalf("record = %+v", recs[0])
	}
	if mr := recs[0].MissRate(); mr != 0.5 {
		t.Fatalf("miss rate = %v", mr)
	}
}

func TestMissRateZeroAccesses(t *testing.T) {
	if (PacketRecord{}).MissRate() != 0 {
		t.Fatal("zero-access miss rate must be 0")
	}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := MustCache(DefaultCacheConfig())
	if c.Access(0x5000) {
		t.Fatal("first access must miss")
	}
	if !c.Access(0x5000) {
		t.Fatal("second access must hit")
	}
	if !c.Access(0x5001) {
		t.Fatal("same block must hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 ways, 2 sets of 32B blocks: addresses mapping to set 0 are
	// multiples of 64.
	c := MustCache(CacheConfig{TotalBytes: 128, BlockBytes: 32, Ways: 2})
	c.Access(0)   // set 0, block A
	c.Access(64)  // set 0, block B
	c.Access(0)   // touch A (B becomes LRU)
	c.Access(128) // set 0, block C evicts B
	if !c.Access(0) {
		t.Fatal("A must still be resident")
	}
	if c.Access(64) {
		t.Fatal("B must have been evicted")
	}
}

func TestCacheConfigValidation(t *testing.T) {
	bad := []CacheConfig{
		{TotalBytes: 100, BlockBytes: 32, Ways: 2},  // capacity not multiple
		{TotalBytes: 1024, BlockBytes: 33, Ways: 2}, // block not pow2
		{TotalBytes: 1024, BlockBytes: 32, Ways: 0}, // no ways
		{TotalBytes: 96, BlockBytes: 32, Ways: 2},   // 3 lines not /2
	}
	for i, cfg := range bad {
		if _, err := NewCache(cfg); err == nil {
			t.Fatalf("config %d must be rejected: %+v", i, cfg)
		}
	}
}

// Property (LRU inclusion): for the same access stream, a cache with more
// ways at equal set count never has more misses.
func TestQuickLRUInclusion(t *testing.T) {
	f := func(raw []uint16) bool {
		c2 := MustCache(CacheConfig{TotalBytes: 2048, BlockBytes: 32, Ways: 2})
		c4 := MustCache(CacheConfig{TotalBytes: 4096, BlockBytes: 32, Ways: 4})
		m2, m4 := 0, 0
		for _, v := range raw {
			addr := uint64(v) << 3
			if !c2.Access(addr) {
				m2++
			}
			if !c4.Access(addr) {
				m4++
			}
		}
		return m4 <= m2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStackDistProfile(t *testing.T) {
	s := newStackDist(32)
	s.Access(0)  // cold
	s.Access(32) // cold
	s.Access(0)  // distance 1
	s.Access(0)  // distance 0
	if s.Cold != 2 {
		t.Fatalf("cold = %d", s.Cold)
	}
	if s.Counts[1] != 1 || s.Counts[0] != 1 {
		t.Fatalf("counts = %v", s.Counts)
	}
	if s.Total() != 4 {
		t.Fatalf("total = %d", s.Total())
	}
}

func TestStackDistHitRate(t *testing.T) {
	s := newStackDist(32)
	for i := 0; i < 10; i++ {
		s.Access(0)
		s.Access(32)
	}
	// With capacity >= 2 blocks everything after the cold start hits.
	hr := s.hitRateAt(2)
	if hr < 0.8 {
		t.Fatalf("hit rate = %v", hr)
	}
	if s.hitRateAt(1) >= hr {
		t.Fatal("smaller capacity must not hit more")
	}
	empty := newStackDist(32)
	if empty.hitRateAt(4) != 0 {
		t.Fatal("empty profile hit rate must be 0")
	}
}

// Property: stack-distance predicted hit rate is monotone in capacity.
func TestQuickStackDistMonotone(t *testing.T) {
	f := func(raw []uint8) bool {
		s := newStackDist(32)
		for _, v := range raw {
			s.Access(uint64(v) << 5)
		}
		prev := -1.0
		for blocks := 1; blocks <= 64; blocks *= 2 {
			hr := s.hitRateAt(blocks)
			if hr < prev-1e-12 {
				return false
			}
			prev = hr
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
