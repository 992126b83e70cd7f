package radix

import (
	"testing"
	"testing/quick"

	"flowzip/internal/memsim"
	"flowzip/internal/stats"
)

func TestInsertLookupBasic(t *testing.T) {
	tr := New()
	if err := tr.Insert(0x0A000000, 8, 1); err != nil { // 10/8
		t.Fatal(err)
	}
	if err := tr.Insert(0x0A010000, 16, 2); err != nil { // 10.1/16
		t.Fatal(err)
	}
	hop, ok := tr.Lookup(0x0A010203) // 10.1.2.3 → /16
	if !ok || hop != 2 {
		t.Fatalf("lookup = %d,%v, want 2,true", hop, ok)
	}
	hop, ok = tr.Lookup(0x0A020304) // 10.2.3.4 → /8
	if !ok || hop != 1 {
		t.Fatalf("lookup = %d,%v, want 1,true", hop, ok)
	}
	if _, ok := tr.Lookup(0x0B000000); ok {
		t.Fatal("11.0.0.0 must not match")
	}
	if tr.Len() != 2 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestLongestPrefixWins(t *testing.T) {
	tr := New()
	check := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	check(tr.Insert(0xC0A80000, 16, 10)) // 192.168/16
	check(tr.Insert(0xC0A80100, 24, 20)) // 192.168.1/24
	check(tr.Insert(0xC0A80180, 25, 30)) // 192.168.1.128/25
	cases := []struct {
		addr uint32
		want uint32
	}{
		{0xC0A80001, 10}, // 192.168.0.1
		{0xC0A80101, 20}, // 192.168.1.1
		{0xC0A80181, 30}, // 192.168.1.129
	}
	for _, c := range cases {
		hop, ok := tr.Lookup(c.addr)
		if !ok || hop != c.want {
			t.Fatalf("lookup(%08x) = %d,%v want %d", c.addr, hop, ok, c.want)
		}
	}
}

func TestDefaultRoute(t *testing.T) {
	tr := New()
	if err := tr.Insert(0, 0, 99); err != nil {
		t.Fatal(err)
	}
	hop, ok := tr.Lookup(0xDEADBEEF)
	if !ok || hop != 99 {
		t.Fatalf("default route lookup = %d,%v", hop, ok)
	}
}

func TestHostRoute(t *testing.T) {
	tr := New()
	if err := tr.Insert(0x01020304, 32, 7); err != nil {
		t.Fatal(err)
	}
	if hop, ok := tr.Lookup(0x01020304); !ok || hop != 7 {
		t.Fatalf("host route = %d,%v", hop, ok)
	}
	if _, ok := tr.Lookup(0x01020305); ok {
		t.Fatal("adjacent host must not match")
	}
}

func TestInsertReplace(t *testing.T) {
	tr := New()
	if err := tr.Insert(0x0A000000, 8, 1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(0x0A000000, 8, 5); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("replace must not grow len: %d", tr.Len())
	}
	if hop, _ := tr.Lookup(0x0A000001); hop != 5 {
		t.Fatalf("hop = %d, want 5", hop)
	}
}

func TestInsertBadPlen(t *testing.T) {
	tr := New()
	if err := tr.Insert(0, -1, 1); err == nil {
		t.Fatal("plen -1 must error")
	}
	if err := tr.Insert(0, 33, 1); err == nil {
		t.Fatal("plen 33 must error")
	}
}

func TestWalkEnumeratesAll(t *testing.T) {
	rng := stats.NewRNG(1)
	routes := GenerateTable(rng, 500)
	tr, err := BuildTable(routes, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]uint32{}
	tr.Walk(func(prefix uint32, plen int, hop uint32) {
		got[uint64(prefix)<<6|uint64(plen)] = hop
	})
	if len(got) != len(routes) {
		t.Fatalf("walk found %d entries, want %d", len(got), len(routes))
	}
	for _, r := range routes {
		if got[uint64(r.Prefix)<<6|uint64(r.Plen)] != r.NextHop {
			t.Fatalf("route %08x/%d missing or wrong", r.Prefix, r.Plen)
		}
	}
}

// naiveLPM is the oracle: scan all routes for the longest match.
func naiveLPM(routes []Route, addr uint32) (uint32, bool) {
	best := -1
	var hop uint32
	for _, r := range routes {
		mask := uint32(0)
		if r.Plen > 0 {
			mask = ^uint32(0) << uint(32-r.Plen)
		}
		if addr&mask == r.Prefix&mask && r.Plen > best {
			best = r.Plen
			hop = r.NextHop
		}
	}
	return hop, best >= 0
}

func TestLookupAgainstOracle(t *testing.T) {
	rng := stats.NewRNG(2)
	routes := GenerateTable(rng, 300)
	tr, err := BuildTable(routes, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		addr := rng.Uint32()
		wantHop, wantOK := naiveLPM(routes, addr)
		gotHop, gotOK := tr.Lookup(addr)
		if wantOK != gotOK || (wantOK && wantHop != gotHop) {
			t.Fatalf("lookup(%08x) = %d,%v oracle %d,%v", addr, gotHop, gotOK, wantHop, wantOK)
		}
	}
	// Also probe addresses that share prefixes with installed routes.
	for i := 0; i < 2000; i++ {
		r := routes[rng.Intn(len(routes))]
		addr := r.Prefix | (rng.Uint32() & (1<<uint(32-r.Plen) - 1))
		wantHop, wantOK := naiveLPM(routes, addr)
		gotHop, gotOK := tr.Lookup(addr)
		if wantOK != gotOK || (wantOK && wantHop != gotHop) {
			t.Fatalf("probe(%08x) = %d,%v oracle %d,%v", addr, gotHop, gotOK, wantHop, wantOK)
		}
	}
}

// Property: random insert set always agrees with the oracle.
func TestQuickOracleAgreement(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		routes := GenerateTable(rng, 50)
		tr, err := BuildTable(routes, nil)
		if err != nil {
			return false
		}
		for i := 0; i < 200; i++ {
			addr := rng.Uint32()
			wantHop, wantOK := naiveLPM(routes, addr)
			gotHop, gotOK := tr.Lookup(addr)
			if wantOK != gotOK || (wantOK && wantHop != gotHop) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestInstrumentationCountsAccesses(t *testing.T) {
	sink := &memsim.CountingSink{}
	tr := newInstrumented(sink)
	if err := tr.Insert(0xC0A80100, 24, 1); err != nil {
		t.Fatal(err)
	}
	insertAccesses := sink.N
	if insertAccesses == 0 {
		t.Fatal("insert must record accesses")
	}
	sink.N = 0
	tr.Lookup(0xC0A80101)
	// Lookup of a /24 visits 25 nodes; each visit is 2 touches except the
	// last (entry check only, nil child ends it) — at least 25 accesses.
	if sink.N < 25 {
		t.Fatalf("lookup accesses = %d, want >= 25", sink.N)
	}
}

func TestLookupDepthMatchesAccesses(t *testing.T) {
	sink := &memsim.CountingSink{}
	rng := stats.NewRNG(3)
	routes := GenerateTable(rng, 1000)
	tr, err := BuildTable(routes, sink)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		sink.N = 0
		_, _, depth := tr.LookupDepth(rng.Uint32())
		if depth < 1 || depth > 33 {
			t.Fatalf("depth = %d", depth)
		}
		// Each visited node costs 1 or 2 touches.
		if sink.N < int64(depth) || sink.N > int64(2*depth) {
			t.Fatalf("accesses %d vs depth %d", sink.N, depth)
		}
	}
}

func TestBuildTableDoesNotRecordBuild(t *testing.T) {
	sink := &memsim.CountingSink{}
	rng := stats.NewRNG(4)
	if _, err := BuildTable(GenerateTable(rng, 200), sink); err != nil {
		t.Fatal(err)
	}
	if sink.N != 0 {
		t.Fatalf("build phase recorded %d accesses", sink.N)
	}
}

func TestGenerateTableProperties(t *testing.T) {
	rng := stats.NewRNG(5)
	routes := GenerateTable(rng, 2000)
	if len(routes) != 2000 {
		t.Fatalf("generated %d routes", len(routes))
	}
	seen := map[uint64]bool{}
	count24 := 0
	for _, r := range routes {
		if r.Plen < 8 || r.Plen > 32 {
			t.Fatalf("plen %d out of range", r.Plen)
		}
		if r.Plen < 32 && r.Prefix&(1<<uint(32-r.Plen)-1) != 0 {
			t.Fatalf("host bits set in %08x/%d", r.Prefix, r.Plen)
		}
		key := uint64(r.Prefix)<<6 | uint64(r.Plen)
		if seen[key] {
			t.Fatal("duplicate route")
		}
		seen[key] = true
		if r.Plen == 24 {
			count24++
		}
	}
	// /24 should dominate (realistic mix: ~55%).
	if count24 < len(routes)/3 {
		t.Fatalf("/24 count = %d, want dominant", count24)
	}
}
