package flow

import (
	"math"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// gapMax is the largest gap the word holds; the smallest is -gapMax-1.
const gapMax = time.Duration(1)<<57 - 1

// TestRecordSizes pins the sizes the table is built around: one word per
// packet, one pointer-free word per slot, a 72-byte Flow, so that a
// flowSlabLen slab of them and its malloc header come from the 19 072-byte
// size class, and a one-word backing under a fresh flow (a one-packet probe,
// a scan's commonest flow, holds 8 bytes of packet words).
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(PacketInfo(0)); got != 8 {
		t.Errorf("PacketInfo is %d bytes, want 8", got)
	}
	var slots []uint64 = flowTab{}.slots // the declared type is the check: no pointers
	if got := unsafe.Sizeof(slots[0]); got != 8 {
		t.Errorf("a flow-table slot is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(Flow{}); got > 72 {
		t.Errorf("Flow is %d bytes, want at most 72", got)
	}
	if got := cap(NewTable(nil).newFlow().Packets); got != 1 {
		t.Errorf("a fresh flow's backing holds %d packets, want 1", got)
	}
}

// TestPacketInfoRoundTrip packs every class combination with every edge gap
// and reads each field back, then checks AppendVector over the packed words
// against Weights.F of the classes that went in.
func TestPacketInfoRoundTrip(t *testing.T) {
	type fields struct {
		gap             time.Duration
		fromLo          bool
		flag, dep, size int
	}
	gaps := []time.Duration{0, 1, -1, time.Microsecond, time.Hour, gapMax, -gapMax}
	var all []fields
	f := &Flow{}
	for flag := FlagClassSYN; flag <= FlagClassTeardown; flag++ {
		for dep := DepDependent; dep <= DepNotDependent; dep++ {
			for size := SizeClassEmpty; size <= SizeClassLarge; size++ {
				for _, fromLo := range []bool{false, true} {
					for _, gap := range gaps {
						if _, fits := gapBetween(0, gap); !fits {
							t.Fatalf("gapBetween says %d ns does not fit", gap)
						}
						p := packInfo(gap, fromLo, flag, dep, size)
						if p.gap() != gap || p.FromLo() != fromLo || p.FlagClass() != flag || p.depClass() != dep || p.SizeClass() != size {
							t.Fatalf("packed (gap %d, fromLo %v, classes %d/%d/%d), read back (gap %d, fromLo %v, classes %d/%d/%d)",
								gap, fromLo, flag, dep, size, p.gap(), p.FromLo(), p.FlagClass(), p.depClass(), p.SizeClass())
						}
						all = append(all, fields{gap, fromLo, flag, dep, size})
						f.Packets = append(f.Packets, p)
					}
				}
			}
		}
	}
	if want := 4 * 2 * 3 * 2 * len(gaps); len(all) != want {
		t.Fatalf("covered %d combinations, want %d", len(all), want)
	}
	for _, w := range []Weights{DefaultWeights, {Flag: 1, Dep: 1, Size: 1}, {Flag: 50, Dep: 20, Size: 5}} {
		if w.Flag <= 0 || w.Dep <= 0 || w.Size <= 0 || w.MaxF() > 255 {
			t.Fatalf("weights %v would not pass Options.Validate", w)
		}
		v := f.AppendVector(nil, w)
		if len(v) != len(all) {
			t.Fatalf("weights %v: vector has %d values for %d packets", w, len(v), len(all))
		}
		for i, a := range all {
			if int(v[i]) != w.F(a.flag, a.dep, a.size) {
				t.Fatalf("weights %v: packet %d (classes %d/%d/%d) has f = %d, want %d", w, i, a.flag, a.dep, a.size, v[i], w.F(a.flag, a.dep, a.size))
			}
		}
		if !slices.Equal(f.Vector(w), v) {
			t.Fatalf("weights %v: Vector and AppendVector disagree", w)
		}
	}
}

// addOneKey runs the timestamps through a table as packets of one 5-tuple
// (dataPacket's conversation 1) and returns the emitted flows in emission
// order, having checked that together they hold every packet in input order
// and that each flow's first timestamp and inter-packet times equal the plain
// subtraction of its own packets' timestamps.
func addOneKey(t *testing.T, collect bool, stamps []time.Duration) []*Flow {
	t.Helper()
	var flows []*Flow
	var tbl *Table
	if collect {
		tbl = NewTable(nil)
	} else {
		tbl = NewTable(func(f *Flow) { flows = append(flows, f) })
	}
	for _, ts := range stamps {
		p := dataPacket(1, ts)
		tbl.Add(&p)
	}
	tbl.Flush()
	if collect {
		flows = tbl.Flows()
	}
	rest := stamps
	for i, f := range flows {
		if f.Len() == 0 || f.Len() > len(rest) {
			t.Fatalf("flow %d has %d packets, %d left to account for", i, f.Len(), len(rest))
		}
		own := rest[:f.Len()]
		rest = rest[f.Len():]
		var want []time.Duration
		for j := 1; j < len(own); j++ {
			want = append(want, own[j]-own[j-1])
		}
		if got := f.InterPacketTimes(); !slices.Equal(got, want) {
			t.Errorf("flow %d: inter-packet times %v, want %v", i, got, want)
		}
		if f.FirstTimestamp() != own[0] {
			t.Errorf("flow %d: first timestamp %v, want %v", i, f.FirstTimestamp(), own[0])
		}
		if f.Closed {
			t.Errorf("flow %d is Closed without a FIN or RST", i)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d packets are in no emitted flow", len(rest))
	}
	return flows
}

// TestAddOversizeGap: a gap the 58-bit field cannot hold is a flow boundary,
// never a truncated or wrapped value. pcap and TSH carry absolute seconds in
// a uint32, so a crafted capture reaches 2^32-1 s between two packets of one
// 5-tuple; collect mode takes unsorted input, so the same jump backwards; and
// the API takes any time.Duration, so a subtraction that wraps int64.
func TestAddOversizeGap(t *testing.T) {
	const far = (1<<32 - 1) * time.Second
	for _, tc := range []struct {
		name      string
		collect   bool
		stamps    []time.Duration
		wantFlows []int // packets per emitted flow
	}{
		{"forward", false, []time.Duration{0, time.Second, far, far + time.Millisecond}, []int{2, 2}},
		{"forward, collected", true, []time.Duration{0, far}, []int{1, 1}},
		{"backward, collected", true, []time.Duration{far, far + time.Millisecond, 0, 5 * time.Millisecond}, []int{2, 2}},
		{"wraps int64", true, []time.Duration{math.MaxInt64, math.MinInt64, math.MinInt64 + 1}, []int{1, 2}},
		// The field's exact edges: one nanosecond inside is one flow with the
		// gap exact, one nanosecond outside is two flows.
		{"largest gap that fits", false, []time.Duration{0, gapMax}, []int{2}},
		{"smallest gap that does not", false, []time.Duration{0, gapMax + 1}, []int{1, 1}},
		{"most negative gap that fits", true, []time.Duration{0, -gapMax - 1}, []int{2}},
		{"first negative gap that does not", true, []time.Duration{0, -gapMax - 2}, []int{1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flows := addOneKey(t, tc.collect, tc.stamps)
			var got []int
			for _, f := range flows {
				got = append(got, f.Len())
			}
			if !slices.Equal(got, tc.wantFlows) {
				t.Fatalf("flows of %v packets, want %v", got, tc.wantFlows)
			}
		})
	}
}

// TestNegativeGaps: collect mode accepts unsorted input, and the gaps it
// reports are the signed differences, exactly as when flows kept timestamps.
func TestNegativeGaps(t *testing.T) {
	ms := time.Millisecond
	flows := addOneKey(t, true, []time.Duration{10 * ms, 5 * ms, 7 * ms})
	if len(flows) != 1 {
		t.Fatalf("%d flows, want 1", len(flows))
	}
	if got, want := flows[0].InterPacketTimes(), []time.Duration{-5 * ms, 2 * ms}; !slices.Equal(got, want) {
		t.Fatalf("gaps %v, want %v", got, want)
	}
}
