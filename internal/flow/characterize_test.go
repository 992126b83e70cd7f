package flow

import (
	"testing"
	"testing/quick"

	"flowzip/internal/pkt"
)

func TestFlagClass(t *testing.T) {
	cases := []struct {
		flags pkt.TCPFlags
		want  int
	}{
		{pkt.FlagSYN, FlagClassSYN},
		{pkt.FlagSYN | pkt.FlagACK, FlagClassSYNACK},
		{pkt.FlagACK, FlagClassACK},
		{pkt.FlagACK | pkt.FlagPSH, FlagClassACK},
		{pkt.FlagFIN, FlagClassTeardown},
		{pkt.FlagFIN | pkt.FlagACK, FlagClassTeardown},
		{pkt.FlagRST, FlagClassTeardown},
		{0, FlagClassACK},
	}
	for _, tc := range cases {
		p := &pkt.Packet{Flags: tc.flags}
		if got := FlagClass(p); got != tc.want {
			t.Errorf("FlagClass(%v) = %d, want %d", tc.flags, got, tc.want)
		}
	}
}

func TestSizeClass(t *testing.T) {
	cases := []struct{ payload, want int }{
		{0, SizeClassEmpty},
		{-1, SizeClassEmpty},
		{1, SizeClassSmall},
		{500, SizeClassSmall},
		{501, SizeClassLarge},
		{1460, SizeClassLarge},
	}
	for _, tc := range cases {
		if got := SizeClass(tc.payload); got != tc.want {
			t.Errorf("SizeClass(%d) = %d, want %d", tc.payload, got, tc.want)
		}
	}
}

func TestDefaultWeightsF(t *testing.T) {
	w := DefaultWeights
	// SYN from client: f = 16*1 + 4*2 + 1*1 = 25 (first packet not dependent).
	if got := w.F(FlagClassSYN, DepNotDependent, SizeClassEmpty); got != 25 {
		t.Fatalf("f(SYN) = %d, want 25", got)
	}
	// SYN+ACK: f = 16*2 + 4*1 + 1 = 37 (dependent, empty).
	if got := w.F(FlagClassSYNACK, DepDependent, SizeClassEmpty); got != 37 {
		t.Fatalf("f(SYNACK) = %d, want 37", got)
	}
	if got := w.F(FlagClassSYN, DepDependent, SizeClassEmpty); got != 21 {
		t.Fatalf("smallest f = %d, want 21", got)
	}
	if w.MaxF() != 75 {
		t.Fatalf("MaxF = %d, want 75", w.MaxF())
	}
}

func TestDecomposeInvertsF(t *testing.T) {
	w := DefaultWeights
	for fc := FlagClassSYN; fc <= FlagClassTeardown; fc++ {
		for dc := DepDependent; dc <= DepNotDependent; dc++ {
			for sc := SizeClassEmpty; sc <= SizeClassLarge; sc++ {
				f := w.F(fc, dc, sc)
				gfc, gdc, gsc := w.Decompose(f)
				if gfc != fc || gdc != dc || gsc != sc {
					t.Fatalf("Decompose(%d) = (%d,%d,%d), want (%d,%d,%d)",
						f, gfc, gdc, gsc, fc, dc, sc)
				}
			}
		}
	}
}

func TestDecomposeClampsOutOfRange(t *testing.T) {
	w := DefaultWeights
	fc, dc, sc := w.Decompose(0)
	if fc < FlagClassSYN || dc < DepDependent || sc < SizeClassEmpty {
		t.Fatalf("clamp low failed: %d %d %d", fc, dc, sc)
	}
	fc, dc, sc = w.Decompose(1000)
	if fc > FlagClassTeardown || dc > DepNotDependent || sc > SizeClassLarge {
		t.Fatalf("clamp high failed: %d %d %d", fc, dc, sc)
	}
}

func TestDistance(t *testing.T) {
	a := Vector{25, 37, 29}
	b := Vector{25, 37, 29}
	if Distance(a, b) != 0 {
		t.Fatal("identical vectors must have distance 0")
	}
	c := Vector{26, 35, 29}
	if d := Distance(a, c); d != 3 {
		t.Fatalf("distance = %d, want 3", d)
	}
}

func TestDistancePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Distance(Vector{1}, Vector{1, 2})
}

func TestDistanceLimit(t *testing.T) {
	// Paper eq. 4: d_lim = n*50*2/100 = n.
	for _, n := range []int{2, 10, 50} {
		if got := DistanceLimit(n); got != n {
			t.Fatalf("DistanceLimit(%d) = %d, want %d", n, got, n)
		}
	}
	if got := DistanceLimitPct(10, 10); got != 50 {
		t.Fatalf("DistanceLimitPct(10,10%%) = %d, want 50", got)
	}
	if got := DistanceLimitPct(10, 0); got != 0 {
		t.Fatalf("DistanceLimitPct(10,0%%) = %d, want 0", got)
	}
}

// Property: distance is a metric on same-length vectors (symmetry, identity,
// triangle inequality).
func TestQuickDistanceMetric(t *testing.T) {
	f := func(raw1, raw2, raw3 [8]uint8) bool {
		a, b, c := Vector(raw1[:]), Vector(raw2[:]), Vector(raw3[:])
		if Distance(a, b) != Distance(b, a) {
			return false
		}
		if Distance(a, a) != 0 {
			return false
		}
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Decompose inverts F for any weights where the class ranges nest
// (w1 >= 4*w2, w2 >= 3*w3 guarantees uniqueness).
func TestQuickDecomposeRoundTrip(t *testing.T) {
	f := func(seed uint8) bool {
		w3 := 1 + int(seed%3)
		w2 := w3 * (4 + int(seed%4))
		w1 := w2 * (3 + int(seed%5))
		w := Weights{Flag: w1, Dep: w2, Size: w3}
		for fc := FlagClassSYN; fc <= FlagClassTeardown; fc++ {
			for dc := DepDependent; dc <= DepNotDependent; dc++ {
				for sc := SizeClassEmpty; sc <= SizeClassLarge; sc++ {
					gfc, gdc, gsc := w.Decompose(w.F(fc, dc, sc))
					if gfc != fc || gdc != dc || gsc != sc {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
