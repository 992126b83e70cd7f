package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// sampleOf tallies the observations xs.
func sampleOf(xs ...float64) Sample {
	m := map[float64]int64{}
	for _, x := range xs {
		m[x]++
	}
	return Tally(m)
}

func TestSummarizeBasics(t *testing.T) {
	s := Summarize(sampleOf(1, 2, 3, 4, 5))
	if s.N != 5 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("bad summary: %+v", s)
	}
	if math.Abs(s.Mean-3) > 1e-12 {
		t.Fatalf("mean = %v", s.Mean)
	}
	if math.Abs(s.P50-3) > 1e-12 {
		t.Fatalf("p50 = %v", s.P50)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatalf("empty summary N = %d", s.N)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	sorted := []float64{0, 10}
	if q := Quantile(sorted, 0.5); math.Abs(q-5) > 1e-12 {
		t.Fatalf("q(0.5) = %v, want 5", q)
	}
	if q := Quantile(sorted, 0); q != 0 {
		t.Fatalf("q(0) = %v", q)
	}
	if q := Quantile(sorted, 1); q != 10 {
		t.Fatalf("q(1) = %v", q)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram([]float64{0, 5, 10, 20})
	// Paper Figure 3 buckets: [0,5) [5,10) [10,20) [20,inf).
	for _, x := range []float64{0, 4.9, 5, 9.9, 10, 19.9, 20, 100} {
		h.Add(x, 1)
	}
	want := []int64{2, 2, 2, 2}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Fatalf("bin %d count = %d, want %d (%v)", i, c, want[i], h.Counts)
		}
	}
	if h.total != 8 {
		t.Fatalf("total = %d", h.total)
	}
	if f := h.Fraction(0); math.Abs(f-0.25) > 1e-12 {
		t.Fatalf("fraction = %v", f)
	}
}

func TestHistogramDropsBelowRange(t *testing.T) {
	h := NewHistogram([]float64{10, 20})
	h.Add(5, 1)
	if h.total != 0 || h.Counts[0] != 0 || h.Counts[1] != 0 {
		t.Fatal("value below first edge must be dropped")
	}
	h.Add(25, 1) // overflow bin
	if h.Counts[1] != 1 {
		t.Fatalf("overflow bin = %d", h.Counts[1])
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF(sampleOf(1, 2, 3, 4))
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF(sampleOf(0, 1, 2, 3, 4, 5, 6, 7, 8, 9))
	pts := c.Points(11)
	if len(pts) != 11 {
		t.Fatalf("points = %d", len(pts))
	}
	prev := -1.0
	for _, p := range pts {
		if p[1] < prev {
			t.Fatalf("CDF points not monotone: %v", pts)
		}
		prev = p[1]
	}
	if pts[len(pts)-1][1] != 1 {
		t.Fatalf("last point y = %v, want 1", pts[len(pts)-1][1])
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{Title: "demo", Headers: []string{"method", "ratio"}}
	tbl.AddRow("gzip", "0.50")
	tbl.AddRowf("proposed", 0.03)
	out := tbl.String()
	for _, want := range []string{"demo", "method", "gzip", "proposed", "0.03"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{Headers: []string{"a", "b"}}
	tbl.AddRow("x,y", "2")
	var b strings.Builder
	tbl.CSV(&b)
	out := b.String()
	if !strings.Contains(out, `"x,y"`) {
		t.Fatalf("CSV did not quote comma cell:\n%s", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Fatalf("CSV header wrong:\n%s", out)
	}
}

func TestFigureTable(t *testing.T) {
	f := &Figure{Title: "fig", XLabel: "t"}
	f.Add("s1", [][2]float64{{0, 1}, {10, 2}})
	f.Add("s2", [][2]float64{{0, 3}})
	tbl := f.Table()
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[1][2] != "-" {
		t.Fatalf("missing point should render '-': %v", tbl.Rows)
	}
}

func TestFigureASCIIDoesNotPanic(t *testing.T) {
	f := &Figure{Title: "fig", XLabel: "x", YLabel: "y"}
	f.Add("a", [][2]float64{{0, 0}, {1, 1}, {2, 4}})
	var b strings.Builder
	f.RenderASCII(&b, 40, 10)
	if !strings.Contains(b.String(), "fig") {
		t.Fatal("ascii render missing title")
	}
	empty := &Figure{Title: "none"}
	empty.RenderASCII(&b, 40, 10)
}

// Property: histogram conserves observations that are >= first edge.
func TestQuickHistogramConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		h := NewHistogram([]float64{0, 10, 100, 1000})
		for _, v := range raw {
			h.Add(float64(v), 1)
		}
		var sum int64
		for _, c := range h.Counts {
			sum += c
		}
		return sum == int64(len(raw)) && h.total == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile of a sorted sample is within [min, max] and monotone in q.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		sorted := append([]float64(nil), raw...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(sorted, q)
			if v < prev || v < sorted[0] || v > sorted[len(sorted)-1] {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a counted sample summarizes to the bit what its observations,
// sorted into one slice, do — the sums taken in ascending order, the
// quantiles Quantile's.
func TestQuickSummarizeMatchesSorted(t *testing.T) {
	f := func(raw []uint8) bool {
		sorted := make([]float64, len(raw))
		for i, v := range raw {
			sorted[i] = float64(v%16) / 7 // few distinct values, each repeated
		}
		sort.Float64s(sorted)
		s := Summarize(sampleOf(sorted...))
		if len(sorted) == 0 {
			return s == Summary{}
		}
		sum, sum2 := 0.0, 0.0
		for _, x := range sorted {
			sum += x
			sum2 += x * x
		}
		mean := sum / float64(len(sorted))
		sd := 0.0
		if v := sum2/float64(len(sorted)) - mean*mean; v > 0 {
			sd = math.Sqrt(v)
		}
		return s.N == len(sorted) && s.Min == sorted[0] && s.Max == sorted[len(sorted)-1] &&
			s.Mean == mean && s.StdDev == sd &&
			s.P50 == Quantile(sorted, 0.5) && s.P90 == Quantile(sorted, 0.9) && s.P99 == Quantile(sorted, 0.99)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
