package figures

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// smokeConfig is small enough for fast CI runs but large enough that the
// paper's qualitative shapes hold.
func smokeConfig() Config {
	cfg := DefaultConfig()
	cfg.Flows = 2500
	cfg.Duration = SmokeDuration
	cfg.Steps = 5
	cfg.TableBackground = 8000
	return cfg
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percentage %q: %v", s, err)
	}
	return v
}

func TestFig1ShapeMatchesPaper(t *testing.T) {
	fig, err := Fig1(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 5 {
		t.Fatalf("series = %d, want 5", len(fig.Series))
	}
	// Each curve grows monotonically with elapsed time.
	for _, s := range fig.Series {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i][1] < s.Points[i-1][1] {
				t.Fatalf("%s not monotone: %v", s.Name, s.Points)
			}
		}
	}
	// At the final step the ordering is Original > GZIP > VJ > Peuhkuri >
	// Proposed.
	last := func(i int) float64 {
		pts := fig.Series[i].Points
		return pts[len(pts)-1][1]
	}
	for i := 1; i < 5; i++ {
		if last(i) >= last(i-1) {
			t.Fatalf("ordering violated between %s and %s",
				fig.Series[i-1].Name, fig.Series[i].Name)
		}
	}
	// The proposed curve sits an order of magnitude under VJ.
	if last(4) > last(2)/4 {
		t.Fatalf("proposed %.3f not well under VJ %.3f", last(4), last(2))
	}
}

func TestRatioTable(t *testing.T) {
	tbl, err := RatioTable(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "Original TSH" || tbl.Rows[0][2] != "1.0000" {
		t.Fatalf("original row = %v", tbl.Rows[0])
	}
	// Proposed ratio under 0.10.
	prop, err := strconv.ParseFloat(tbl.Rows[4][2], 64)
	if err != nil || prop > 0.10 {
		t.Fatalf("proposed ratio = %v (%v)", prop, err)
	}
}

func TestAnalyticTable(t *testing.T) {
	tbl, err := AnalyticTable(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	get := func(prefix string) float64 {
		for _, row := range tbl.Rows {
			if strings.HasPrefix(row[0], prefix) {
				v, err := strconv.ParseFloat(row[1], 64)
				if err != nil {
					t.Fatalf("bad value in row %v", row)
				}
				return v
			}
		}
		t.Fatalf("row %q missing", prefix)
		return 0
	}
	rvj := get("R_vj  (eq. 6")
	rp := get("R     (eq. 8")
	// The paper's headline regime.
	if rvj < 0.15 || rvj > 0.6 {
		t.Fatalf("R_vj = %v", rvj)
	}
	if rp < 0.005 || rp > 0.08 {
		t.Fatalf("R = %v", rp)
	}
	if rvj/rp < 5 {
		t.Fatalf("separation %v too small", rvj/rp)
	}
}

func TestFlowLengthTable(t *testing.T) {
	tbl, err := FlowLengthTable(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	flowsPct := parsePct(t, tbl.Rows[0][1])
	if flowsPct < 94 || flowsPct > 100 {
		t.Fatalf("flow%% = %v, want ~98", flowsPct)
	}
	pktPct := parsePct(t, tbl.Rows[1][1])
	if pktPct < 50 || pktPct > 97 {
		t.Fatalf("packet%% = %v, want ~75", pktPct)
	}
}

func TestMemStudyFigures(t *testing.T) {
	cfg := smokeConfig()
	cfg.Flows = 1500
	study, err := RunMemStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Results) != 4 {
		t.Fatalf("results = %d, want 4 traces", len(study.Results))
	}
	if study.Routes == 0 {
		t.Fatal("no routes in table")
	}

	fig2 := study.Fig2()
	if len(fig2.Series) != 4 {
		t.Fatalf("fig2 series = %d", len(fig2.Series))
	}
	names := map[string]bool{}
	for _, s := range fig2.Series {
		names[s.Name] = true
		if len(s.Points) == 0 {
			t.Fatalf("series %s empty", s.Name)
		}
		// CDF must be monotone and end at 100%.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i][1] < s.Points[i-1][1]-1e-9 {
				t.Fatalf("series %s CDF not monotone", s.Name)
			}
		}
		if lastY := s.Points[len(s.Points)-1][1]; lastY < 99.9 {
			t.Fatalf("series %s CDF ends at %v", s.Name, lastY)
		}
	}
	for _, want := range []string{"RedIRIS", "Decomp", "RedIRIS random", "fracexp"} {
		if !names[want] {
			t.Fatalf("missing series %q (have %v)", want, names)
		}
	}

	fig3 := study.Fig3()
	if len(fig3.Rows) != 4 {
		t.Fatalf("fig3 rows = %d", len(fig3.Rows))
	}
	// Each row's buckets sum to ~100%.
	for _, row := range fig3.Rows {
		sum := 0.0
		for _, cell := range row[1:] {
			sum += parsePct(t, cell)
		}
		if sum < 99 || sum > 101 {
			t.Fatalf("row %v sums to %v", row, sum)
		}
	}

	// Paper's qualitative claims:
	// (1) original and decompressed access CDFs track each other;
	// (2) the original has a larger low-miss share than the random trace.
	origLow := parsePct(t, fig3.Rows[0][1])
	randLow := parsePct(t, fig3.Rows[2][1])
	if origLow <= randLow {
		t.Fatalf("original low-miss share %v%% must exceed random %v%%", origLow, randLow)
	}

	sumTbl := study.AccessSummaryTable()
	if len(sumTbl.Rows) != 4 {
		t.Fatal("summary rows")
	}
	// KS fidelity: decompressed is far closer to the original's access
	// distribution than either control trace.
	var ks []float64
	for _, row := range sumTbl.Rows {
		v, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			t.Fatalf("bad KS distance %q", row[6])
		}
		ks = append(ks, v)
	}
	if ks[0] != 0 {
		t.Fatalf("KS(orig,orig) = %v", ks[0])
	}
	if ks[1] >= ks[2] || ks[1] >= ks[3] {
		t.Fatalf("KS ordering violated: decomp %v vs random %v, fractal %v", ks[1], ks[2], ks[3])
	}
	var means []float64
	for _, row := range sumTbl.Rows {
		v, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad mean %q", row[2])
		}
		means = append(means, v)
	}
	// Decompressed mean tracks original mean within 15%; random deviates
	// more than decompressed does.
	devDec := abs(means[1] - means[0])
	devRand := abs(means[2] - means[0])
	if devDec > means[0]*0.15 {
		t.Fatalf("decompressed mean %v too far from original %v", means[1], means[0])
	}
	if devRand <= devDec {
		t.Fatalf("random deviation %v must exceed decompressed %v", devRand, devDec)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestClusterStudy(t *testing.T) {
	fig, tbl, err := ClusterStudy(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 1 || len(fig.Series[0].Points) == 0 {
		t.Fatal("cluster growth curve missing")
	}
	pts := fig.Series[0].Points
	// Sub-linear growth: far fewer clusters than flows at the end.
	lastFlows, lastClusters := pts[len(pts)-1][0], pts[len(pts)-1][1]
	if lastClusters >= lastFlows/5 {
		t.Fatalf("clusters %v vs flows %v: not concentrated", lastClusters, lastFlows)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("diversity table rows = %d", len(tbl.Rows))
	}
}

// TestWeightAblation pins each weight row's template count and matched
// share at the default scale; the paper's weights come first.
func TestWeightAblation(t *testing.T) {
	tbl, err := WeightAblation(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]string{
		{"(16,4,1)", "219", "98.9%"},
		{"(8,2,1)", "146", "99.3%"},
		{"(24,6,2)", "281", "98.6%"},
		{"(1,1,1)", "101", "99.5%"},
		{"(50,10,2)", "319", "98.4%"},
	}
	if len(tbl.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(want))
	}
	for i, w := range want {
		if got := [3]string{tbl.Rows[i][0], tbl.Rows[i][1], tbl.Rows[i][2]}; got != w {
			t.Errorf("row %d: weights, templates, matched = %v, want %v", i, got, w)
		}
	}
}

func TestThresholdAblation(t *testing.T) {
	tbl, err := ThresholdAblation(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Templates decrease (weakly) as the threshold loosens.
	prev := -1
	for _, row := range tbl.Rows {
		n, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatalf("bad template count %q", row[1])
		}
		if prev >= 0 && n > prev {
			t.Fatalf("templates grew with looser threshold: %v", tbl.Rows)
		}
		prev = n
	}
	// Zero threshold means zero distortion.
	if d := tbl.Rows[0][3]; d != "0.0000" {
		t.Fatalf("0%% threshold distortion = %s", d)
	}
}

func TestStorageBreakdown(t *testing.T) {
	tbl, err := StorageBreakdownTable(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	var total int64
	for _, row := range tbl.Rows[:5] {
		v, err := strconv.ParseInt(row[1], 10, 64)
		if err != nil {
			t.Fatalf("bad bytes %q", row[1])
		}
		total += v
	}
	want, err := strconv.ParseInt(tbl.Rows[5][1], 10, 64)
	if err != nil || total != want {
		t.Fatalf("sections sum to %d, total row %d", total, want)
	}
}

func TestCacheAblation(t *testing.T) {
	cfg := smokeConfig()
	cfg.Flows = 1200
	tbl, err := CacheAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// At every geometry the random trace misses at least as much as the
	// original.
	for _, row := range tbl.Rows {
		orig := parsePct(t, row[1])
		rand := parsePct(t, row[2])
		if rand < orig {
			t.Fatalf("random %v%% below original %v%% at %s", rand, orig, row[0])
		}
	}
}

func TestPaperScaleConfigLarger(t *testing.T) {
	d := DefaultConfig()
	p := PaperScaleConfig()
	if p.Flows <= d.Flows || p.TableBackground <= d.TableBackground {
		t.Fatal("paper scale must exceed default scale")
	}
	if d.Duration != 100*time.Second {
		t.Fatalf("default duration = %v", d.Duration)
	}
}
