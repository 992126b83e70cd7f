package promtext

import (
	"bytes"
	"strings"
	"testing"

	"flowzip/internal/obs"
)

// TestRoundTripObsRender is the compatibility contract between the obs
// renderer and the parser cmd/benchjson consumes: everything a registry
// renders must parse back in strict mode (lint clean) with the same
// values, including hostile label values and histogram families.
func TestRoundTripObsRender(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("flowzipd_packets_total", "Packets accepted into session pipelines.").Add(1 << 20)
	reg.Gauge("flowzipd_sessions_active", "Sessions currently open.").Add(3)
	vec := reg.CounterVec("flowzipd_tenant_archive_bytes_total", "Encoded bytes per tenant.", "tenant")
	vec.Add("lab-a", 8192)
	vec.Add(`quo"te\back`+"\nnl", 512)
	h := reg.Histogram("flowzipd_batch_seconds", "Batch feed latency.", obs.DefaultLatencyBuckets)
	for _, v := range []float64{0.0002, 0.004, 0.004, 2, 1000} {
		h.Observe(v)
	}

	var b bytes.Buffer
	if err := reg.Render(&b); err != nil {
		t.Fatal(err)
	}
	res, err := Parse(bytes.NewReader(b.Bytes()), true)
	if err != nil {
		t.Fatalf("strict parse of obs render failed: %v\n%s", err, b.String())
	}

	byName := map[string]Sample{}
	for _, s := range res.Samples {
		key := s.Name
		if tenant := s.Labels["tenant"]; tenant != "" {
			key += "{" + tenant + "}"
		}
		byName[key] = s
	}
	if s := byName["flowzipd_packets_total"]; s.Value != 1<<20 {
		t.Errorf("counter = %v, want %d", s.Value, 1<<20)
	}
	if s := byName["flowzipd_sessions_active"]; s.Value != 3 {
		t.Errorf("gauge = %v, want 3", s.Value)
	}
	if s := byName["flowzipd_tenant_archive_bytes_total{lab-a}"]; s.Value != 8192 {
		t.Errorf("tenant series = %v, want 8192", s.Value)
	}
	hostile := `quo"te\back` + "\nnl"
	if s := byName["flowzipd_tenant_archive_bytes_total{"+hostile+"}"]; s.Value != 512 {
		t.Errorf("hostile tenant label did not round-trip: %+v", byName)
	}

	if len(res.Histograms) != 1 {
		t.Fatalf("got %d histograms, want 1", len(res.Histograms))
	}
	hist := res.Histograms[0]
	if hist.Name != "flowzipd_batch_seconds" {
		t.Errorf("histogram name %q", hist.Name)
	}
	if hist.Count != 5 {
		t.Errorf("histogram count %d, want 5", hist.Count)
	}
	if hist.Sum != 0.0002+0.004+0.004+2+1000 {
		t.Errorf("histogram sum %v", hist.Sum)
	}
	if n := len(hist.Buckets); n != len(obs.DefaultLatencyBuckets)+1 {
		t.Errorf("%d buckets, want %d", n, len(obs.DefaultLatencyBuckets)+1)
	}
	if last := hist.Buckets[len(hist.Buckets)-1]; last.LE != "+Inf" || last.Count != 5 {
		t.Errorf("+Inf bucket %+v", last)
	}
	// The 1000s observation lands only in +Inf: the 10s bucket holds 4.
	if b10 := hist.Buckets[len(hist.Buckets)-2]; b10.LE != "10" || b10.Count != 4 {
		t.Errorf("10s bucket %+v, want le=10 count=4", b10)
	}
}

// TestStrictLint rejects the malformed pages CI must catch.
func TestStrictLint(t *testing.T) {
	cases := map[string]string{
		"missing HELP": `# TYPE x_total counter
x_total 1
`,
		"missing TYPE": `# HELP x_total help
x_total 1
`,
		"bucket not cumulative": `# HELP h help
# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="+Inf"} 3
h_sum 1
h_count 3
`,
		"last bucket not +Inf": `# HELP h help
# TYPE h histogram
h_bucket{le="1"} 2
h_sum 1
h_count 2
`,
		"+Inf != count": `# HELP h help
# TYPE h histogram
h_bucket{le="+Inf"} 3
h_sum 1
h_count 4
`,
		"missing sum": `# HELP h help
# TYPE h histogram
h_bucket{le="+Inf"} 3
h_count 3
`,
		"bad metric name": `# HELP 9bad help
# TYPE 9bad counter
9bad 1
`,
		"unknown type": `# HELP x help
# TYPE x speedometer
x 1
`,
	}
	for name, page := range cases {
		if _, err := Parse(strings.NewReader(page), true); err == nil {
			t.Errorf("%s: strict parse accepted:\n%s", name, page)
		}
		// Outside strict mode only unparsable lines are errors; these
		// pages are merely unhygienic, not unparsable.
		if name != "bad metric name" {
			if _, err := Parse(strings.NewReader(page), false); err != nil {
				t.Errorf("%s: lax parse rejected: %v", name, err)
			}
		}
	}
}

// TestParseRejectsGarbage: sample lines that do not parse are errors in
// either mode.
func TestParseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"flowzipd_x one\n",
		"flowzipd_x{tenant=\"a\" 1\n",
		"flowzipd_x{tenant=a} 1\n",
		"just some words\n",
	} {
		if _, err := Parse(strings.NewReader(bad), false); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}
