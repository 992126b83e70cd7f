package server

// A parser for the Prometheus text exposition format (version 0.0.4), the
// format internal/obs renders and flowzipd serves on /metrics. The scrape
// tests read the daemon's pages through it.
//
// Plain counter and gauge lines become samples. Families declared
// `# TYPE <name> histogram` have their `_bucket`/`_sum`/`_count` series
// folded into histograms. The parser also lints the exposition: every family
// must carry # HELP and # TYPE headers, metric names must be well-formed,
// histogram buckets must be cumulative and the +Inf bucket must equal the
// family's _count.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"testing"

	"flowzip/internal/obs"
)

// promSample is one parsed counter/gauge sample line.
type promSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// promBucket is one cumulative histogram bucket. LE stays the page's string
// so that "+Inf" reads back as written.
type promBucket struct {
	LE    string
	Count int64
}

// promHistogram is a folded histogram family: its _bucket series in
// exposition order plus the _sum and _count samples.
type promHistogram struct {
	Name    string
	Labels  map[string]string
	Buckets []promBucket
	Sum     float64
	Count   int64

	sawSum   bool
	sawCount bool
}

// promPage holds everything parsed from one exposition page.
type promPage struct {
	Samples    []promSample
	Histograms []*promHistogram
}

// histBase returns the histogram family name if s is one of its member
// series (per the types map), else "".
func histBase(s string, types map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(s, suffix); ok && types[base] == "histogram" {
			return base
		}
	}
	return ""
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func labelKey(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\xff')
		b.WriteString(labels[k])
		b.WriteByte('\xfe')
	}
	return b.String()
}

// parseProm scans one exposition page. Comment and blank lines are metadata
// or skipped; every other line must parse as `name[{labels}] value`, since
// a metrics page has no legitimate unrecognized lines. Lint violations are
// errors too.
func parseProm(r io.Reader) (*promPage, error) {
	res := &promPage{}
	types := map[string]string{}
	helps := map[string]bool{}
	hists := map[string]*promHistogram{}
	seen := map[string]bool{} // families with at least one sample, in input order
	var seenOrder []string

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, arg, ok := parseComment(line)
			if !ok {
				continue // free-form comment
			}
			switch kind {
			case "TYPE":
				switch arg {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("metrics line %d: unknown TYPE %q for %s", n, arg, name)
				}
				if !validName(name) {
					return nil, fmt.Errorf("metrics line %d: invalid metric name %q", n, name)
				}
				types[name] = arg
			case "HELP":
				helps[name] = true
			}
			continue
		}
		s, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		family := s.Name
		if base := histBase(s.Name, types); base != "" {
			family = base
			foldHistogram(hists, res, base, s)
		} else {
			res.Samples = append(res.Samples, s)
		}
		if !validName(s.Name) {
			return nil, fmt.Errorf("metrics line %d: invalid metric name %q", n, s.Name)
		}
		if !seen[family] {
			seen[family] = true
			seenOrder = append(seenOrder, family)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading input: %w", err)
	}
	if err := lint(res, types, helps, seenOrder); err != nil {
		return nil, err
	}
	return res, nil
}

func foldHistogram(hists map[string]*promHistogram, res *promPage, base string, s promSample) {
	labels := s.Labels
	le := ""
	isBucket := strings.HasSuffix(s.Name, "_bucket")
	if isBucket {
		le = labels["le"]
		if len(labels) > 1 {
			nl := make(map[string]string, len(labels)-1)
			for k, v := range labels {
				if k != "le" {
					nl[k] = v
				}
			}
			labels = nl
		} else {
			labels = nil
		}
	}
	key := base + "\x00" + labelKey(labels)
	h, ok := hists[key]
	if !ok {
		h = &promHistogram{Name: base, Labels: labels}
		hists[key] = h
		res.Histograms = append(res.Histograms, h)
	}
	switch {
	case isBucket:
		h.Buckets = append(h.Buckets, promBucket{LE: le, Count: int64(s.Value)})
	case strings.HasSuffix(s.Name, "_sum"):
		h.Sum = s.Value
		h.sawSum = true
	default:
		h.Count = int64(s.Value)
		h.sawCount = true
	}
}

func lint(res *promPage, types map[string]string, helps map[string]bool, seenOrder []string) error {
	for _, family := range seenOrder {
		if !helps[family] {
			return fmt.Errorf("metrics lint: family %s has samples but no # HELP", family)
		}
		if _, ok := types[family]; !ok {
			return fmt.Errorf("metrics lint: family %s has samples but no # TYPE", family)
		}
	}
	for _, h := range res.Histograms {
		if len(h.Buckets) == 0 {
			return fmt.Errorf("metrics lint: histogram %s has no _bucket series", h.Name)
		}
		if !h.sawSum || !h.sawCount {
			return fmt.Errorf("metrics lint: histogram %s is missing _sum or _count", h.Name)
		}
		var prev int64
		prevLE := ""
		for _, b := range h.Buckets {
			if b.Count < prev {
				return fmt.Errorf("metrics lint: histogram %s bucket le=%q count %d below previous bucket (le=%q, %d) — buckets must be cumulative",
					h.Name, b.LE, b.Count, prevLE, prev)
			}
			prev, prevLE = b.Count, b.LE
		}
		last := h.Buckets[len(h.Buckets)-1]
		if last.LE != "+Inf" {
			return fmt.Errorf("metrics lint: histogram %s last bucket is le=%q, want +Inf", h.Name, last.LE)
		}
		if last.Count != h.Count {
			return fmt.Errorf("metrics lint: histogram %s +Inf bucket %d != _count %d", h.Name, last.Count, h.Count)
		}
	}
	return nil
}

// parseComment splits `# TYPE name arg...` / `# HELP name text...`.
func parseComment(line string) (kind, name, arg string, ok bool) {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "#"))
	kind, rest, found := strings.Cut(rest, " ")
	if !found || (kind != "TYPE" && kind != "HELP") {
		return "", "", "", false
	}
	rest = strings.TrimSpace(rest)
	name, arg, _ = strings.Cut(rest, " ")
	return kind, name, strings.TrimSpace(arg), name != ""
}

// parseLine parses one sample line: `name[{label="value",...}] value`.
func parseLine(line string) (promSample, error) {
	name := line
	rest := ""
	var labels map[string]string
	if open := strings.IndexByte(line, '{'); open >= 0 {
		close := strings.LastIndexByte(line, '}')
		if close < open {
			return promSample{}, fmt.Errorf("unbalanced label braces in %q", line)
		}
		name = line[:open]
		rest = line[close+1:]
		var err error
		if labels, err = parseLabels(line[open+1 : close]); err != nil {
			return promSample{}, err
		}
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return promSample{}, fmt.Errorf("want `name value`, got %q", line)
		}
		name, rest = fields[0], fields[1]
	}
	// strconv accepts "+Inf"/"-Inf"/"NaN" already; the exposition format
	// uses exactly those spellings.
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return promSample{}, fmt.Errorf("sample value in %q: %w", line, err)
	}
	return promSample{Name: name, Labels: labels, Value: v}, nil
}

// parseLabels parses `k1="v1",k2="v2"`. Escapes inside label values
// follow the exposition format's quoting rules (\\, \", \n).
func parseLabels(s string) (map[string]string, error) {
	labels := map[string]string{}
	for s = strings.TrimSpace(s); s != ""; {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || len(s) < eq+2 || s[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label in %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		var val strings.Builder
		i := eq + 2
		for {
			if i >= len(s) {
				return nil, fmt.Errorf("unterminated label value in %q", s)
			}
			c := s[i]
			if c == '"' {
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, fmt.Errorf("dangling escape in %q", s)
				}
				i++
				switch s[i] {
				case 'n':
					c = '\n'
				default:
					c = s[i]
				}
			}
			val.WriteByte(c)
			i++
		}
		labels[key] = val.String()
		s = strings.TrimSpace(s[i+1:])
		s = strings.TrimPrefix(s, ",")
		s = strings.TrimSpace(s)
	}
	return labels, nil
}

// TestRoundTripObsRender is the compatibility contract between the obs
// renderer and the parser: everything a registry renders must parse back
// lint clean with the same values, including hostile label values and
// histogram families.
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
	res, err := parseProm(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatalf("parse of obs render failed: %v\n%s", err, b.String())
	}

	byName := map[string]promSample{}
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

// TestStrictLint rejects the malformed pages a scrape test must catch.
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
		if _, err := parseProm(strings.NewReader(page)); err == nil {
			t.Errorf("%s: parse accepted:\n%s", name, page)
		}
	}
}

// TestParseRejectsGarbage: sample lines that do not parse are errors, not
// silently dropped samples.
func TestParseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"flowzipd_x one\n",
		"flowzipd_x{tenant=\"a\" 1\n",
		"flowzipd_x{tenant=a} 1\n",
		"just some words\n",
	} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted", bad)
		}
	}
}

// TestParsePromOutput parses a hand-written page in the shape flowzipd's
// /metrics serves: HELP/TYPE headers, a bare gauge, a counter in the
// scientific notation Go's float formatting produces for large values, and
// labeled per-tenant series with one and with two labels.
func TestParsePromOutput(t *testing.T) {
	const page = `# HELP flowzipd_sessions_active Sessions currently open.
# TYPE flowzipd_sessions_active gauge
flowzipd_sessions_active 3
# HELP flowzipd_packets_total Packets accepted across all sessions.
# TYPE flowzipd_packets_total counter
flowzipd_packets_total 1.048576e+06
# HELP flowzipd_tenant_archive_bytes_total Encoded bytes per tenant.
# TYPE flowzipd_tenant_archive_bytes_total counter
flowzipd_tenant_archive_bytes_total{tenant="lab-a"} 8192
flowzipd_tenant_archive_bytes_total{tenant="lab-b",region="eu"} 512
`
	res, err := parseProm(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 4 || len(res.Histograms) != 0 {
		t.Fatalf("parsed %d samples and %d histograms, want 4 and 0", len(res.Samples), len(res.Histograms))
	}
	if s := res.Samples[0]; s.Name != "flowzipd_sessions_active" || s.Value != 3 || len(s.Labels) != 0 {
		t.Errorf("bare gauge mangled: %+v", s)
	}
	if s := res.Samples[1]; s.Name != "flowzipd_packets_total" || s.Value != 1048576 {
		t.Errorf("scientific-notation value mangled: %+v", s)
	}
	if s := res.Samples[2]; s.Labels["tenant"] != "lab-a" || len(s.Labels) != 1 || s.Value != 8192 {
		t.Errorf("labeled counter mangled: %+v", s)
	}
	if s := res.Samples[3]; s.Labels["tenant"] != "lab-b" || s.Labels["region"] != "eu" || s.Value != 512 {
		t.Errorf("multi-label counter mangled: %+v", s)
	}
}

// TestParsePromRejectsGarbage puts each unparseable sample line after a
// well-formed family, so the page fails on the line itself and not on a
// missing header, and the error names that line.
func TestParsePromRejectsGarbage(t *testing.T) {
	const head = `# HELP flowzipd_x A gauge.
# TYPE flowzipd_x gauge
flowzipd_x 1
`
	for _, bad := range []string{
		"flowzipd_x one",
		`flowzipd_x{tenant="a" 1`,
		"flowzipd_x{tenant=a} 1",
		"just some words",
	} {
		_, err := parseProm(strings.NewReader(head + bad + "\n"))
		if err == nil {
			t.Errorf("parseProm accepted %q", bad)
			continue
		}
		if !strings.Contains(err.Error(), "line 4") {
			t.Errorf("parseProm(%q) = %v, want the error to name line 4", bad, err)
		}
	}
}

// TestParsePromLabelEscapes: the exposition format's \\, \" and \n label
// escapes decode to the bytes they stand for.
func TestParsePromLabelEscapes(t *testing.T) {
	const page = `# HELP x A gauge.
# TYPE x gauge
x{k="a\"b\\c\nd"} 1
`
	res, err := parseProm(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 1 {
		t.Fatalf("parsed %d samples, want 1", len(res.Samples))
	}
	if got := res.Samples[0].Labels["k"]; got != "a\"b\\c\nd" {
		t.Errorf("escaped label = %q", got)
	}
}
