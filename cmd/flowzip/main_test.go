package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"flowzip/internal/core"
	"flowzip/internal/flowgen"
	"flowzip/internal/pkt"
	"flowzip/internal/trace"
	"flowzip/internal/tsh"
)

// stdoutOf runs fn with os.Stdout redirected and returns what it printed.
// The verbs exit the process on error, so a failure inside fn fails the test
// binary rather than returning.
func stdoutOf(t *testing.T, fn func()) string { return outputOf(t, &os.Stdout, fn) }

// outputOf runs fn with *f, os.Stdout or os.Stderr, redirected and returns
// what it printed there.
func outputOf(t *testing.T, f **os.File, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := *f
	*f = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	fn()
	*f = saved
	w.Close()
	return string(<-out)
}

// TestExtractPrefixSelectsServers follows the help text the way a user does:
// compress -index, read a server address off inspect, extract -prefix it. The
// address dataset holds servers, so that returns the server's flows and only
// them; a client address of the decompressed trace, drawn at random by the
// decode, selects nothing.
func TestExtractPrefixSelectsServers(t *testing.T) {
	dir := t.TempDir()
	in, fz := filepath.Join(dir, "web.tsh"), filepath.Join(dir, "web.fz")
	cfg := flowgen.DefaultWebConfig()
	cfg.Flows = 400
	if err := flowgen.Web(cfg).SaveFile(in); err != nil {
		t.Fatal(err)
	}
	stdoutOf(t, func() { runCompress([]string{"-i", in, "-o", fz, "-index"}) })

	listed := regexp.MustCompile(`server addresses\W+(\d+\.\d+\.\d+\.\d+)`).FindStringSubmatch(
		stdoutOf(t, func() { runInspect([]string{"-i", fz}) }))
	if listed == nil {
		t.Fatal("inspect lists no server address to extract by")
	}
	server := listed[1]

	extract := func(prefix string) (flows int, tr *trace.Trace) {
		out := filepath.Join(dir, "sub.tsh")
		summary := stdoutOf(t, func() { runExtract([]string{"-i", fz, "-o", out, "-prefix", prefix}) })
		var packets int
		if _, err := fmt.Sscanf(summary, out+": %d flows, %d packets", &flows, &packets); err != nil {
			t.Fatalf("extract -prefix %s printed %q: %v", prefix, summary, err)
		}
		tr, err := trace.LoadFile(out)
		if err != nil || tr.Len() != packets {
			t.Fatalf("extract -prefix %s wrote %v, %v; the summary says %d packets", prefix, tr, err, packets)
		}
		return flows, tr
	}
	flows, tr := extract(server)
	if flows == 0 || tr.Len() == 0 {
		t.Fatalf("extract -prefix %s, an address inspect lists, returned %d flows", server, flows)
	}
	var client string
	for _, p := range tr.Packets {
		if p.SrcIP.String() != server && p.DstIP.String() != server {
			t.Fatalf("extract -prefix %s returned a packet %v -> %v", server, p.SrcIP, p.DstIP)
		}
		if p.DstIP.String() == server {
			client = p.SrcIP.String()
		}
	}
	if flows, _ := extract(client); flows != 0 {
		t.Fatalf("extract -prefix %s, a client address, returned %d flows", client, flows)
	}
}

// inspectField returns the value inspect printed for a field.
func inspectField(t *testing.T, out, field string) string {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(field) + `\s+(\S+)\s*$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("inspect printed no %q row:\n%s", field, out)
	}
	return m[1]
}

// TestInspectReportsTheFile: inspect describes the bytes it was given — their
// container version, their size, their sections and their footer: the golden
// indexed file and an archive compress just wrote.
func TestInspectReportsTheFile(t *testing.T) {
	const golden = "../../internal/core/testdata/golden/v9-indexed.fz"
	fi, err := os.Stat(golden)
	if err != nil {
		t.Fatal(err)
	}
	out := stdoutOf(t, func() { runInspect([]string{"-i", golden}) })
	if got := inspectField(t, out, "container version"); got != "9" {
		t.Errorf("v9-indexed.fz: container version %s", got)
	}
	if got := inspectField(t, out, "file bytes"); got != fmt.Sprint(fi.Size()) {
		t.Errorf("v9-indexed.fz: file bytes %s, the file has %d", got, fi.Size())
	}
	if got := inspectField(t, out, "index groups"); got != "13" {
		t.Errorf("v9-indexed.fz: index groups %s, want 13", got)
	}

	dir := t.TempDir()
	in, fz := filepath.Join(dir, "web.tsh"), filepath.Join(dir, "web.fz")
	cfg := flowgen.DefaultWebConfig()
	cfg.Flows = 400
	if err := flowgen.Web(cfg).SaveFile(in); err != nil {
		t.Fatal(err)
	}
	summary := stdoutOf(t, func() { runCompress([]string{"-i", in, "-o", fz, "-index"}) })
	if fi, err = os.Stat(fz); err != nil {
		t.Fatal(err)
	}
	out = stdoutOf(t, func() { runInspect([]string{"-i", fz}) })
	if got := inspectField(t, out, "container version"); got != "9" {
		t.Errorf("fresh archive: container version %s", got)
	}
	if got := inspectField(t, out, "file bytes"); got != fmt.Sprint(fi.Size()) || !regexp.MustCompile(fmt.Sprintf(`-> %d bytes`, fi.Size())).MatchString(summary) {
		t.Errorf("fresh archive: file bytes %s, the file has %d, compress said %q", got, fi.Size(), summary)
	}
	total := int64(0)
	for _, row := range []string{"header bytes", "short template bytes", "long template bytes", "address bytes", "time-seq bytes", "footer index bytes"} {
		var n int64
		fmt.Sscan(inspectField(t, out, row), &n)
		total += n
	}
	if total != fi.Size() {
		t.Errorf("fresh archive: sections sum to %d, the file has %d bytes", total, fi.Size())
	}
}

// TestInspectExplain: -explain attributes the file's bytes to sections and
// columns. Shares sum to one; a column of the golden indexed file, whose runs
// are all bits, is Huffman- or class-coded (a template column table by table,
// so possibly both) and takes at least its entropy, less a byte for rounding;
// the gap column, whose header flags RTT-coded gaps and says so in its name,
// holds one RTT a long template beside the gaps, as many values as the long
// templates hold f values; a template column has a table per context, any
// other column one; an indexed file adds the footer's columns — template
// offsets, group entries and postings, with the two new-template counts where
// the header flags the new-template symbols — each of one table. In a file
// whose long templates' f values go through an rANS state, that column is
// coded rans, and the flushes of those runs have a row of their own.
func TestInspectExplain(t *testing.T) {
	// section, column, values, bytes, entropy bytes, coding, tables, table bytes, share
	row := regexp.MustCompile(`(?m)^(\S.*?)?\s{2,}(\S.*?)\s{2,}(\d+)\s+(\d+)\s+(\d+)\s+(\w+)\s+(\d+)\s+(\d+)\s+([\d.]+)\s*$`)
	columns := func(file string, want int) map[string][]string {
		out := stdoutOf(t, func() { runInspect([]string{"-i", file, "-explain"}) })
		cols := map[string][]string{}
		for _, m := range row.FindAllStringSubmatch(out, -1) {
			cols[m[2]] = m[3:]
		}
		if len(cols) != want {
			t.Fatalf("%s: -explain printed %d column rows, want %d:\n%s", file, len(cols), want, out)
		}
		shares := 0.0
		for _, m := range regexp.MustCompile(`(?m)^\S.*\s([\d.]+)\s*$`).FindAllStringSubmatch(out[strings.Index(out, "where the"):], -1) {
			var s float64
			fmt.Sscan(m[1], &s)
			shares += s
		}
		if shares < 0.999 || shares > 1.001 {
			t.Errorf("%s: section shares sum to %v:\n%s", file, shares, out)
		}
		return cols
	}
	num := func(s string) (n int64) { fmt.Sscan(s, &n); return n }
	const rttGap = "long template gap (flag: RTT residuals)"
	template := map[string]bool{"short template value": true, "long template value": true, rttGap: true}
	const v9file = "../../internal/core/testdata/golden/v9-indexed.fz"
	v9i := columns(v9file, 17)
	if gaps, f := v9i[rttGap], v9i["long template value"]; gaps == nil || f == nil || gaps[0] != f[0] {
		t.Errorf("v9-indexed.fz: %s holds %v, long template value %v: want one value a long template packet", rttGap, gaps, f)
	}
	for _, name := range []string{"short template value", "long template value", rttGap, "short template length",
		"time-seq timestamp delta", "time-seq template tag", "time-seq rtt", "time-seq address"} {
		col := v9i[name]
		if col == nil {
			t.Errorf("v9-indexed.fz: no %q row", name)
			continue
		}
		if col[3] != "huffman" && col[3] != "class" && col[3] != "none" && (col[3] != "mixed" || !template[name]) {
			t.Errorf("v9-indexed.fz %s: coding %s", name, col[3])
		}
		if tables := num(col[4]); tables < 1 || tables > 1 && !template[name] {
			t.Errorf("v9-indexed.fz %s: %d tables", name, tables)
		}
		if written, entropy := num(col[1]), num(col[2]); written+1 < entropy {
			t.Errorf("v9-indexed.fz %s: %d bytes as written, entropy %d", name, written, entropy)
		}
	}
	for _, name := range []string{"short template group offset", "long template offset", "group offset", "group first timestamp",
		"group timestamp span", "group new addresses", "postings length", "postings first group (prediction 1: fresh group)", "postings group gap"} {
		if v9i[name] == nil || v9i[name][4] != "1" {
			t.Errorf("v9-indexed.fz: a row for %s %v, want one of one table", name, v9i[name])
		}
	}
	const bulk = "../../internal/core/testdata/golden/v9-bulk-indexed.fz"
	v9 := columns(bulk, 19)
	for name, col := range v9 {
		if rans := name == "long template value"; (col[3] == "rans") != rans {
			t.Errorf("v9-bulk-indexed.fz %s: coding %s", name, col[3])
		}
	}
	// The footer names the prediction its postings' first groups are coded
	// from. The tag row says where the header flags the new-template symbols,
	// the gap row where it flags RTT-coded gaps.
	for file, names := range map[string][]string{
		bulk: {"postings first group (prediction 0: previous list's)", "time-seq template tag (flag: new-template symbols)",
			"group new short templates", "group new long templates"},
		v9file: {"postings first group (prediction 1: fresh group)", "time-seq template tag", rttGap},
	} {
		want := len(v9i)
		if file == bulk {
			want = len(v9)
		}
		cols := columns(file, want)
		for _, name := range names {
			if cols[name] == nil {
				t.Errorf("%s: no %q row", file, name)
			}
		}
	}
	if out := stdoutOf(t, func() { runInspect([]string{"-i", bulk, "-explain"}) }); !regexp.MustCompile(`(?m)^\s+rans flush\s+\d+\s+[\d.]+\s*$`).MatchString(out) {
		t.Errorf("v9-bulk-indexed.fz: no rans flush row:\n%s", out)
	}
}

// TestParsePrefix: extract -prefix takes an IPv4 address or CIDR prefix and
// nothing after it.
func TestParsePrefix(t *testing.T) {
	for _, tc := range []struct {
		in   string
		ip   string
		plen int
	}{
		{"10.1.2.3", "10.1.2.3", 32},
		{"10.1.0.0/16", "10.1.0.0", 16},
		{"0.0.0.0/0", "0.0.0.0", 0},
		{"10.1.2.3/32", "10.1.2.3", 32},
	} {
		ip, plen, err := parsePrefix(tc.in)
		if err != nil || ip.String() != tc.ip || plen != tc.plen {
			t.Errorf("parsePrefix(%q) = %v/%d, %v; want %s/%d", tc.in, ip, plen, err, tc.ip, tc.plen)
		}
	}
	for _, in := range []string{"10.1.2.3.4", "10.1.2.3x", "10.1.2.3 junk", "10.1.2.3/33", "10.1.2.3/", "::1", "256.1.2.3"} {
		if ip, plen, err := parsePrefix(in); err == nil {
			t.Errorf("parsePrefix(%q) accepted as %v/%d", in, ip, plen)
		}
	}
}

// TestCompressRefusesIgnoredFlags: a flag compress would ignore is refused,
// naming the flag it needs, rather than dropped without a word. The verb
// exits the process on a refusal, so each refused run is this test binary
// re-run with the compress arguments in its environment.
func TestCompressRefusesIgnoredFlags(t *testing.T) {
	if args := os.Getenv("FLOWZIP_TEST_COMPRESS_ARGS"); args != "" {
		runCompress(strings.Fields(args))
		return
	}
	dir := t.TempDir()
	in, fz := filepath.Join(dir, "web.tsh"), filepath.Join(dir, "web.fz")
	cfg := flowgen.DefaultWebConfig()
	cfg.Flows = 50
	if err := flowgen.Web(cfg).SaveFile(in); err != nil {
		t.Fatal(err)
	}
	const flags, want = "-index-group 16", "-index-group requires -index"
	cmd := exec.Command(os.Args[0], "-test.run=^TestCompressRefusesIgnoredFlags$")
	cmd.Env = append(os.Environ(), "FLOWZIP_TEST_COMPRESS_ARGS=-i "+in+" -o "+fz+" "+flags)
	out, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(out), want) {
		t.Errorf("compress %s: err %v, output %q; want a refusal naming %q", flags, err, out, want)
	}
	if _, err := os.Stat(fz); err == nil {
		t.Error("a refused compress wrote its archive")
	}
}

// TestCompressMatchesLibrary: compress streams a capture into the archive
// core.Compress makes of the same packets with the same options and index
// settings, plain and with -index, and with -progress, which reports every
// packet read. A capture with one packet moved out of order is
// refused by the stream, and compress then writes the archive of its sorted
// copy, saying so on stderr.
func TestCompressMatchesLibrary(t *testing.T) {
	dir := t.TempDir()
	cfg := flowgen.DefaultWebConfig()
	cfg.Flows = 400
	tr := flowgen.Web(cfg)
	sorted := filepath.Join(dir, "sorted.tsh")
	if err := tr.SaveFile(sorted); err != nil {
		t.Fatal(err)
	}
	n := tr.Len()
	moved := tr.Packets[n/2]
	copy(tr.Packets[n/4+1:n/2+1], tr.Packets[n/4:n/2])
	tr.Packets[n/4] = moved // ahead of the packets it followed
	unsorted := filepath.Join(dir, "unsorted.tsh")
	if err := tr.SaveFile(unsorted); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		flags []string
		index bool
	}{
		{nil, false},
		{[]string{"-index"}, true},
		{[]string{"-progress"}, false},
	} {
		for _, in := range []string{sorted, unsorted} {
			want, err := trace.LoadFile(in)
			if err != nil {
				t.Fatal(err)
			}
			want.Sort()
			a, err := core.Compress(want, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			a.Index = core.IndexConfig{Enabled: tc.index}
			var buf bytes.Buffer
			if _, err := a.Encode(&buf); err != nil {
				t.Fatal(err)
			}

			fz := filepath.Join(dir, "out.fz")
			run := fmt.Sprintf("compress %s of %s", strings.Join(tc.flags, " "), filepath.Base(in))
			stderr := outputOf(t, &os.Stderr, func() {
				stdoutOf(t, func() { runCompress(append([]string{"-i", in, "-o", fz}, tc.flags...)) })
			})
			if got, err := os.ReadFile(fz); err != nil || !bytes.Equal(got, buf.Bytes()) {
				t.Errorf("%s: %d bytes (%v), core.Compress makes %d bytes of its sorted packets", run, len(got), err, buf.Len())
			}
			if sorts := strings.Contains(stderr, "not timestamp sorted"); sorts != (in == unsorted) {
				t.Errorf("%s: stderr %q", run, stderr)
			}
			if counted := fmt.Sprintf("read %d packets\n", n); in == sorted && slices.Contains(tc.flags, "-progress") && !strings.Contains(stderr, counted) {
				t.Errorf("%s: stderr %q, want the count %q", run, stderr, counted)
			}
		}
	}
}

// TestDecompressMatchesLibrary: decompress streams into the very file
// SaveFile makes of core.Decompress's trace, as TSH and as pcap, and its
// summary line counts that trace: packets, the archive's flows, wire bytes,
// TSH bytes and duration.
func TestDecompressMatchesLibrary(t *testing.T) {
	dir := t.TempDir()
	cfg := flowgen.DefaultWebConfig()
	cfg.Flows = 2000 // packets for more than one batch
	a, err := core.Compress(flowgen.Web(cfg), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fz := filepath.Join(dir, "web.fz")
	f, err := os.Create(fz)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := core.Decompress(a)
	if err != nil || tr.Len() <= pkt.DefaultBatch {
		t.Fatalf("core.Decompress: %v, %v", tr, err)
	}
	size := int64(0)
	for i := range tr.Packets {
		size += int64(tr.Packets[i].TotalLen())
	}
	for _, ext := range []string{"tsh", "pcap"} {
		want, out := filepath.Join(dir, "want."+ext), filepath.Join(dir, "out."+ext)
		if err := tr.SaveFile(want); err != nil {
			t.Fatal(err)
		}
		summary := stdoutOf(t, func() { runDecompress([]string{"-i", fz, "-o", out}) })
		wantBytes, err := os.ReadFile(want)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(out); err != nil || !bytes.Equal(got, wantBytes) {
			t.Errorf("decompress -o %s: %d bytes (%v), SaveFile of core.Decompress makes %d", filepath.Base(out), len(got), err, len(wantBytes))
		}
		line := fmt.Sprintf("%s: packets=%d flows=%d bytes=%d tsh=%d dur=%s\n", out, tr.Len(), a.Flows(), size,
			tsh.Size(tr.Len()), tr.Duration().Round(time.Millisecond))
		if summary != line {
			t.Errorf("decompress printed %q, want %q", summary, line)
		}
	}
}
