package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"flowzip/internal/flowgen"
	"flowzip/internal/trace"
)

// stdoutOf runs fn with os.Stdout redirected and returns what it printed.
// The verbs exit the process on error, so a failure inside fn fails the test
// binary rather than returning.
func stdoutOf(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	fn()
	os.Stdout = saved
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
	stdoutOf(t, func() { runCompress([]string{"-i", in, "-o", fz, "-index", "-workers", "1"}) })

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
// container version, their size, their sections — not what re-encoding the
// decoded archive would produce. A version 2 file (the golden one the last
// version 2 encoder wrote) is far larger than its archive's version 6 form,
// which is the size inspect used to show for it.
func TestInspectReportsTheFile(t *testing.T) {
	const v2 = "../../internal/core/testdata/golden/v2.fz"
	fi, err := os.Stat(v2)
	if err != nil {
		t.Fatal(err)
	}
	out := stdoutOf(t, func() { runInspect([]string{"-i", v2}) })
	if got := inspectField(t, out, "container version"); got != "2" {
		t.Errorf("v2.fz: container version %s", got)
	}
	if got := inspectField(t, out, "file bytes"); got != fmt.Sprint(fi.Size()) {
		t.Errorf("v2.fz: file bytes %s, the file has %d", got, fi.Size())
	}
	if got := inspectField(t, out, "index groups"); got != "13" {
		t.Errorf("v2.fz: index groups %s, want 13", got)
	}

	dir := t.TempDir()
	in, fz := filepath.Join(dir, "web.tsh"), filepath.Join(dir, "web.fz")
	cfg := flowgen.DefaultWebConfig()
	cfg.Flows = 400
	if err := flowgen.Web(cfg).SaveFile(in); err != nil {
		t.Fatal(err)
	}
	summary := stdoutOf(t, func() { runCompress([]string{"-i", in, "-o", fz, "-index", "-workers", "1"}) })
	if fi, err = os.Stat(fz); err != nil {
		t.Fatal(err)
	}
	out = stdoutOf(t, func() { runInspect([]string{"-i", fz}) })
	if got := inspectField(t, out, "container version"); got != "6" {
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
// columns. Shares sum to one; a column of the golden version 6 file, whose
// runs are all bits, is Huffman- or class-coded (a template column table by
// table, so possibly both) and sits between its entropy and what the version
// 2 layout spent on it, the address column over the symbols it writes (so at
// most what version 2 spent, and its entropy at most that of the indexes), a
// template column's entropy under its contexts at most its order-0 entropy,
// which version 2 reports; a version 6 template column has a table per
// context, any other column one; an indexed version 6 file adds the footer's
// columns — template offsets, group entries and postings, with the two
// new-template counts where the header flags the new-template symbols — each
// of one table. In a version 6 file whose long templates' f values
// go through an rANS state, that column is coded rans, and the flushes of
// those runs have a row of their own.
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
	template := map[string]bool{"short template value": true, "long template value": true, "long template gap": true}
	v2 := columns("../../internal/core/testdata/golden/v2.fz", 7)
	v6i := columns("../../internal/core/testdata/golden/v6-indexed.fz", 16)
	for name, old := range v2 {
		now := v6i[name]
		if old[3] != "raw" && old[3] != "uvarint" || old[4] != "0" || old[5] != "0" {
			t.Errorf("v2.fz %s: coding %s with %s tables of %s bytes", name, old[3], old[4], old[5])
		}
		lower := name == "time-seq address" || template[name]
		if now == nil || now[0] != old[0] || now[2] != old[2] && (!lower || num(now[2]) > num(old[2])) {
			t.Errorf("%s: version 6 holds %v, version 2 %v: the same archive has other values", name, now, old)
			continue
		}
		if now[3] != "huffman" && now[3] != "class" && now[3] != "none" && (now[3] != "mixed" || !template[name]) {
			t.Errorf("v6-indexed.fz %s: coding %s", name, now[3])
		}
		if tables := num(now[4]); tables < 1 || tables > 1 && !template[name] {
			t.Errorf("v6-indexed.fz %s: %d tables", name, tables)
		}
		if written, entropy := num(now[1]), num(now[2]); written+1 < entropy || written > num(old[1]) {
			t.Errorf("%s: %d bytes as written, entropy %d, version 2 wrote %d", name, written, entropy, num(old[1]))
		}
	}
	for _, name := range []string{"short template offset", "long template offset", "group offset", "group first timestamp",
		"group timestamp span", "group new addresses", "postings length", "postings first group (prediction 1: fresh group)", "postings group gap"} {
		if v6i[name] == nil || v2[name] != nil || v6i[name][4] != "1" {
			t.Errorf("%s: a row for v6-indexed.fz %v, for v2.fz %v", name, v6i[name], v2[name])
		}
	}
	const bulk = "../../internal/core/testdata/golden/v6-bulk-indexed.fz"
	v6 := columns(bulk, 18)
	for name, col := range v6 {
		if rans := name == "long template value"; (col[3] == "rans") != rans {
			t.Errorf("v6-bulk-indexed.fz %s: coding %s", name, col[3])
		}
	}
	// The footer names the prediction its postings' first groups are coded
	// from. The tag row says where the header flags the new-template symbols.
	for file, names := range map[string][]string{
		bulk: {"postings first group (prediction 0: previous list's)", "time-seq template tag (flag: new-template symbols)",
			"group new short templates", "group new long templates"},
		"../../internal/core/testdata/golden/v6-indexed.fz": {"postings first group (prediction 1: fresh group)", "time-seq template tag"},
	} {
		want := len(v6i)
		if file == bulk {
			want = len(v6)
		}
		cols := columns(file, want)
		for _, name := range names {
			if cols[name] == nil {
				t.Errorf("%s: no %q row", file, name)
			}
		}
	}
	if out := stdoutOf(t, func() { runInspect([]string{"-i", bulk, "-explain"}) }); !regexp.MustCompile(`(?m)^\s+rans flush\s+\d+\s+[\d.]+\s*$`).MatchString(out) {
		t.Errorf("v6-bulk-indexed.fz: no rans flush row:\n%s", out)
	}
}
