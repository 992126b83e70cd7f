package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
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
