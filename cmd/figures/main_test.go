package main

import (
	"bytes"
	"errors"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"flowzip/internal/core"
	"flowzip/internal/figures"
	"flowzip/internal/flowgen"
)

// numbers lists every number a figures run printed, in order.
var numbers = regexp.MustCompile(`-?[0-9]+(\.[0-9]+)?`)

// TestCaptureInput runs the memory study over a capture file, -i, holding the
// generated base trace of a small config: every number it prints is the
// generated run's. A capture out of timestamp order is refused.
func TestCaptureInput(t *testing.T) {
	const flows = "1500"
	cfg := figures.DefaultConfig()
	cfg.Flows = 1500
	base := flowgen.Web(cfg.WebConfig())
	in := filepath.Join(t.TempDir(), "base.tsh")
	if err := base.SaveFile(in); err != nil {
		t.Fatal(err)
	}

	var generated, capture bytes.Buffer
	if err := run([]string{"-fig", "2,3", "-flows", flows, "-ascii=false"}, &generated); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-fig", "2,3", "-i", in, "-ascii=false"}, &capture); err != nil {
		t.Fatal(err)
	}
	want := numbers.FindAllString(generated.String(), -1)
	got := numbers.FindAllString(capture.String(), -1)
	if len(want) < 100 || !slices.Equal(got, want) {
		t.Fatalf("-i printed %d numbers, the generated run %d:\n%s\nwant\n%s", len(got), len(want), capture.String(), generated.String())
	}

	for _, args := range [][]string{{"-fig", "1", "-i", in}, {"-fig", "2", "-i", in, "-flows", flows}} {
		if err := run(args, &capture); err == nil {
			t.Fatalf("%q ran: -i applies to figures 2, 3 and cache, and replaces the trace -flows sizes", args)
		}
	}

	base.Packets[10], base.Packets[11] = base.Packets[11], base.Packets[10]
	if base.Packets[10].Timestamp == base.Packets[11].Timestamp {
		t.Fatal("the swapped packets share a timestamp")
	}
	unsorted := filepath.Join(t.TempDir(), "unsorted.tsh")
	if err := base.SaveFile(unsorted); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-fig", "2", "-i", unsorted}, &capture); !errors.Is(err, core.ErrUnsorted) {
		t.Fatalf("a capture out of order gave %v, want %v", err, core.ErrUnsorted)
	}
}
