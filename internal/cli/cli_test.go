package cli

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flowzip/internal/dist"
)

// TestNetFlags pins the shared connection-timing flag pair: canonical names,
// library defaults and per-verb purpose strings.
func TestNetFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	build := NetFlags(fs, "daemon", "the daemon's cumulative ack")
	for name, want := range map[string]string{
		"frame-timeout":  "daemon",
		"result-timeout": "cumulative ack",
	} {
		f := fs.Lookup(name)
		if f == nil {
			t.Fatalf("-%s not registered", name)
		}
		if !strings.Contains(f.Usage, want) {
			t.Errorf("-%s usage %q missing %q", name, f.Usage, want)
		}
	}
	// Unparsed flags yield the library defaults, so a verb that never
	// overrides them behaves exactly like the zero NetConfig.
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	want := dist.NetConfig{FrameTimeout: dist.DefaultFrameTimeout, ResultTimeout: dist.DefaultResultTimeout}
	if nc := build(); nc != want {
		t.Errorf("defaults = %+v, want %+v", nc, want)
	}

	// Parsed values come through.
	fs = flag.NewFlagSet("x", flag.ContinueOnError)
	build = NetFlags(fs, "session", "the session's next batch")
	if err := fs.Parse([]string{"-frame-timeout", "5s", "-result-timeout", "2m"}); err != nil {
		t.Fatal(err)
	}
	if nc := build(); nc.FrameTimeout != 5*time.Second || nc.ResultTimeout != 2*time.Minute {
		t.Errorf("parsed = %+v", nc)
	}
}

// TestValidateNet: the command line is stricter than the library — zero
// timeouts mean "default" programmatically but are misconfigurations when
// typed at the shell. Every other range (negative timeouts, the window's
// bound) is dist.NetConfig.Validate's, which the endpoints run, and passes
// here untouched.
func TestValidateNet(t *testing.T) {
	for name, nc := range map[string]dist.NetConfig{
		"good":                   {FrameTimeout: time.Second, ResultTimeout: time.Minute},
		"negative frame timeout": {FrameTimeout: -time.Second, ResultTimeout: time.Minute},
		"window over the bound":  {FrameTimeout: time.Second, ResultTimeout: time.Minute, Window: dist.MaxWindow + 1},
	} {
		if err := ValidateNet(nc); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
	}
	for name, nc := range map[string]dist.NetConfig{
		"zero frame timeout":  {FrameTimeout: 0, ResultTimeout: time.Minute},
		"zero result timeout": {FrameTimeout: time.Second, ResultTimeout: 0},
	} {
		if err := ValidateNet(nc); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestRotationFlags pins the daemon rotation knobs' names, disabled defaults
// and parsing; server.New refuses negatives.
func TestRotationFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	maxPackets, maxAge := RotationFlags(fs)
	for _, name := range []string{"rotate-packets", "rotate-age"} {
		f := fs.Lookup(name)
		if f == nil {
			t.Fatalf("-%s not registered", name)
		}
		if f.DefValue != "0" && f.DefValue != "0s" {
			t.Errorf("-%s default %q, want disabled", name, f.DefValue)
		}
	}
	if err := fs.Parse([]string{"-rotate-packets", "1000000", "-rotate-age", "1h"}); err != nil {
		t.Fatal(err)
	}
	if *maxPackets != 1_000_000 || *maxAge != time.Hour {
		t.Errorf("parsed packets=%d age=%v", *maxPackets, *maxAge)
	}
}

// TestProfileFlags pins the pprof flag templates: canonical names, empty
// defaults, and help text naming the profiled phase.
func TestProfileFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	CPUProfileFlag(fs, "compression")
	MemProfileFlag(fs, "compression")
	for _, name := range []string{"cpuprofile", "memprofile"} {
		f := fs.Lookup(name)
		if f == nil {
			t.Fatalf("-%s not registered", name)
		}
		if f.DefValue != "" {
			t.Errorf("-%s default %q, want empty (disabled)", name, f.DefValue)
		}
		if !strings.Contains(f.Usage, "pprof") || !strings.Contains(f.Usage, "compression") {
			t.Errorf("-%s usage %q must mention pprof and the profiled phase", name, f.Usage)
		}
	}
}

// TestStartProfilesWritesBoth runs a profiled section and checks both files
// come out non-empty (pprof output is gzipped protobuf; non-emptiness is the
// portable assertion).
func TestStartProfilesWritesBoth(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	stop, err := StartProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	// A little work so the CPU profile has something to sample.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestStartProfilesDisabled: empty paths are a no-op that still returns a
// callable stop.
func TestStartProfilesDisabled(t *testing.T) {
	stop, err := StartProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStartProfilesRejectsBadPaths: unwritable destinations fail up front —
// before the profiled work — with errors naming the flag, for both profiles.
func TestStartProfilesRejectsBadPaths(t *testing.T) {
	dir := t.TempDir()
	if _, err := StartProfiles(filepath.Join(dir, "missing", "cpu.out"), ""); err == nil {
		t.Error("bad -cpuprofile path accepted")
	} else if !strings.Contains(err.Error(), "-cpuprofile") {
		t.Errorf("error %q does not name -cpuprofile", err)
	}
	if _, err := StartProfiles("", filepath.Join(dir, "missing", "mem.out")); err == nil {
		t.Error("bad -memprofile path accepted")
	} else if !strings.Contains(err.Error(), "-memprofile") {
		t.Errorf("error %q does not name -memprofile", err)
	}
	// A bad -memprofile must also unwind an already-started CPU profile so
	// the caller can retry; starting again proves it was stopped.
	cpu := filepath.Join(dir, "cpu.out")
	if _, err := StartProfiles(cpu, filepath.Join(dir, "missing", "mem.out")); err == nil {
		t.Fatal("bad -memprofile path accepted alongside a good -cpuprofile")
	}
	stop, err := StartProfiles(cpu, "")
	if err != nil {
		t.Fatalf("CPU profiling was not unwound after -memprofile failure: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestWindowFlag pins the credit-window flag's canonical name, default and
// generated help text: both bounds and the stop-and-wait special value must
// be documented wherever the flag is registered.
func TestWindowFlag(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	w := WindowFlag(fs, "each session")
	f := fs.Lookup("window")
	if f == nil {
		t.Fatal("WindowFlag did not register -window")
	}
	if *w != 0 {
		t.Errorf("default window %d, want 0 (= library default)", *w)
	}
	for _, want := range []string{"each session", "stop-and-wait",
		"1024", "32"} {
		if !strings.Contains(f.Usage, want) {
			t.Errorf("-window usage %q does not mention %q", f.Usage, want)
		}
	}
}
