// Package cli centralizes the flag definitions shared by the cmd/ binaries,
// so every command registers the same flag with the same help text and the
// same validation. The usage strings are generated from one template per
// flag — a command can neither drift from the canonical semantics nor omit
// the documented defaults.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"flowzip/internal/core"
	"flowzip/internal/dist"
	"flowzip/internal/flow"
)

// workersTemplate is the single source of the -workers help text. Every
// binary that exposes the flag renders its usage from this template, so the
// default semantics (0 = one shard per CPU, 1 = the serial pipeline) are
// documented identically everywhere.
const workersTemplate = "%s: 0 = one shard per CPU (default), 1 = the serial pipeline, at most %d"

// workersUsage renders the canonical -workers help text for the given
// purpose ("compression shards", ...).
func workersUsage(purpose string) string {
	return fmt.Sprintf(workersTemplate, purpose, flow.MaxShards)
}

// WorkersFlag registers the canonical -workers flag on fs.
func WorkersFlag(fs *flag.FlagSet, purpose string) *int {
	return fs.Int("workers", 0, workersUsage(purpose))
}

// ValidateWorkers rejects worker counts outside [0, flow.MaxShards] with the
// error message every command prints identically. core.NewPipeline rejects
// the same range; checking here first lets every verb fail before it opens
// its input, naming the flag.
func ValidateWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("-workers %d must be >= 0 (0 = one shard per CPU, 1 = serial)", n)
	}
	if n > flow.MaxShards {
		return fmt.Errorf("-workers %d exceeds the %d-shard partition bound", n, flow.MaxShards)
	}
	return nil
}

// Profile flag templates: the single source of the -cpuprofile/-memprofile
// help text, so every command documents the pprof flags identically.
const (
	cpuProfileTemplate = "write a pprof CPU profile of the %s to this file"
	memProfileTemplate = "write a pprof heap profile (taken after the %s) to this file"
)

// CPUProfileFlag registers the canonical -cpuprofile flag on fs.
func CPUProfileFlag(fs *flag.FlagSet, purpose string) *string {
	return fs.String("cpuprofile", "", fmt.Sprintf(cpuProfileTemplate, purpose))
}

// MemProfileFlag registers the canonical -memprofile flag on fs.
func MemProfileFlag(fs *flag.FlagSet, purpose string) *string {
	return fs.String("memprofile", "", fmt.Sprintf(memProfileTemplate, purpose))
}

// StartProfiles validates the profile destinations and starts CPU profiling.
// Empty paths disable the corresponding profile. Errors carry the flag name,
// like the other validators, so every command reports them identically. The
// returned stop function finishes the CPU profile and writes the heap
// profile; it must be called once, after the profiled work.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		cpuFile = f
	}
	if memPath != "" {
		// Fail before the work runs, not after: the heap profile is written
		// at stop time, but its destination must be creatable now. Open
		// without truncating, so a run that later dies before stop does not
		// destroy a previous run's profile.
		f, err := os.OpenFile(memPath, os.O_WRONLY|os.O_CREATE, 0o666)
		if err != nil {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
		f.Close()
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("-memprofile: %w", err)
			}
			runtime.GC() // materialize final live-set statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("-memprofile: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("-memprofile: %w", err)
			}
		}
		return nil
	}, nil
}

// Observability flag templates: the single source of the -trace-out,
// -metrics-addr and -pprof help text, so every command documents the
// observability surface identically.
const (
	traceOutTemplate    = "write a Chrome trace-event JSON file of the %s to this path (load it in Perfetto or chrome://tracing)"
	metricsAddrTemplate = "serve Prometheus text on this address at /metrics (empty = disabled)"
	pprofTemplate       = "also mount net/http/pprof and expvar under /debug on the metrics listener"
)

// TraceOutFlag registers the canonical -trace-out flag on fs. purpose names
// the traced work ("compression run", "extract query", ...).
func TraceOutFlag(fs *flag.FlagSet, purpose string) *string {
	return fs.String("trace-out", "", fmt.Sprintf(traceOutTemplate, purpose))
}

// MetricsAddrFlag registers the canonical metrics-endpoint flag on fs under
// the given flag name (the daemon predates the shared template and keeps its
// short -metrics spelling; newer verbs use -metrics-addr).
func MetricsAddrFlag(fs *flag.FlagSet, name string) *string {
	return fs.String(name, "", metricsAddrTemplate)
}

// PprofFlag registers the canonical -pprof flag on fs.
func PprofFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("pprof", false, pprofTemplate)
}

// ValidatePprof rejects -pprof without a metrics listener to mount it on.
func ValidatePprof(pprof bool, metricsAddr string) error {
	if pprof && metricsAddr == "" {
		return errors.New("-pprof requires a metrics address to serve /debug on")
	}
	return nil
}

// Net flag templates: the single source of the connection-timing help text.
// Both session endpoints (flowzipd, ingest) register the same two timeouts
// with the same semantics, feeding one dist.NetConfig.
const (
	frameTimeoutTemplate  = "timeout for one control-frame read/write on the %s connection"
	resultTimeoutTemplate = "timeout for the slow half of the exchange (%s)"
)

// NetFlags registers the canonical connection-timing flags (-frame-timeout,
// -result-timeout) on fs and returns a builder for the resulting
// dist.NetConfig. purpose names the connection ("session", "daemon") and
// slowHalf describes what the result timeout waits for ("the session's next
// batch", ...).
func NetFlags(fs *flag.FlagSet, purpose, slowHalf string) func() dist.NetConfig {
	frame := fs.Duration("frame-timeout", dist.DefaultFrameTimeout,
		fmt.Sprintf(frameTimeoutTemplate, purpose))
	result := fs.Duration("result-timeout", dist.DefaultResultTimeout,
		fmt.Sprintf(resultTimeoutTemplate, slowHalf))
	return func() dist.NetConfig {
		return dist.NetConfig{FrameTimeout: *frame, ResultTimeout: *result}
	}
}

// ValidateNet rejects connection-timing knobs the endpoints reject, with the
// error message every command prints identically. Beyond the library's
// non-negativity rule, the command line also rejects zero timeouts: a zero
// means "default" programmatically, but `-frame-timeout 0` at the shell is a
// misconfiguration, not a request for 30s.
func ValidateNet(nc dist.NetConfig) error {
	if nc.FrameTimeout <= 0 {
		return fmt.Errorf("-frame-timeout %v must be > 0", nc.FrameTimeout)
	}
	if nc.ResultTimeout <= 0 {
		return fmt.Errorf("-result-timeout %v must be > 0", nc.ResultTimeout)
	}
	return nc.Validate()
}

// windowTemplate is the single source of the -window help text: the session
// endpoints (flowzipd, ingest) document the credit window identically.
const windowTemplate = "credit window: batches %s keeps in flight before waiting for acks, in [1,%d]; 1 = stop-and-wait, 0 = the default (%d); the effective window is the smaller of the client's and the daemon's"

// WindowFlag registers the canonical -window flag on fs. purpose names the
// windowed peer ("each session", "the ingest stream", ...).
func WindowFlag(fs *flag.FlagSet, purpose string) *int {
	return fs.Int("window", 0,
		fmt.Sprintf(windowTemplate, purpose, dist.MaxWindow, dist.DefaultWindow))
}

// ValidateWindow rejects credit windows outside [0, dist.MaxWindow] with the
// error message every command prints identically. 0 means the default; the
// library clamps oversized windows, but at the shell an oversized request is
// a misconfiguration and is rejected rather than silently shrunk.
func ValidateWindow(n int) error {
	if n < 0 {
		return fmt.Errorf("-window %d must be >= 0 (0 = the default %d, 1 = stop-and-wait)", n, dist.DefaultWindow)
	}
	if n > dist.MaxWindow {
		return fmt.Errorf("-window %d exceeds the %d-batch bound", n, dist.MaxWindow)
	}
	return nil
}

// RotationFlags registers the canonical daemon archive-rotation flags
// (-rotate-packets, -rotate-age) on fs.
func RotationFlags(fs *flag.FlagSet) (maxPackets *int64, maxAge *time.Duration) {
	maxPackets = fs.Int64("rotate-packets", 0,
		"rotate a session's archive after this many packets (0 = never)")
	maxAge = fs.Duration("rotate-age", 0,
		"rotate a session's archive after this much wall time (0 = never)")
	return maxPackets, maxAge
}

// ValidateRotation rejects negative rotation bounds.
func ValidateRotation(maxPackets int64, maxAge time.Duration) error {
	if maxPackets < 0 {
		return fmt.Errorf("-rotate-packets %d must be >= 0", maxPackets)
	}
	if maxAge < 0 {
		return fmt.Errorf("-rotate-age %v must be >= 0", maxAge)
	}
	return nil
}

// maxResidentTemplate is the single source of the -maxresident help text
// (the flag package appends the default value itself).
const maxResidentTemplate = "streaming: max packets resident in the pipeline; the source batch rides on top"

// MaxResidentFlag registers the canonical -maxresident flag on fs.
func MaxResidentFlag(fs *flag.FlagSet) *int {
	return fs.Int("maxresident", core.DefaultMaxResident, maxResidentTemplate)
}

// ValidateMaxResident rejects non-positive residency windows.
func ValidateMaxResident(n int) error {
	if n < 1 {
		return fmt.Errorf("-maxresident %d must be >= 1", n)
	}
	return nil
}
