package flowzip_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"flowzip"
)

// generatorTraces builds one modest trace per synthetic workload — Web,
// Fractal and P2P — so the shared-template property is checked against every
// traffic model the paper and its future-work section define, not just the
// template-heavy Web mix.
func generatorTraces(t *testing.T) map[string]*flowzip.Trace {
	t.Helper()
	web := flowzip.DefaultWebConfig()
	web.Seed = 2
	web.Flows = 900
	web.Duration = 10 * time.Second

	frac := flowzip.DefaultFractalConfig()
	frac.Seed = 5
	frac.Packets = 15000

	p2p := flowzip.DefaultP2PConfig()
	p2p.Seed = 8
	p2p.Flows = 700
	p2p.Peers = 60
	p2p.Duration = 8 * time.Second

	traces := map[string]*flowzip.Trace{
		"web":     flowzip.GenerateWeb(web),
		"fractal": flowzip.GenerateFractal(frac),
		"p2p":     flowzip.GenerateP2P(p2p),
	}
	for name, tr := range traces {
		if !tr.IsSorted() {
			tr.Sort()
		}
		if tr.Len() == 0 {
			t.Fatalf("%s generator produced an empty trace", name)
		}
	}
	return traces
}

func archiveBytes(t *testing.T, a *flowzip.Archive) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSharedTemplatesEquivalence is the tentpole acceptance property over
// the public API: with SharedTemplates on, the parallel and streaming
// pipelines must produce archives byte-for-byte identical to serial
// Compress for Web, Fractal and P2P traffic at 1, 2, 4 and 8 workers. Run
// under -race this also exercises the snapshot publication for data races.
func TestSharedTemplatesEquivalence(t *testing.T) {
	for name, tr := range generatorTraces(t) {
		t.Run(name, func(t *testing.T) {
			serial, err := flowzip.Compress(tr, flowzip.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			want := archiveBytes(t, serial)
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					var pst flowzip.ParallelStats
					par, err := compressTrace(tr,
						flowzip.Config{Workers: workers, SharedTemplates: true, Stats: &pst})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(want, archiveBytes(t, par)) {
						t.Error("shared parallel archive differs from serial")
					}

					var sst flowzip.ParallelStats
					arch, err := compressStream(flowzip.TraceSource(tr, 777),
						flowzip.Config{Workers: workers, SharedTemplates: true, Stats: &sst})
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(want, archiveBytes(t, arch)) {
						t.Error("shared streaming archive differs from serial")
					}
					// One worker is the serial Compressor on either input:
					// there is no snapshot to consult.
					if workers == 1 && pst.SharedLookups+sst.SharedLookups != 0 {
						t.Errorf("one-worker runs consulted a shared store: %d trace, %d stream lookups",
							pst.SharedLookups, sst.SharedLookups)
					}
					if workers > 1 && sst.SharedLookups == 0 {
						t.Error("streaming pipeline never consulted the shared store")
					}
				})
			}
		})
	}
}

// TestSharedTemplatesStatsSplit checks the public stats contract: the
// shared/overflow split covers exactly the short flows, and the snapshot
// absorbs Match traffic on the template-heavy Web workload.
func TestSharedTemplatesStatsSplit(t *testing.T) {
	cfg := flowzip.DefaultWebConfig()
	cfg.Seed = 3
	cfg.Flows = 1200
	cfg.Duration = 10 * time.Second
	tr := flowzip.GenerateWeb(cfg)

	var plain, shared flowzip.ParallelStats
	if _, err := compressTrace(tr, flowzip.Config{Workers: 4, Stats: &plain}); err != nil {
		t.Fatal(err)
	}
	if _, err := compressTrace(tr, flowzip.Config{Workers: 4, SharedTemplates: true, Stats: &shared}); err != nil {
		t.Fatal(err)
	}
	if got := shared.SharedFlows + shared.OverflowFlows; got != plain.OverflowFlows {
		t.Errorf("shared %d + overflow %d = %d flows, want the %d short flows",
			shared.SharedFlows, shared.OverflowFlows, got, plain.OverflowFlows)
	}
	if shared.SharedFlows == 0 {
		t.Error("no snapshot hits on a template-heavy Web trace")
	}
	if shared.MergeMatchCalls >= plain.MergeMatchCalls {
		t.Errorf("merge Match calls did not drop: %d shared vs %d plain",
			shared.MergeMatchCalls, plain.MergeMatchCalls)
	}
}
