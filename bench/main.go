// Command bench is flowzip's benchmark: capture file or ingest socket in,
// .fz archive on disk, packets read back out, on four workloads that each
// lean on a different layer. See README.md.
//
//	go run . -seed 1 -out result.json            every workload, both passes
//	go run . -workload web -seed 1 -trace 0      one workload, bounded end-to-end metrics
//	go run . -workload web -seed 1 -trace 1      one workload, unbounded and per-layer metrics
//	go run . -selfcheck                          A/A check of the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"

	"flowzip/internal/obs"
)

const conditions = "closed loop, one client process; client and daemon share the process and ingest traffic crosses the loopback interface; " +
	"capture and archive files are read back from the page cache; tracing is off for end-to-end metrics"

func main() {
	var (
		name      = flag.String("workload", "", "run only this workload and print the result line the benchmark driver reads")
		seed      = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", 20, "nominal measured seconds per workload; sets the number of rounds (seconds/2) and of traced repetitions (seconds/6)")
		trace     = flag.Int("trace", 0, "with -workload: 0 reports the bounded end-to-end metrics, 1 also runs the traced pass and reports the unbounded and per-layer metrics")
		out       = flag.String("out", "", "write the full result (quartiles, sample counts) to this JSON file")
		traceOut  = flag.String("trace-out", "", "write the traced pass as a Perfetto/Chrome trace to this file")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end set as A B A B A B and compare the two sides against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		os.Exit(2)
	}
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)

	code, err := run(*name, *seed, *seconds, *trace, *out, *traceOut, *selfcheck, procs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(name string, seed uint64, seconds float64, trace int, out, traceOut string, selfcheck bool, procs int) (int, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return 1, err
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(scratch)
	cfg := newRunConfig(seed, seconds, scratch)

	switch {
	case selfcheck:
		return selfCheck(cfg)
	case name != "":
		w, ok := workloadByName(name)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", name)
		}
		return runOne(w, cfg, trace == 1, traceOut)
	default:
		return runAll(cfg, out, traceOut, procs)
	}
}

// driverLine is the one JSON object the benchmark driver reads from the last
// line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload for the driver. Both passes run the end-to-end
// rounds, with tracing off; -trace 0 reports the bounded metrics from them,
// -trace 1 the unbounded ones and, from the traced pass that follows, the
// staged per-layer metrics.
func runOne(w workload, cfg runConfig, layers bool, traceOut string) (int, error) {
	res, err := runEndToEnd(w, cfg)
	if err != nil {
		return 1, err
	}
	fmt.Printf("%s\n%s: %d packets in %d flows, %d measured rounds in %.1f s\n", conditions, w.name, res.Packets, res.Flows, res.Rounds, res.MeasuredS)
	printMetrics(endToEnd, res.Metrics)
	printMetrics(unbounded, res.Metrics)
	line := driverLine{Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	metrics, defs := res.Metrics, endToEnd
	if layers && res.Failed == 0 {
		tracer := obs.NewTracer("flowzip bench")
		lres, err := runLayers(w, cfg, tracer, 1)
		if err != nil {
			return 1, err
		}
		if traceOut != "" {
			if err := tracer.WriteFile(traceOut); err != nil {
				return 1, err
			}
		}
		fmt.Printf("%s: traced pass, %d repetitions\n", w.name, lres.Repetitions)
		printMetrics(staged, lres.Metrics)
		line.Attempted, line.Failed = line.Attempted+lres.Attempted, line.Failed+lres.Failed
		for name, v := range lres.Metrics {
			metrics[name] = v
		}
		defs = perLayer
	}
	line.Correct = line.Failed == 0
	if line.Correct {
		for _, d := range defs {
			v, ok := metrics[d.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				return 1, fmt.Errorf("%s: metric %s was not measured", w.name, d.Name)
			}
			line.Metrics[d.Name] = driverValue{Value: v.Value, Unit: v.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1, fmt.Errorf("%s: %d of %d operations failed", w.name, line.Failed, line.Attempted)
	}
	return 0, nil
}

func printMetrics(defs []metricDef, m map[string]value) {
	for _, d := range defs {
		v := m[d.Name]
		fmt.Printf("  %-38s %14.6g %-8s q1 %-12.6g q3 %-12.6g n=%d\n", d.Name, v.Value, v.Unit, v.Q1, v.Q3, v.N)
	}
}

// report is the -out file of a full run.
type report struct {
	Seed       uint64         `json:"seed"`
	GoMaxProcs int            `json:"gomaxprocs"`
	Conditions string         `json:"conditions"`
	EndToEnd   []*result      `json:"end_to_end"`
	PerLayer   []*layerResult `json:"per_layer"`
}

func runAll(cfg runConfig, out, traceOut string, procs int) (int, error) {
	fmt.Printf("flowzip bench: seed %d, GOMAXPROCS %d\n%s\n", cfg.seed, procs, conditions)
	rep := report{Seed: cfg.seed, GoMaxProcs: procs, Conditions: conditions}
	failed := 0
	for _, w := range workloads {
		res, err := runEndToEnd(w, cfg)
		if err != nil {
			return 1, err
		}
		fmt.Printf("\n%s: %d packets in %d flows; %d measured rounds in %.1f s; %d operations, %d failed\n",
			w.name, res.Packets, res.Flows, res.Rounds, res.MeasuredS, res.Attempted, res.Failed)
		printMetrics(endToEnd, res.Metrics)
		printMetrics(unbounded, res.Metrics)
		failed += res.Failed
		rep.EndToEnd = append(rep.EndToEnd, res)
	}
	tracer := obs.NewTracer("flowzip bench")
	for i, w := range workloads {
		res, err := runLayers(w, cfg, tracer, int64(i+1))
		if err != nil {
			return 1, err
		}
		fmt.Printf("\n%s: traced pass, %d repetitions; %d operations, %d failed\n", w.name, res.Repetitions, res.Attempted, res.Failed)
		printMetrics(staged, res.Metrics)
		failed += res.Failed
		rep.PerLayer = append(rep.PerLayer, res)
	}
	if traceOut != "" {
		if err := tracer.WriteFile(traceOut); err != nil {
			return 1, err
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return 1, err
		}
	}
	if failed > 0 {
		return 1, fmt.Errorf("%d operations failed", failed)
	}
	return 0, nil
}

// selfCheck runs the end-to-end pass six times on identical code and inputs,
// alternating two labels, and holds the gap between the sides' medians
// against each metric's bound: a bound is only worth having if two runs of
// the same thing stay inside it. The unbounded metrics are listed too, with
// the 10% bound ISSUE 12 meant them to have, but do not fail the check.
func selfCheck(cfg runConfig) (int, error) {
	const runs = 6
	sides := [2]map[string][]float64{{}, {}} // "workload/metric" -> one value per run
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			res, err := runEndToEnd(w, cfg)
			if err != nil {
				return 1, err
			}
			if res.Failed > 0 {
				return 1, fmt.Errorf("%s: %d operations failed", w.name, res.Failed)
			}
			for name, v := range res.Metrics {
				key := w.name + "/" + name
				sides[i%2][key] = append(sides[i%2][key], v.Value)
			}
			fmt.Fprintf(os.Stderr, "selfcheck: run %d/%d (%c) %s done\n", i+1, runs, 'A'+i%2, w.name)
		}
	}
	const intendedTimingBound = 0.10
	fmt.Printf("| workload | metric | unit | A median | B median | gap | bound | |\n|---|---|---|---|---|---|---|---|\n")
	over := 0
	for _, w := range workloads {
		for _, d := range append(append([]metricDef(nil), endToEnd...), unbounded...) {
			a, b := median(sides[0][w.name+"/"+d.Name]), median(sides[1][w.name+"/"+d.Name])
			gap := math.Abs(b-a) / a
			bound, label, note := d.Bound, fmt.Sprintf("%.3g%%", 100*d.Bound), ""
			if bound == 0 {
				bound, label = intendedTimingBound, "none (10%)"
			}
			switch {
			case gap > bound && d.Bound > 0:
				note = "OVER BOUND"
				over++
			case gap > bound:
				note = "over 10%"
			case gap > bound/2:
				note = "over half"
			}
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %.2f%% | %s | %s |\n", w.name, d.Name, d.Unit, a, b, 100*gap, label, note)
		}
	}
	if over > 0 {
		return 1, fmt.Errorf("selfcheck: %d metrics moved more than their bound between identical runs", over)
	}
	return 0, nil
}
