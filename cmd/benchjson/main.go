// Command benchjson converts `go test -bench` text output into a JSON
// document, so CI can publish benchmark numbers (e.g. the ingest data
// plane's packets/sec) as machine-readable artifacts that a perf
// trajectory can be plotted from.
//
// Usage:
//
//	go test -bench . ./internal/netbench | benchjson -o BENCH_ingest.json
//	benchjson -i bench.txt -o bench.json
//	benchjson -prom -i http://localhost:9101/metrics -o daemon.json
//
// Standard benchmark lines parse into {name, iterations, metrics}; the
// goos/goarch/pkg/cpu preamble becomes the environment block. Unrecognized
// lines are ignored, so piping a whole `go test` run in is fine.
//
// With -prom the input is Prometheus text exposition instead — the format
// flowzipd serves on /metrics — and each sample becomes {name, labels,
// value} in the report's "samples" array, so the daemon's session and
// rotation counters publish through the same JSON artifact pipeline as the
// benchmark numbers. Histogram families (the daemon's batch and segment
// latencies) are folded into the "histograms" array: cumulative buckets in
// exposition order plus the _sum and _count samples. -strict additionally
// lints the page — every family needs # HELP and # TYPE, histogram buckets
// must be cumulative and end at +Inf — so CI can validate a live scrape.
// An -i starting with http:// or https:// is fetched.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"

	"flowzip/internal/promtext"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the document benchjson emits. Samples and Histograms are the
// -prom mode payload (internal/promtext does the parsing).
type Report struct {
	Environment map[string]string     `json:"environment,omitempty"`
	Benchmarks  []Benchmark           `json:"benchmarks,omitempty"`
	Samples     []promtext.Sample     `json:"samples,omitempty"`
	Histograms  []*promtext.Histogram `json:"histograms,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	in := flag.String("i", "", "input file or, with -prom, a http(s):// metrics URL (default stdin)")
	out := flag.String("o", "", "output file (default stdout)")
	prom := flag.Bool("prom", false, "parse Prometheus text exposition (flowzipd /metrics) instead of bench output")
	strict := flag.Bool("strict", false, "with -prom: lint the exposition (HELP/TYPE headers, well-formed histograms) and fail on violations")
	flag.Parse()
	if *strict && !*prom {
		log.Fatal("-strict requires -prom")
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		if *prom && (strings.HasPrefix(*in, "http://") || strings.HasPrefix(*in, "https://")) {
			resp, err := http.Get(*in)
			if err != nil {
				log.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				log.Fatalf("%s: %s", *in, resp.Status)
			}
			r = resp.Body
		} else {
			f, err := os.Open(*in)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			r = f
		}
	}
	var report *Report
	var err error
	if *prom {
		report, err = parsePromStrict(r, *strict)
	} else {
		report, err = parse(r)
	}
	if err != nil {
		log.Fatal(err)
	}
	if !*prom && len(report.Benchmarks) == 0 {
		log.Fatal("no benchmark lines found in input")
	}
	if *prom && len(report.Samples) == 0 && len(report.Histograms) == 0 {
		log.Fatal("no Prometheus samples found in input")
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		log.Fatal(err)
	}
}

// parse scans bench output. A benchmark line is
//
//	BenchmarkName[-P]  <iterations>  (<value> <unit>)+
//
// and the preamble lines are "key: value" pairs (goos, goarch, pkg, cpu).
func parse(r io.Reader) (*Report, error) {
	report := &Report{Environment: map[string]string{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line); ok {
				report.Benchmarks = append(report.Benchmarks, b)
			}
		case strings.HasPrefix(line, "goos:"),
			strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"),
			strings.HasPrefix(line, "cpu:"):
			key, val, _ := strings.Cut(line, ":")
			report.Environment[key] = strings.TrimSpace(val)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading input: %w", err)
	}
	return report, nil
}

func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	// Name, iterations and at least one value/unit pair.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{
		Name:       stripProcsSuffix(fields[0]),
		Iterations: iters,
		Metrics:    map[string]float64{},
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

// parseProm scans Prometheus text exposition (version 0.0.4, the format
// flowzipd's /metrics serves) via internal/promtext: counter and gauge
// lines become samples, TYPE-histogram families fold into histograms.
// Lines that do not parse are an error — unlike bench output, a metrics
// page has no legitimate unrecognized lines.
func parseProm(r io.Reader) (*Report, error) {
	return parsePromStrict(r, false)
}

func parsePromStrict(r io.Reader, strict bool) (*Report, error) {
	res, err := promtext.Parse(r, strict)
	if err != nil {
		return nil, err
	}
	return &Report{Samples: res.Samples, Histograms: res.Histograms}, nil
}

// parsePromLine parses a single sample line (test seam over the shared
// parser).
func parsePromLine(line string) (promtext.Sample, error) {
	res, err := promtext.Parse(strings.NewReader(line), false)
	if err != nil {
		return promtext.Sample{}, err
	}
	if len(res.Samples) != 1 {
		return promtext.Sample{}, fmt.Errorf("want one sample in %q", line)
	}
	return res.Samples[0], nil
}

// stripProcsSuffix removes the trailing -GOMAXPROCS that `go test` appends
// (BenchmarkX-8 -> BenchmarkX). Only a final all-digit segment is cut, so
// dashes inside benchmark or sub-benchmark names survive intact.
func stripProcsSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
