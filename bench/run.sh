#!/usr/bin/env bash
# The command of BENCHMARK.json: build the benchmark from source, then run it
# with the arguments given. Run from the root of the repository. Everything
# the Go toolchain writes (build cache, temporary files, telemetry counters)
# is kept inside the checkout, under .bench_build/.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config \
GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	go build -C "$root/bench" -o "$build/flowzip-bench" .
exec "$build/flowzip-bench" "$@"
