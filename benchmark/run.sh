#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run it from the repository root:
#
#	bash benchmark/run.sh --workload table-mid --seed 1 --seconds 25 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config/go/telemetry" "$out/gopath"
echo off > "$out/config/go/telemetry/mode" # no telemetry counters or child processes
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off
(cd "$root/benchmark" && go build -o "$out/repobench" .)
exec "$out/repobench" -root "$root" -out "$out/results" "$@"
