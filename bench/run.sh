#!/usr/bin/env bash
# Runs rxperf's own tests, then builds rxperf from this checkout's sources
# and runs it with the given flags:
#
#   bash bench/run.sh --workload paper-xen --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. bench/ is a Go module of its own, so the
# root module's `go test ./...` does not reach its tests; running them here
# means no benchmark result is printed unless they pass. Go caches a passing
# result, so only the first run in a checkout pays for them. Their output
# goes to standard error, leaving the report the last line of standard
# output. Every file the Go toolchain and the benchmark write (build and
# test cache, temporary files, the binary, trace output) stays under
# .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C bench test ./rxperf >&2
go -C bench build -o "$out/rxperf" ./rxperf
exec "$out/rxperf" -trace-dir "$out/rxperf-trace" "$@"
