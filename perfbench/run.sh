#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run from the repository root:
#
#   bash perfbench/run.sh --workload table12 --seed 2013 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and traced-run spans go under
# .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
