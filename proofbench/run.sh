#!/usr/bin/env bash
# Builds the proof benchmark from the source in this checkout and runs it.
# Run from the root of the checkout:
#
#   bash proofbench/run.sh --workload theorem1_n4 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary and the run's temporary files.
# The build fails, and nothing is printed on standard output, when the
# module this benchmark measures is not beside it.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd proofbench && go build -o "$build/proofbench" .)
exec "$build/proofbench" "$@"
