#!/usr/bin/env bash
# Builds certsqld and the benchmark from this checkout, then runs one
# workload. Run from the root of the checkout:
#
#   bash servebench/run.sh --workload hot|zipf|ingest|all --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off CGO_ENABLED=0

go build -o "$build/bin/certsqld" ./cmd/certsqld
(cd servebench && go build -o "$build/bin/servebench" .)
exec "$build/bin/servebench" "$@"
