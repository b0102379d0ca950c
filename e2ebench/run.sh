#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash e2ebench/run.sh --workload hot-wire --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and temporary files stay in
# .bench_build/ under the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C e2ebench build -o "$build/e2ebench" .
exec "$build/e2ebench" "$@"
