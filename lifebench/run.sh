#!/usr/bin/env bash
# Builds the lifecycle benchmark from this checkout's sources and runs
# it with the given arguments, e.g.
#
#   bash lifebench/run.sh --workload crater --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and the binary all stay under .bench_build in the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/lifebench" ./lifebench
exec "$build/lifebench" "$@"
