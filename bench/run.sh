#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ and runs it with the given flags.
# Run from the repository root, for example:
#
#   bash bench/run.sh --workload road-nearfar --seed 1 --seconds 20 --trace 0
#
# The Go build cache and temporary files stay under .bench_build/ too, so a
# run reads and writes nothing outside the checkout but the toolchain.
set -euo pipefail
root=$PWD
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/bench" build -o "$build/energysssp-bench" .
exec "$build/energysssp-bench" "$@"
