#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload sweep-exact --seed 1 --seconds 18 --trace 0
#
# Run from the repository root. Every build artifact and cache stays under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOENV=off

go -C bench build -o "$out/mavfibench" .
exec "$out/mavfibench" "$@"
