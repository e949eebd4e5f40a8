#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout:
#
#   bash benchmark/run.sh --workload hot-repeat --seed 1 --seconds 12 --trace 0
#
# Everything written — the Go build cache, the binary, temp data
# directories, trace files — stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
SKYBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export SKYBENCH_COMMIT
# HOME moves too: the go command keeps its module cache and telemetry
# counters under it.
export HOME="$build/home" TMPDIR="$build/tmp" GOCACHE="$build/gocache"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
unset XDG_CONFIG_HOME XDG_CACHE_HOME GOPATH GOMODCACHE
go build -C "$root/benchmark" -o "$build/skybench" .
exec "$build/skybench" "$@"
