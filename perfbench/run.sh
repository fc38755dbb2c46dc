#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload paper-ref --seed 1 --seconds 30 --trace 0
#
# Every build and run artefact (Go build cache, temp files, the binary,
# span dumps, simd store directories) goes under .bench_build at the
# checkout root. The build fails, and the script exits non-zero without
# printing a result, when the simulator's sources are not present.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
work="$root/.bench_build"
mkdir -p "$work/gocache" "$work/gomodcache" "$work/tmp"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" GOPATH="$work/gopath"
export GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOENV=off
(cd "$root/perfbench" && go build -o "$work/perfbench" .)
exec "$work/perfbench" --workdir "$work" "$@"
