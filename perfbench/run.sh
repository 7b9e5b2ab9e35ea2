#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload ingest-1d --seed 1 --seconds 12 --trace 0
#
# Everything it writes stays under .bench_build/ in the checkout: the Go
# build cache, the binary, scratch files, and Chrome traces.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
