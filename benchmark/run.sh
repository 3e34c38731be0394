#!/usr/bin/env bash
# Entry point BENCHMARK.json names. Builds the benchmark from source inside
# the checkout (build cache, temporary files and scratch all live under
# .bench_build, which .gitignore lists) and runs it in driver mode:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The last line of standard output is the JSON result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

# Keep the toolchain's own writes inside the checkout too.
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local

go -C "$root/benchmark" build -o "$build/blobcr-benchmark" .

cd "$root"
exec "$build/blobcr-benchmark" -driver -dir "$build/scratch" "$@"
