#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with
# the caller's arguments. Run from anywhere; it works in the checkout
# that holds this file.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
# Without a home directory the toolchain has no default build cache.
[ -n "${GOCACHE:-}${XDG_CACHE_HOME:-}${HOME:-}" ] || export GOCACHE="$PWD/.bench_build/gocache"
go build -o .bench_build/jisc-benchmark ./benchmark
exec .bench_build/jisc-benchmark "$@"
