#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything it writes stays inside the checkout: the Go build cache and the
# binary under .bench_build/, run outputs under bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go -C "$root/bench" build -o "$build/bench" .
exec "$build/bench" "$@"
