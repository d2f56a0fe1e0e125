#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run from the repo root: bash bench/run.sh [--workload NAME] [--seed N]
# [--seconds S] [--trace 0|1] [--quick] [--runs N] [--baseline FILE].
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, the binary and the temporary WAL directories live under
# .bench_build/, trace files under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
# bench/ is a module of its own (go.mod replaces toorjah with the parent
# directory), so it is built from inside; without the repo around it the
# build fails and so does this script, before any result is printed.
(cd "$here" && go build -o "$build/toorjah-bench" .)
export TMPDIR="$build/tmp"
cd "$root"
exec "$build/toorjah-bench" --outdir "$here/out" "$@"
