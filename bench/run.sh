#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Everything the build and the run write stays inside the
# checkout: the Go build cache and the temporary directories (checkpoint
# stores included) live under .bench_build, trace files under bench/out.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/starfish-e2e" .)
cd "$root"
exec "$build/starfish-e2e" "$@"
