#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the toolchain
# writes stays inside the checkout: the build cache, its temp files, its
# telemetry counters (which follow XDG_CONFIG_HOME) and the binaries all
# live under .bench_build/ (git-ignored).
#
#   bash bench/run.sh run --workload campaign-scalar --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh trace | compare A.json B.json | repeat -sets 2 -runs 3
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$here" -o "$build/bin/bench" .
cd "$root"
exec "$build/bin/bench" "$@"
