#!/usr/bin/env bash
# Builds the benchmark from source and becomes it.
#
#   bash benchmarks/run.sh --workload read_local --seed 1 --seconds 15 --trace 0
#
# The binary is exec'ed, never run as a child and never put in the
# background: the process the caller started is the process that does the
# work, so nothing can outlive it. Everything written — the binary, the Go
# build cache, the traced runs' span files — stays inside the checkout
# (.bench_build/ and benchmarks/out/, both in .gitignore).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off

# benchmarks/ is a module of its own (go.mod: replace repro => ../), so the
# root module's build and tests do not see it and it cannot build without
# the repo around it.
(cd "$root/benchmarks" && go build -o "$build/sibm" ./sibm)

cd "$root"
exec "$build/sibm" "$@"
