#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given flags, e.g. from the repository root:
#
#   bash bench/run.sh --workload vanilla-rw --seed 1 --seconds 16 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary, CPU profiles) stays under .bench_build at the repository root.
# The build needs the repository's module one directory up; without it the
# script fails before measuring anything.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

cd "$root/bench"
go build -o "$build/dualpar-bench" .
exec "$build/dualpar-bench" "$@"
