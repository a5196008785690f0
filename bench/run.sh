#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given, e.g.
#
#   bash bench/run.sh --workload route --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes — build cache, module cache, the binary —
# goes under .bench_build/ at the root of the checkout, so a run reads and
# writes nothing outside it. The benchmark is a module of its own
# (bench/go.mod) that replaces the repository's module with "../": in a
# directory that holds only BENCHMARK.json and bench/ the build fails and this
# script exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOWORK=off
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
