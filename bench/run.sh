#!/usr/bin/env bash
# Entry point for BENCHMARK.json's command: build the benchmark from
# source inside the checkout — build cache included, so nothing outside
# the checkout is read or written — and run it with the given flags.
# `go run ./bench <flags>` from the repository root does the same with the
# user's own build cache.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
