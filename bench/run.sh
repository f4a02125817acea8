#!/usr/bin/env bash
# Builds the benchmark harness against the simulator sources of this
# checkout and runs it with the given arguments (see bench/README.md).
# The toolchain's cache and temporary files stay in .bench_build/ at the
# root of the checkout; the harness writes its results to bench/out/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
