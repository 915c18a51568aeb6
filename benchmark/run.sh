#!/usr/bin/env bash
# Builds the benchmark runner from this checkout and runs it; every
# argument goes to the runner, which builds ./cmd/balignd itself. Run it
# from the repository root:
#
#   bash benchmark/run.sh -workload cold_bundled -seed 1 -seconds 25 -trace 0
#
# The Go build cache, temporaries and binaries stay in .bench_build/, and
# the toolchain never downloads anything.
set -euo pipefail
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=
go -C benchmark build -o "$build/benchrun" .
exec "$build/benchrun" "$@"
