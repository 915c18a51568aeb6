#!/bin/sh
# Tier-1 gate (`make ci` runs this script): formatting, go vet (the
# root and the benchmark module), full build, race-detector test suite,
# benchmark liveness with allocation and time ceilings, example, metrics
# and trace smokes, and the invariant checker over every bundled
# benchmark. Run from anywhere; exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
out=$(gofmt -l .)
if [ -n "$out" ]; then
	echo "gofmt needed on:"
	echo "$out"
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go vet (benchmark module)"
# benchmark/ is its own module (replace branchalign => ../), so the root
# go vet and go build never compile it. Vetting it here fails the gate
# on a root API change that breaks the end-to-end harness, instead of at
# the next benchmark run.
(cd benchmark && go vet ./...)

echo "== go build"
go build ./...

echo "== go test -race (telemetry + solver, concurrency-heavy)"
go test -race -count=2 ./internal/obs/ ./internal/tsp/

echo "== go test -race (engine + balignd + suite, request-serving stack)"
# -timeout 20m: the core suite alone runs ~4.5 minutes per pass under
# the race detector, so two passes brush the 10-minute default.
go test -race -count=2 -timeout 20m ./internal/engine/ ./cmd/balignd/ ./internal/core/

echo "== go test -race GOMAXPROCS=2 (schedule-independence of parallel solves)"
# Determinism must survive real preemption: with two OS threads the race
# detector interleaves the per-run goroutines for real, and the bit-identity
# tests fail loudly if any result depends on scheduling order.
GOMAXPROCS=2 go test -race -count=2 -run 'Parallel|Determin' ./internal/tsp/ ./internal/align/

echo "== go test -race"
go test -race -timeout 20m ./...

echo "== bench-smoke (every benchmark compiles and runs once)"
# -benchtime=1x: not a measurement, a liveness gate. A benchmark that
# panics, hangs, or rots out of the build fails CI here instead of at
# the next snapshot.
go test -run '^$' -bench . -benchtime 1x -timeout 20m .

echo "== heldkarp-alloc gate (kernel must stay allocation-free per ascent)"
# The pooled 1-tree kernel runs the synth5000 ascent in ~10 allocs/op;
# the boxed-heap implementation it replaced took ~227k. A named pass
# with a hard allocs/op ceiling keeps that from silently regressing —
# the catch-all smoke above would still "pass" a deoptimized kernel.
out=$(go test -run '^$' -bench 'BenchmarkHeldKarpBound/synth5000' -benchtime 1x -benchmem -timeout 10m .)
echo "$out"
allocs=$(echo "$out" | awk '/BenchmarkHeldKarpBound\/synth5000/ {print $(NF-1)}')
if [ -z "$allocs" ] || [ "$allocs" -gt 1000 ]; then
	echo "ci: Held-Karp kernel allocation regression (${allocs:-no result} allocs/op, ceiling 1000)"
	exit 1
fi

echo "== heldkarp-time gate (a served-size bound stays within 4x its recorded median)"
# A 200-block function at the engine's default 1000 iterates, the size
# and depth balignd serves. results/BENCH_heldkarp.json records a
# 60.0 ms/op median on a 2-vCPU VM; the 240 ms/op ceiling absorbs
# slower hosts and noise, not a 1-tree kernel or an ascent that lost a
# constant factor. The synth5000 row above runs only 10 iterates and
# largest only 50, which is how a slow path at served sizes went unseen.
out=$(go test -run '^$' -bench 'BenchmarkHeldKarpBound/^synth200$' -benchtime 5x -timeout 10m .)
echo "$out"
nsop=$(echo "$out" | awk '/BenchmarkHeldKarpBound\/synth200\/sparse/ {for (i = 2; i <= NF; i++) if ($i == "ns/op") print $(i-1)}')
if [ -z "$nsop" ] || awk -v v="$nsop" 'BEGIN { exit !(v > 240000000) }'; then
	echo "ci: Held-Karp bound time regression (${nsop:-no result} ns/op, ceiling 240000000)"
	exit 1
fi

echo "== at-inline gate (SparseMatrix.At inlines into the local-search loops)"
# The kernels are At-bound, and At stays under the inlining budget only
# because its out-of-line search is passed as a function parameter
# (internal/tsp/sparse.go). A non-inlined At costs local search ~12%,
# too little for the solve-time gate below to see, so check the
# compiler's decision directly.
if ! go build -gcflags=-m ./internal/tsp 2>&1 | grep -Eq 'can inline \(\*SparseMatrix\)\.At( |$)'; then
	echo "ci: (*tsp.SparseMatrix).At no longer inlines"
	exit 1
fi

echo "== solve-time gate (a served-size solve stays within 4x its recorded median)"
# The paper's protocol, sequential, on a 200-block function: the size
# balignd serves. results/BENCH_sparse.json records a 34.9 ms/op median
# on a 2-vCPU VM; the 140 ms/op ceiling absorbs slower hosts and noise,
# so it catches only a solve that lost a large constant factor (a kick
# that rescans the whole tour, a lost neighbor list, a greedy start that
# ranks all n(n-1) edges again), not a few percent.
# BenchmarkLargeSolve runs a few kicks on huge functions and
# BenchmarkSolveSmall mostly the exact DP, so neither would see a
# slower search at served sizes.
out=$(go test -run '^$' -bench '^BenchmarkSolve$/^synth200$' -benchtime 3x -timeout 10m .)
echo "$out"
nsop=$(echo "$out" | awk '/BenchmarkSolve\/synth200\/sparse/ {for (i = 2; i <= NF; i++) if ($i == "ns/op") print $(i-1)}')
if [ -z "$nsop" ] || awk -v v="$nsop" 'BEGIN { exit !(v > 140000000) }'; then
	echo "ci: served-size solve time regression (${nsop:-no result} ns/op, ceiling 140000000)"
	exit 1
fi

echo "== dispatch-alloc gate (a cache hit is a hash and a lookup)"
# A cached engine request hashes its Inputs, finds the LRU entry and
# copies the result in ~5 allocs/op. The ceiling is generous, but a hit
# path that prints, serializes or loads its module lands far above it.
out=$(go test -run '^$' -bench 'BenchmarkEngineDispatch/cached' -benchtime 100x -benchmem -timeout 10m .)
echo "$out"
allocs=$(echo "$out" | awk '/BenchmarkEngineDispatch\/cached/ {print $(NF-1)}')
if [ -z "$allocs" ] || [ "$allocs" -gt 64 ]; then
	echo "ci: engine dispatch allocation regression (${allocs:-no result} allocs/op, ceiling 64)"
	exit 1
fi

echo "== cold-dispatch-alloc gate (a miss solves without per-subset or per-kick garbage)"
# A cache miss compiles nothing here (Load hands back a fixed module) but
# builds every matrix and neighbor list, solves and bounds: ~270
# allocs/op since SolveExact's DP tables became two flat arrays, SetTour
# validates with the optimizer's own bitmap and each neighbor table
# shares one backing array. Before, per-subset DP slices, a seen slice
# per kick and a slice per neighbor row cost ~2,700.
out=$(go test -run '^$' -bench 'BenchmarkEngineDispatch/cold' -benchtime 100x -benchmem -timeout 10m .)
echo "$out"
allocs=$(echo "$out" | awk '/BenchmarkEngineDispatch\/cold/ {print $(NF-1)}')
if [ -z "$allocs" ] || [ "$allocs" -gt 500 ]; then
	echo "ci: cold engine dispatch allocation regression (${allocs:-no result} allocs/op, ceiling 500)"
	exit 1
fi

echo "== cold-dispatch-time gate (a miss stays within 4x its recorded median)"
# Same run as the allocation gate. results/BENCH_engine.json records a
# 1.60 ms/op median on a 2-vCPU VM; the 6.4 ms/op ceiling absorbs slower
# hosts and noise, not a solve or bound that lost its lean kernel.
nsop=$(echo "$out" | awk '/BenchmarkEngineDispatch\/cold/ {for (i = 2; i <= NF; i++) if ($i == "ns/op") print $(i-1)}')
if [ -z "$nsop" ] || awk -v v="$nsop" 'BEGIN { exit !(v > 6400000) }'; then
	echo "ci: cold engine dispatch time regression (${nsop:-no result} ns/op, ceiling 6400000)"
	exit 1
fi

echo "== interp-alloc gate (frames are pooled; a call allocates nothing)"
# The decoded interpreter takes frames from per-function pools, so a
# doduc/re profiling run allocates ~150 times: decode tables, each
# function's first frames and the profile. The tree walker it replaced
# allocated registers, arrays and call arguments on each of the run's
# 2.1M calls, ~4.2M allocs/op. The ceiling leaves room for decode tables
# growing with the module, not for a per-call allocation.
out=$(go test -run '^$' -bench 'BenchmarkInterpreter/doduc_re' -benchtime 1x -benchmem -timeout 10m .)
echo "$out"
allocs=$(echo "$out" | awk '/BenchmarkInterpreter\/doduc_re/ {print $(NF-1)}')
if [ -z "$allocs" ] || [ "$allocs" -gt 4096 ]; then
	echo "ci: interpreter allocation regression (${allocs:-no result} allocs/op, ceiling 4096)"
	exit 1
fi

echo "== interp-time gate (a profiling run stays within 4x its recorded median)"
# Same run as the allocation gate. results/BENCH_interp.json records a
# 137.8 ms/op median for doduc/re on a 2-vCPU VM; the 550 ms/op ceiling
# absorbs slower hosts and noise, not a dispatch loop that got four
# times slower. A single iteration is timed, so the ceiling is loose.
nsop=$(echo "$out" | awk '/BenchmarkInterpreter\/doduc_re/ {for (i = 2; i <= NF; i++) if ($i == "ns/op") print $(i-1)}')
if [ -z "$nsop" ] || awk -v v="$nsop" 'BEGIN { exit !(v > 550000000) }'; then
	echo "ci: interpreter time regression (${nsop:-no result} ns/op, ceiling 550000000)"
	exit 1
fi

echo "== examples-smoke (every examples/* program runs to completion)"
# go build only compiles the examples; running them catches one that
# panics or exits non-zero against the current library API.
for d in examples/*/; do
	echo "go run ./$d"
	go run "./$d" >/dev/null
done

echo "== metrics-smoke (boot balignd, align once, scrape /metrics)"
# Black-box gate on the metrics plane: the exposition must be
# scrapeable from a real process with the core families present and
# the request counters actually moving. Catches wiring regressions
# (registry not shared, middleware unplugged) that in-process tests
# with injected registries cannot.
scripts/metrics_smoke.sh

echo "== trace-smoke (record a trace, check the flushed aggregates)"
# Black-box gate on Trace.Close: the counter and hist events that
# `balign report` and the benchmark's trace reader consume must reach
# the NDJSON file, and the report must render from it.
scripts/trace_smoke.sh

echo "== vet-static (balign vet -all + balignlint)"
# Static gates over the repo's own artifacts: the CFG/profile invariant
# checker across every bundled benchmark (now including the staticprof
# lints and a flow check of the estimated profile), then the determinism
# linter over the Go sources themselves.
go run ./cmd/balign vet -all
go run ./cmd/balignlint

echo "ci: all gates green"
