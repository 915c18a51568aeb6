# Tier-1 gate for the branchalign repository. `make ci` (or
# `scripts/ci.sh`) is the check every change must keep green:
# formatting, go vet, a full build, and the test suite under the race
# detector.

GO ?= go

.PHONY: ci fmt vet build test race race-obs race-engine vet-benchmarks vet-static bench bench-smoke bench-snapshot examples-smoke metrics-smoke trace-smoke trace-demo serve-demo clean

ci: fmt vet build race-obs race-engine race bench-smoke examples-smoke metrics-smoke trace-smoke vet-static

# gofmt -l prints offending files; fail if any.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 20m ./...

# Extra passes over the packages with real concurrency: the telemetry
# registry (spans end on multiple goroutines) and the parallel solver.
race-obs:
	$(GO) test -race -count=2 ./internal/obs/ ./internal/tsp/

# The request-serving stack: engine worker pool / cache / single-flight
# and the balignd HTTP handlers, under the race detector. The core suite
# alone runs ~4.5 minutes per race pass, hence the explicit timeout.
race-engine:
	$(GO) test -race -count=2 -timeout 20m ./internal/engine/ ./cmd/balignd/ ./internal/core/

# Run the pipeline-wide invariant checker over every bundled benchmark.
vet-benchmarks:
	$(GO) run ./cmd/balign vet -all

# Static gates: the benchmark invariant checker plus the determinism
# linter over the repo's own Go sources (see cmd/balignlint).
vet-static: vet-benchmarks
	$(GO) run ./cmd/balignlint

bench:
	$(GO) test -bench=. -benchmem ./...

# Liveness gate over the top-level benchmark suite: run every benchmark
# exactly once so CI catches one that panics, hangs or stops compiling.
# The second pass names the Held-Karp kernel explicitly with -benchmem so
# its allocation profile shows up in CI logs (scripts/ci.sh additionally
# enforces an allocs/op ceiling on it). The third is the cached engine
# dispatch gate, as in scripts/ci.sh: at most 64 allocs/op; the fourth
# the interpreter gate: a doduc/re profiling run at most 4096.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -timeout 20m .
	$(GO) test -run '^$$' -bench 'BenchmarkHeldKarpBound/synth5000' -benchtime 1x -benchmem -timeout 10m .
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkEngineDispatch/cached' -benchtime 100x -benchmem -timeout 10m .); \
	echo "$$out"; \
	allocs=$$(echo "$$out" | awk '/BenchmarkEngineDispatch\/cached/ {print $$(NF-1)}'); \
	if [ -z "$$allocs" ] || [ "$$allocs" -gt 64 ]; then \
		echo "engine dispatch allocation regression ($${allocs:-no result} allocs/op, ceiling 64)"; exit 1; \
	fi
	@out=$$($(GO) test -run '^$$' -bench 'BenchmarkInterpreter/doduc_re' -benchtime 1x -benchmem -timeout 10m .); \
	echo "$$out"; \
	allocs=$$(echo "$$out" | awk '/BenchmarkInterpreter\/doduc_re/ {print $$(NF-1)}'); \
	if [ -z "$$allocs" ] || [ "$$allocs" -gt 4096 ]; then \
		echo "interpreter allocation regression ($${allocs:-no result} allocs/op, ceiling 4096)"; exit 1; \
	fi

# Record a benchmark snapshot to results/BENCH_<LABEL>.json; restrict
# with BENCH=<regex>. Example (the dense-vs-sparse kernel comparison):
#   make bench-snapshot LABEL=baseline "BENCH=//dense"
#   make bench-snapshot LABEL=sparse "BENCH=//sparse"
LABEL ?= local
BENCH ?= .
bench-snapshot:
	scripts/bench.sh $(LABEL) '$(BENCH)'

# Run every examples/* program to completion (go build only compiles
# them), as in scripts/ci.sh.
examples-smoke:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done

# Boot balignd, serve one align request, and verify /metrics exposes
# live HTTP/engine/pool families (and that readiness flips on drain).
metrics-smoke:
	scripts/metrics_smoke.sh

# Record a trace of one benchmark run and check that its counter and
# hist events were flushed and that `balign report` renders from it.
trace-smoke:
	scripts/trace_smoke.sh

# Record a full telemetry trace of a benchmark run and render the
# per-function convergence report from it.
TRACE ?= /tmp/balign-trace.ndjson
trace-demo:
	$(GO) run ./cmd/balign -bench compress -sim -bound -trace $(TRACE)
	$(GO) run ./cmd/balign report -in $(TRACE)

# Start balignd, align one bundled benchmark over HTTP, verify the
# response, and drain the server with SIGTERM.
serve-demo:
	scripts/serve_demo.sh

clean:
	$(GO) clean ./...
