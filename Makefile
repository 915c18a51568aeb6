# Developer targets for the branchalign repository. `make ci` runs
# scripts/ci.sh, the tier-1 gate every change must keep green; the
# other targets are single steps for local use.

GO ?= go

.PHONY: ci fmt vet build test race vet-benchmarks vet-static bench bench-smoke bench-snapshot examples-smoke metrics-smoke trace-smoke trace-demo serve-demo clean

# The one definition of the gate lives in the script, so `make ci` and
# `scripts/ci.sh` cannot drift apart.
ci:
	scripts/ci.sh

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

# Run the pipeline-wide invariant checker over every bundled benchmark.
vet-benchmarks:
	$(GO) run ./cmd/balign vet -all

# Static gates: the benchmark invariant checker plus the determinism
# linter over the repo's own Go sources (see cmd/balignlint).
vet-static: vet-benchmarks
	$(GO) run ./cmd/balignlint

bench:
	$(GO) test -bench=. -benchmem ./...

# Liveness pass over the top-level benchmark suite: run every benchmark
# exactly once so a benchmark that panics, hangs or stops compiling
# shows up. scripts/ci.sh runs it too, with its allocation and time
# ceilings on top.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -timeout 20m .

# Record a benchmark snapshot to results/BENCH_<LABEL>.json; restrict
# with BENCH=<regex>. Example (the dense-vs-sparse kernel comparison):
#   make bench-snapshot LABEL=baseline "BENCH=//dense"
#   make bench-snapshot LABEL=sparse "BENCH=//sparse"
LABEL ?= local
BENCH ?= .
bench-snapshot:
	scripts/bench.sh $(LABEL) '$(BENCH)'

# Run every examples/* program to completion (go build only compiles
# them).
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
