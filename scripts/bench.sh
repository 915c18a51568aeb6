#!/bin/sh
# Benchmark snapshot tool: run the top-level benchmark suite and record
# the numbers as results/BENCH_<label>.json (one object per benchmark,
# plus the commit and date the snapshot was taken at). Usage:
#
#   scripts/bench.sh <label> [bench-regex]
#
# e.g. the dense-vs-sparse kernel comparison recorded in results/:
#
#   scripts/bench.sh baseline '//dense'
#   scripts/bench.sh sparse   '//sparse'
#
# Labels with a recorded comparison get a default regex, so the
# before/after pair is always measured on the same benchmark set:
#
#   scripts/bench.sh threeopt        # BenchmarkLargeSolve (vs threeopt_pre)
#   scripts/bench.sh engine          # BenchmarkEngineDispatch
#
# BENCHTIME overrides -benchtime (default 20x: the sparse/dense kernel
# benchmarks are deterministic per iteration, so a fixed iteration count
# keeps large and small instances comparable).
set -eu

cd "$(dirname "$0")/.."

label=${1?"usage: scripts/bench.sh <label> [bench-regex]"}
case "$label" in
threeopt*) default_regex='BenchmarkLargeSolve' ;;
parallel*) default_regex='BenchmarkSolveParallel|BenchmarkBoundParallel' ;;
exttsp*) default_regex='BenchmarkExtTSP' ;;
heldkarp*) default_regex='BenchmarkHeldKarpBound' ;;
engine*) default_regex='BenchmarkEngineDispatch' ;;
*) default_regex='.' ;;
esac
regex=${2:-$default_regex}
benchtime=${BENCHTIME:-20x}

mkdir -p results
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$regex" -benchmem -benchtime "$benchtime" -timeout 60m . | tee "$raw"

{
	printf '{\n'
	printf '  "label": "%s",\n' "$label"
	commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
	# Flag snapshots of uncommitted trees: their numbers are not
	# reproducible from the recorded commit.
	if [ "$commit" != unknown ] && ! git diff --quiet HEAD -- '*.go' 2>/dev/null; then
		commit="${commit}-dirty"
	fi
	printf '  "commit": "%s",\n' "$commit"
	printf '  "go_version": "%s",\n' "$(go env GOVERSION)"
	# The host's CPU count makes parallel-series snapshots
	# self-describing: workers>host_cpus rows can only prove parity,
	# never speedup.
	printf '  "host_cpus": %s,\n' "$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
	printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	printf '  "benchtime": "%s",\n' "$benchtime"
	printf '  "benchmarks": [\n'
	awk '
		/^Benchmark/ {
			name = $1
			sub(/-[0-9]+$/, "", name)
			iters = $2
			ns = $3
			bytes = ""; allocs = ""
			for (i = 4; i < NF; i++) {
				if ($(i + 1) == "B/op") bytes = $i
				if ($(i + 1) == "allocs/op") allocs = $i
			}
			line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, ns)
			if (bytes != "") line = line sprintf(", \"bytes_per_op\": %s", bytes)
			if (allocs != "") line = line sprintf(", \"allocs_per_op\": %s", allocs)
			line = line "}"
			if (n++) printf(",\n")
			printf("%s", line)
		}
		END { if (n) printf("\n") }
	' "$raw"
	printf '  ]\n'
	printf '}\n'
} >"results/BENCH_${label}.json"

echo "wrote results/BENCH_${label}.json"
