#!/bin/sh
# Benchmark snapshot tool: run the top-level benchmark suite and record
# the numbers as results/BENCH_<label>.json (one object per benchmark,
# plus the commit and date the snapshot was taken at). Usage:
#
#   scripts/bench.sh <label> [bench-regex]
#
# e.g. the sparse-kernel rows (every sub-benchmark named .../sparse, the
# set results/BENCH_sparse.json holds), taken before and after a change
# on their own checkouts:
#
#   scripts/bench.sh sparse_pre '//sparse'
#   scripts/bench.sh sparse     '//sparse'
#
# Labels with a recorded comparison get a default regex, so the
# before/after pair is always measured on the same benchmark set:
#
#   scripts/bench.sh threeopt        # BenchmarkLargeSolve (vs threeopt_pre)
#   (BenchmarkLargeSolve no longer has the pure-3-opt /sparse rows that
#   threeopt_pre and BENCH_sparse.json hold; its /oropt rows keep their
#   names, so those stay comparable with existing snapshots.)
#   scripts/bench.sh engine          # BenchmarkEngineDispatch
#   scripts/bench.sh interp          # BenchmarkInterpreter (vs interp_pre)
#
# BENCHTIME overrides -benchtime (default 20x: the solver kernel
# benchmarks are deterministic per iteration, so a fixed iteration count
# keeps large and small instances comparable). COUNT (default 1) runs
# each benchmark that many times; a row then records the median ns/op
# (and ns/step) with the min, max and count beside it, so a snapshot
# from a noisy host carries its spread.
set -eu

cd "$(dirname "$0")/.."

label=${1?"usage: scripts/bench.sh <label> [bench-regex]"}
case "$label" in
threeopt*) default_regex='BenchmarkLargeSolve' ;;
parallel*) default_regex='BenchmarkSolveParallel|BenchmarkBoundParallel' ;;
exttsp*) default_regex='BenchmarkExtTSP' ;;
heldkarp*) default_regex='BenchmarkHeldKarpBound' ;;
engine*) default_regex='BenchmarkEngineDispatch' ;;
interp*) default_regex='BenchmarkInterpreter' ;;
*) default_regex='.' ;;
esac
regex=${2:-$default_regex}
benchtime=${BENCHTIME:-20x}
count=${COUNT:-1}

mkdir -p results
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$regex" -benchmem -benchtime "$benchtime" -count "$count" -timeout 60m . | tee "$raw"

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
		# median sorts a[1..k] in place and returns its median.
		function median(a, k,    i, j, t) {
			for (i = 2; i <= k; i++) {
				t = a[i]
				for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
				a[j + 1] = t
			}
			return (k % 2) ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2
		}
		function num(x) { return (x == int(x)) ? sprintf("%.0f", x) : sprintf("%.4f", x) }
		/^Benchmark/ {
			name = $1
			sub(/-[0-9]+$/, "", name)
			if (!(name in runs)) order[++names] = name
			k = ++runs[name]
			iters[name] = $2
			ns[name, k] = $3
			for (i = 4; i < NF; i++) {
				if ($(i + 1) == "B/op") bytes[name] = $i
				if ($(i + 1) == "allocs/op") allocs[name] = $i
				if ($(i + 1) == "ns/step") nsstep[name, k] = $i
				if ($(i + 1) == "steps/op") steps[name] = $i
			}
		}
		END {
			for (r = 1; r <= names; r++) {
				name = order[r]
				k = runs[name]
				if (k == 1) {
					line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters[name], ns[name, 1])
				} else {
					for (i = 1; i <= k; i++) v[i] = ns[name, i] + 0
					line = sprintf("    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters[name], num(median(v, k)))
					line = line sprintf(", \"ns_per_op_min\": %s, \"ns_per_op_max\": %s, \"count\": %d", num(v[1]), num(v[k]), k)
				}
				if (name in bytes) line = line sprintf(", \"bytes_per_op\": %s", bytes[name])
				if (name in allocs) line = line sprintf(", \"allocs_per_op\": %s", allocs[name])
				if ((name, 1) in nsstep) {
					for (i = 1; i <= k; i++) v[i] = nsstep[name, i] + 0
					line = line sprintf(", \"ns_per_step\": %s", k == 1 ? nsstep[name, 1] : num(median(v, k)))
				}
				if (name in steps) line = line sprintf(", \"steps_per_op\": %s", steps[name])
				printf("%s}%s\n", line, r < names ? "," : "")
			}
		}
	' "$raw"
	printf '  ]\n'
	printf '}\n'
} >"results/BENCH_${label}.json"

echo "wrote results/BENCH_${label}.json"
