#!/bin/sh
# Trace-flush smoke gate: record a telemetry trace of one benchmark run
# and check, black box, that Trace.Close flushed the aggregates the
# readers depend on — the tsp.kicks counter, the tsp.splice_len and
# align.row_exceptions histograms — and that `balign report` renders
# the splice-length footer from the file. Usage:
#
#   scripts/trace_smoke.sh
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go run ./cmd/balign -bench compress -sim -bound -trace "$tmp" >/dev/null

for want in '"type":"counter","name":"tsp.kicks"' \
	'"type":"hist","name":"tsp.splice_len"' \
	'"type":"hist","name":"align.row_exceptions"'; do
	if ! grep -q "$want" "$tmp"; then
		echo "trace-smoke: no $want event in the trace" >&2
		exit 1
	fi
done

if ! go run ./cmd/balign report -in "$tmp" | grep -q '^splice length:'; then
	echo "trace-smoke: balign report printed no splice length footer" >&2
	exit 1
fi
echo "trace-smoke: ok"
