#!/bin/sh
# Metrics-plane smoke gate: boot balignd, serve one align request and
# the same program at two more seeds, and verify the /metrics exposition
# is scrapeable and live — the core families are present (HTTP
# requests, solve latency, engine result and load caches, worker pool),
# the align request counter and the load-cache hit counter are
# non-zero, and readiness flips to 503 when the SIGTERM drain begins.
# Usage:
#
#   scripts/metrics_smoke.sh [port]
set -eu

cd "$(dirname "$0")/.."

port=${1:-8358}
addr="localhost:$port"

bin=$(mktemp -d)/balignd
trap 'rm -rf "$(dirname "$bin")"' EXIT

echo "== building balignd"
go build -o "$bin" ./cmd/balignd

echo "== starting balignd on $addr"
"$bin" -addr "$addr" &
pid=$!
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$(dirname "$bin")"' EXIT

i=0
until curl -sf "http://$addr/v1/readyz" >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -gt 50 ]; then
		echo "balignd did not become ready" >&2
		exit 1
	fi
	sleep 0.1
done
echo "== readyz ok"

echo "== aligning one benchmark to light up the counters"
rid=$(curl -sf -o /dev/null -D - "http://$addr/v1/align" \
	-H 'Content-Type: application/json' \
	-d '{"bench":"compress"}' | tr -d '\r' | sed -n 's/^[Xx]-[Rr]equest-[Ii]d: //p')
if [ -z "$rid" ]; then
	echo "align response carried no X-Request-Id" >&2
	exit 1
fi
echo "== request id: $rid"

# Seed 2 is the program's second load, which the load cache retains;
# seed 3 reuses it.
echo "== aligning it at seeds 2 and 3 to light up the load cache"
for seed in 2 3; do
	curl -sf -o /dev/null "http://$addr/v1/align" \
		-H 'Content-Type: application/json' \
		-d "{\"bench\":\"compress\",\"seed\":$seed}"
done

echo "== scraping /metrics"
scrape=$(curl -sf "http://$addr/metrics")

# Core families, one per subsystem the plane instruments.
for fam in \
	balignd_http_requests_total \
	balignd_http_request_duration_seconds \
	engine_requests_total \
	engine_cache_misses_total \
	engine_load_cache_hits_total \
	engine_load_cache_entries \
	engine_solve_duration_seconds \
	work_pool_capacity \
	work_pool_queue_wait_seconds; do
	echo "$scrape" | grep -q "^# TYPE $fam " || {
		echo "family $fam missing from /metrics" >&2
		exit 1
	}
done

# The align request must have been counted with a 200 on the exact
# endpoint label, and the solve must show up in the latency histogram.
echo "$scrape" | grep 'balignd_http_requests_total{endpoint="/v1/align"' |
	grep 'code="200"' | grep -qv ' 0$' || {
	echo "align request counter is zero or missing" >&2
	exit 1
}
echo "$scrape" | grep -q 'engine_solve_duration_seconds_count.* [1-9]' || {
	echo "solve latency histogram is empty" >&2
	exit 1
}
echo "$scrape" | grep -q '^engine_load_cache_hits_total [1-9]' || {
	echo "load-cache hit counter is zero or missing" >&2
	exit 1
}

echo "== draining (SIGTERM) and checking readiness flips"
kill -TERM "$pid"
i=0
until [ "$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/v1/readyz" 2>/dev/null || echo 000)" != 200 ]; do
	i=$((i + 1))
	if [ "$i" -gt 50 ]; then
		echo "readyz stayed 200 through drain" >&2
		exit 1
	fi
	sleep 0.1
done
wait "$pid"
echo "metrics-smoke: ok"
