#!/bin/sh
# End-to-end demo of the balignd HTTP server: build it, start it on a
# free port, align one bundled benchmark over HTTP (checking the
# response), show the server stats, and shut the server down with
# SIGTERM to exercise the graceful drain. Usage:
#
#   scripts/serve_demo.sh [benchmark] [port]
set -eu

cd "$(dirname "$0")/.."

bench=${1:-compress}
port=${2:-8347}
addr="localhost:$port"

bin=$(mktemp -d)/balignd
trap 'rm -rf "$(dirname "$bin")"' EXIT

echo "== building balignd"
go build -o "$bin" ./cmd/balignd

echo "== starting balignd on $addr"
"$bin" -addr "$addr" &
pid=$!
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$(dirname "$bin")"' EXIT

# Wait for the health endpoint to come up.
i=0
until curl -sf "http://$addr/v1/healthz" >/dev/null 2>&1; do
	i=$((i + 1))
	if [ "$i" -gt 50 ]; then
		echo "balignd did not become healthy" >&2
		exit 1
	fi
	sleep 0.1
done
echo "== healthz ok"

echo "== aligning benchmark '$bench' over HTTP"
resp=$(curl -sf "http://$addr/v1/align" \
	-H 'Content-Type: application/json' \
	-d "{\"bench\":\"$bench\",\"bound\":true,\"hk_iterations\":1000}")
echo "$resp"

# The response must carry a positive penalty, a bound, and per-function
# stats; grep keeps the check dependency-free.
echo "$resp" | grep -q '"penalty":' || { echo "no penalty in response" >&2; exit 1; }
echo "$resp" | grep -q '"bound":' || { echo "no bound in response" >&2; exit 1; }
echo "$resp" | grep -q '"funcs":' || { echo "no per-function stats" >&2; exit 1; }
echo "$resp" | grep -q '"truncated":false' || { echo "demo request was truncated" >&2; exit 1; }

echo "== server stats"
curl -sf "http://$addr/v1/stats"

echo "== draining (SIGTERM)"
kill -TERM "$pid"
wait "$pid"
echo "serve-demo: ok"
