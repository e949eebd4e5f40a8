#!/usr/bin/env bash
# Observability smoke test: boot skygraphd, drive it with a short
# loadgen burst (mixed skyline/topk/range/batch/mutation traffic),
# require zero request errors, then scrape /metrics and assert the
# request counters actually moved. CI runs this after the unit tests;
# locally: make smoke.
set -euo pipefail

DURATION="${SMOKE_DURATION:-5s}"
ADDR="${SMOKE_ADDR:-127.0.0.1:8191}"
WORK="$(mktemp -d)"
trap 'kill "$DPID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/skygraphd" ./cmd/skygraphd
go build -o "$WORK/loadgen" ./cmd/loadgen

"$WORK/skygraphd" -addr "$ADDR" -cache 64 \
  -slow-query-ms 250 2>"$WORK/daemon.log" &
DPID=$!

# loadgen waits for /readyz itself; -fail-on-error makes any failed
# request fail the smoke run.
"$WORK/loadgen" -addr "$ADDR" -duration "$DURATION" -concurrency 4 \
  -seed 1 -fail-on-error

echo "--- verifying /metrics"
METRICS="$(curl -fsS "http://$ADDR/metrics")"

# Every query kind the mix drives must show a non-zero request counter,
# and the cascade/stage instrumentation must have recorded work.
for pat in \
  'skygraph_http_requests_total{endpoint="POST /query/skyline",code="200"}' \
  'skygraph_http_requests_total{endpoint="POST /query/topk",code="200"}' \
  'skygraph_http_requests_total{endpoint="POST /query/range",code="200"}' \
  'skygraph_http_requests_total{endpoint="POST /query/batch",code="200"}' \
  'skygraph_queries_total' \
  'skygraph_stage_seconds_total{stage="exact"}'
do
  line="$(grep -F "$pat" <<<"$METRICS" || true)"
  if [ -z "$line" ]; then
    echo "smoke: /metrics is missing $pat" >&2
    exit 1
  fi
  value="${line##* }"
  if [ "$value" = "0" ]; then
    echo "smoke: $pat is zero after the burst" >&2
    exit 1
  fi
done

# Write-heavy burst: 10% mutations against the warmed daemon. The
# cache must absorb at least some of those writes in place — a zero
# delta_applied after this means the maintenance path regressed into
# always falling back to invalidation.
echo "--- write-heavy burst (-mutate-pct 10)"
"$WORK/loadgen" -addr "$ADDR" -duration "$DURATION" -concurrency 4 \
  -seed 2 -mutate-pct 10 -fail-on-error

STATS="$(curl -fsS "http://$ADDR/stats")"
if ! grep -Eq '"delta_applied":[1-9]' <<<"$STATS"; then
  echo "smoke: no delta upgrades applied under the mutation burst" >&2
  echo "$STATS" >&2
  exit 1
fi

echo "smoke: OK"
