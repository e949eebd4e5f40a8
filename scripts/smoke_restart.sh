#!/usr/bin/env bash
# Durability smoke test: boot skygraphd with a data directory, drive an
# insert-heavy loadgen burst, SIGTERM the daemon mid-life, restart it
# on the same directory and require that (a) /stats reports the same
# graph count, (b) a fixed skyline query returns the identical answer,
# and (c) /metrics shows the recovery actually replayed state. CI runs
# this after the unit tests; locally: make smoke-restart.
set -euo pipefail

DURATION="${SMOKE_DURATION:-5s}"
ADDR="${SMOKE_ADDR:-127.0.0.1:8192}"
WORK="$(mktemp -d)"
DPID=""
trap 'kill "$DPID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/skygraphd" ./cmd/skygraphd
go build -o "$WORK/loadgen" ./cmd/loadgen

start_daemon() {
  "$WORK/skygraphd" -addr "$ADDR" -cache 64 \
    -data-dir "$WORK/data" -fsync always -snapshot-every 2s \
    2>>"$WORK/daemon.log" &
  DPID=$!
}

wait_ready() {
  for _ in $(seq 1 100); do
    if curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "smoke-restart: daemon did not become ready" >&2
  cat "$WORK/daemon.log" >&2
  exit 1
}

start_daemon
wait_ready

# Insert-heavy burst so the WAL has real state to recover (no deletes:
# the daemon starts empty, and early deletes would 404 under
# -fail-on-error).
"$WORK/loadgen" -addr "$ADDR" -duration "$DURATION" -concurrency 4 \
  -seed 7 -mix 'skyline=2,topk=1,insert=6' -fail-on-error

QUERY='{"graph":{"name":"q","vertices":["C","O","C","N"],"edges":[{"u":0,"v":1,"label":"-"},{"u":1,"v":2,"label":"="},{"u":2,"v":3,"label":"-"}]}}'

COUNT1="$(curl -fsS "http://$ADDR/stats" | jq .db.graphs)"
ANSWER1="$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$QUERY" "http://$ADDR/query/skyline" | jq -cS .skyline)"
if [ "$COUNT1" -lt 1 ]; then
  echo "smoke-restart: no graphs inserted before the restart" >&2
  exit 1
fi

echo "--- SIGTERM after $COUNT1 graphs; restarting on the same -data-dir"
kill -TERM "$DPID"
wait "$DPID" || true

start_daemon
wait_ready

COUNT2="$(curl -fsS "http://$ADDR/stats" | jq .db.graphs)"
ANSWER2="$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$QUERY" "http://$ADDR/query/skyline" | jq -cS .skyline)"

if [ "$COUNT1" != "$COUNT2" ]; then
  echo "smoke-restart: graph count changed across restart: $COUNT1 -> $COUNT2" >&2
  exit 1
fi
if [ "$ANSWER1" != "$ANSWER2" ]; then
  echo "smoke-restart: skyline answer changed across restart" >&2
  echo "before: $ANSWER1" >&2
  echo "after:  $ANSWER2" >&2
  exit 1
fi

# The restart must have recovered real state (snapshot graphs + WAL
# replay may split arbitrarily, but together they account for the
# pre-restart database), and the WAL series must be live.
RECOVERED="$(curl -fsS "http://$ADDR/stats" | jq '.durability.recovery_snapshot_graphs + .durability.recovery_replayed_records')"
if [ "$RECOVERED" -lt 1 ]; then
  echo "smoke-restart: recovery reported no snapshot graphs and no replayed records" >&2
  exit 1
fi
METRICS="$(curl -fsS "http://$ADDR/metrics")"
for pat in skygraph_wal_appends_total skygraph_wal_fsyncs_total skygraph_recovery_seconds; do
  if ! grep -q "^$pat" <<<"$METRICS"; then
    echo "smoke-restart: /metrics is missing $pat" >&2
    exit 1
  fi
done

kill -TERM "$DPID"
wait "$DPID" || true
DPID=""

echo "smoke-restart: OK ($COUNT1 graphs and the skyline answer survived the restart)"
