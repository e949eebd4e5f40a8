#!/usr/bin/env bash
# Chaos smoke test: boot skygraphd on a data directory with the fault
# admin endpoint enabled, drive mixed loadgen traffic through the
# retrying client (idempotency-keyed mutations, ack log on), and while
# the load runs: arm disk failpoints over HTTP, SIGTERM the daemon
# mid-traffic and restart it on the same directory. Afterwards, force
# the degraded-readonly state deterministically (persistent append
# fault + mutation attempts must 503, queries must keep answering,
# /stats must report the degradation), heal, restart once more and hold
# the daemon to the ack log: every acknowledged insert not later
# acknowledged-deleted must exist, every acknowledged delete must be
# gone, and the never-acknowledged degrade-probe insert must be absent.
# CI runs this after the unit tests; locally: make smoke-chaos.
set -euo pipefail

DURATION="${SMOKE_DURATION:-8s}"
ADDR="${SMOKE_ADDR:-127.0.0.1:8193}"
WORK="$(mktemp -d)"
DPID=""
LGPID=""
trap 'kill "$DPID" "$LGPID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

go build -o "$WORK/skygraphd" ./cmd/skygraphd
go build -o "$WORK/loadgen" ./cmd/loadgen

start_daemon() {
  "$WORK/skygraphd" -addr "$ADDR" -cache 64 \
    -data-dir "$WORK/data" -fsync always -snapshot-every 2s \
    -fault-admin -degrade-after 2 -probe-every 50ms -retry-after 1s \
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
  echo "smoke-chaos: daemon did not become ready" >&2
  cat "$WORK/daemon.log" >&2
  exit 1
}

arm() {
  curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "{\"spec\":\"$1\"}" "http://$ADDR/admin/fault" >/dev/null
}

start_daemon
wait_ready

# Mutation-heavy mixed traffic through the retrying client; the ack log
# is the ground truth the daemon is audited against at the end.
"$WORK/loadgen" -addr "$ADDR" -duration "$DURATION" -concurrency 4 \
  -seed 11 -mix 'skyline=2,topk=1,insert=4,delete=2' -retries 6 \
  -ack-log "$WORK/acks.jsonl" \
  2>"$WORK/loadgen.log" &
LGPID=$!

# Chaos while the load runs: an ENOSPC burst on the append path, then a
# SIGTERM + restart on the same directory, then an fsync-error burst.
sleep 1
echo "--- arming wal/append ENOSPC burst under live traffic"
arm 'wal/append=error:err=ENOSPC,limit=8'
sleep 1
arm 'wal/append=off'
sleep 0.5
echo "--- SIGTERM mid-traffic; restarting on the same -data-dir"
kill -TERM "$DPID"
wait "$DPID" || true
start_daemon
wait_ready
echo "--- arming wal/fsync EIO burst under live traffic"
arm 'wal/fsync=error:err=EIO,limit=5'
sleep 1
arm 'wal/fsync=off'

wait "$LGPID"
LGPID=""
cat "$WORK/loadgen.log" >&2

# Deterministic degraded-readonly drill: with a persistent append fault
# the daemon must stop accepting writes (503, not endless 500s) while
# queries keep serving, then heal once the fault clears.
echo "--- forcing degraded-readonly with a persistent append fault"
arm 'wal/append=error:err=ENOSPC'
PROBE='{"graph":{"name":"smoke-degrade-probe","vertices":["C","O"],"edges":[{"u":0,"v":1,"label":"-"}]}}'
for _ in 1 2 3; do
  CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
    -d "$PROBE" "http://$ADDR/graphs")"
  if [ "$CODE" != 503 ]; then
    echo "smoke-chaos: mutation under persistent fault answered $CODE, want 503" >&2
    exit 1
  fi
done
STATE="$(curl -fsS "http://$ADDR/stats" | jq -r .health.state)"
if [ "$STATE" != degraded_readonly ]; then
  echo "smoke-chaos: health state is $STATE after repeated persist failures, want degraded_readonly" >&2
  exit 1
fi
QUERY='{"graph":{"name":"q","vertices":["C","O","C","N"],"edges":[{"u":0,"v":1,"label":"-"},{"u":1,"v":2,"label":"="},{"u":2,"v":3,"label":"-"}]}}'
QCODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
  -d "$QUERY" "http://$ADDR/query/skyline")"
if [ "$QCODE" != 200 ]; then
  echo "smoke-chaos: query while degraded answered $QCODE, want 200" >&2
  exit 1
fi
# Read the whole body before matching: with pipefail, grep -q exiting on
# its first match makes curl fail writing the rest (exit 23).
METRICS="$(curl -fsS "http://$ADDR/metrics")"
if ! grep -q '^skygraph_health_degradations_total [1-9]' <<<"$METRICS"; then
  echo "smoke-chaos: /metrics did not record the degradation" >&2
  exit 1
fi
arm 'wal/append=off'
for _ in $(seq 1 100); do
  STATE="$(curl -fsS "http://$ADDR/stats" | jq -r .health.state)"
  [ "$STATE" != degraded_readonly ] && break
  sleep 0.1
done
if [ "$STATE" = degraded_readonly ]; then
  echo "smoke-chaos: daemon stuck in degraded-readonly after the fault cleared" >&2
  exit 1
fi

# Final restart, then audit the daemon against the ack log. Names whose
# last operation never got an ack are ambiguous (the mutation may or
# may not have landed — the client was told it failed either way) and
# are skipped; every unambiguous name is enforced.
echo "--- final restart; auditing acknowledged mutations"
kill -TERM "$DPID"
wait "$DPID" || true
start_daemon
wait_ready

curl -fsS "http://$ADDR/graphs" | jq -r '.names[]' | sort > "$WORK/present.txt"
jq -r '"\(.op) \(.name)"' "$WORK/acks.jsonl" > "$WORK/acklines.txt"
awk '
  $1 == "insert-attempt" { ia[$2]++ }
  $1 == "insert"         { i[$2]++; last[$2] = "insert" }
  $1 == "delete-attempt" { da[$2]++ }
  $1 == "delete"         { d[$2]++; last[$2] = "delete" }
  END {
    for (n in last) {
      if (ia[n] != i[n] || da[n] != d[n]) continue
      print last[n], n
    }
  }' "$WORK/acklines.txt" > "$WORK/expected.txt"

ACKED_INSERTS=0
ACKED_DELETES=0
while read -r op name; do
  if [ "$op" = insert ]; then
    ACKED_INSERTS=$((ACKED_INSERTS + 1))
    if ! grep -qx "$name" "$WORK/present.txt"; then
      echo "smoke-chaos: acknowledged insert $name lost across the chaos run" >&2
      exit 1
    fi
  else
    ACKED_DELETES=$((ACKED_DELETES + 1))
    if grep -qx "$name" "$WORK/present.txt"; then
      echo "smoke-chaos: acknowledged delete $name resurrected across the chaos run" >&2
      exit 1
    fi
  fi
done < "$WORK/expected.txt"

if [ "$ACKED_INSERTS" -lt 1 ]; then
  echo "smoke-chaos: the run produced no auditable acknowledged inserts" >&2
  exit 1
fi
if grep -qx "smoke-degrade-probe" "$WORK/present.txt"; then
  echo "smoke-chaos: never-acknowledged degrade-probe insert landed in the database" >&2
  exit 1
fi

kill -TERM "$DPID"
wait "$DPID" || true
DPID=""

echo "smoke-chaos: OK ($ACKED_INSERTS acked inserts survived, $ACKED_DELETES acked deletes stayed gone, degraded-readonly engaged and healed)"
