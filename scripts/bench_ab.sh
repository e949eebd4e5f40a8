#!/usr/bin/env bash
# Paired A/B benchmark of two checkouts, the way a performance claim is
# judged (benchmark/README.md, "Comparing two sets of runs"; locally:
# make bench-ab PARENT=<dir>):
#
#   bash scripts/bench_ab.sh PARENT_DIR CHANGE_DIR [workload]
#
# For each of seeds 21-30 both checkouts run their own
# `benchmark/run.sh --workload W --seed S --seconds 15 --trace 0`,
# alternating which side goes first, each appending its records to its
# own JSONL file; the change's harness then compares the two files. The
# script exits 1 if a row of the workload it ran reads `worse` or
# `missing`: the comparison lists every workload of BENCHMARK.json, and
# those a one-workload run never ran read `missing` without saying
# anything about the change. With workload all (the default, ~35 min;
# one workload ~9 min) every row is judged. Everything is written under $OUT
# (default CHANGE_DIR/.bench_build/ab): parent.jsonl and change.jsonl,
# started afresh on every invocation, and the last run's log.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR [workload]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=${3:-all}
out=${OUT:-$change/.bench_build/ab}
mkdir -p "$out"
out=$(cd "$out" && pwd)
rm -f "$out/parent.jsonl" "$out/change.jsonl"

run() { # run <checkout> <seed> <jsonl>
  (cd "$1" && bash benchmark/run.sh --workload "$workload" --seed "$2" \
    --seconds 15 --trace 0 --out "$3") >"$out/last.log" 2>&1 || {
    echo "bench_ab: run failed in $1 (seed $2):" >&2
    tail -n 20 "$out/last.log" >&2
    exit 1
  }
}

for seed in 21 22 23 24 25 26 27 28 29 30; do
  echo "bench_ab: seed $seed" >&2
  if [ $((seed % 2)) -eq 1 ]; then
    run "$parent" "$seed" "$out/parent.jsonl"
    run "$change" "$seed" "$out/change.jsonl"
  else
    run "$change" "$seed" "$out/change.jsonl"
    run "$parent" "$seed" "$out/parent.jsonl"
  fi
done

cd "$change"
code=0
bash benchmark/run.sh --compare "$out/parent.jsonl" "$out/change.jsonl" >"$out/compare.md" || code=$?
cat "$out/compare.md"
if [ "$workload" = all ]; then
  exit "$code"
fi
# Rows read "| workload | metric | ... | verdict |": fail on a worse or
# missing row of the workload that ran, and on a comparison that
# printed no row of it at all.
awk -F'|' -v w="$workload" '
  { name = $2; verdict = $11; gsub(/ /, "", name); gsub(/ /, "", verdict) }
  name == w { rows++; if (verdict == "worse" || verdict == "missing") bad++ }
  END { exit (rows == 0 || bad > 0) }' "$out/compare.md"
