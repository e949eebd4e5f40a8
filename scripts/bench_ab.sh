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
#
# After the comparison it prints a paired summary, for reading only (the
# exit status comes from the verdicts alone): per workload and
# end-to-end metric, the pairs (same workload and seed) the change won,
# ties counting for neither, and the median per-seed change/parent
# ratio with its 2nd and its 2nd-largest order statistics (the 2nd and
# 9th of ten pairs). A gain is claimable when the change wins at least
# nine pairs in ten and the medians differ by more than the parent's
# interquartile spread, which the comparison above prints.
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

# paired_summary prints the paired summary table from the two JSONL
# files, pairing untraced correct records by (workload, seed).
paired_summary() {
  jq -rn --slurpfile man BENCHMARK.json \
    --slurpfile p "$out/parent.jsonl" --slurpfile c "$out/change.jsonl" '
    def runs: map(select(.correct and (.trace | not)));
    def pairkey: "\(.workload) \(.seed)";
    def r4: (. * 10000 | round) / 10000;
    ($p | runs | map({key: pairkey, value: .}) | from_entries) as $parent
    | "| workload | metric | change won | median change/parent | 2nd | 2nd largest |",
      "|---|---|---|---|---|---|",
      (($c | runs | map(.workload) | unique)[] as $w
      | $man[0].end_to_end[] as $m
      | [$c | runs | .[] | select(.workload == $w)
          | [.metrics[$m.name].value, $parent[pairkey].metrics[$m.name].value]
          | select(.[0] != null and .[1] != null and .[1] != 0)]
      | select(length > 0)
      | length as $n
      | (map(.[0] / .[1]) | sort) as $r
      | (map(select(if $m.better == "lower" then .[0] < .[1] else .[0] > .[1] end)) | length) as $won
      | (if $n % 2 == 1 then $r[($n - 1) / 2] else ($r[$n / 2 - 1] + $r[$n / 2]) / 2 end) as $med
      | "| \($w) | \($m.name) | \($won)/\($n) | \($med | r4) | \($r[1 % $n] | r4) | \($r[[$n - 2, 0] | max] | r4) |")'
}

cd "$change"
code=0
bash benchmark/run.sh --compare "$out/parent.jsonl" "$out/change.jsonl" >"$out/compare.md" || code=$?
cat "$out/compare.md"
echo
paired_summary || echo "bench_ab: the paired summary failed; the verdicts above stand" >&2
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
