#!/usr/bin/env bash
# Runs the library's callers end to end: the four examples, experiment
# E10 (exact vs beam vs bipartite GED, the one program that runs
# ged.Beam; only its exit status is checked), then the gss batch flow
# paper -> skyline -> diverse -> topk on the paper's database in a temp
# directory. Fails on any error, and unless the skyline is exactly
# Section VI's GSS(D, q) = {g1, g4, g5, g7}.
# CI runs this after the unit tests; locally: make examples.
set -euo pipefail

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

for ex in quickstart chemical diversity hotels; do
  echo "== examples/$ex"
  go run "./examples/$ex" >"$WORK/$ex.out"
done

echo "== cmd/experiments -run E10"
go run ./cmd/experiments -run E10 >"$WORK/e10.out"

go build -o "$WORK/gss" ./cmd/gss
cd "$WORK"
./gss paper -out paper.lgf -query q.lgf
./gss skyline -db paper.lgf -query q.lgf | tee skyline.out
./gss diverse -db paper.lgf -query q.lgf -k 2
./gss topk -db paper.lgf -query q.lgf -measure DistEd -k 3

# The member rows follow the two header lines.
got=$(tail -n +3 skyline.out | awk '{print $1}' | paste -sd, -)
if [ "$got" != "g1,g4,g5,g7" ]; then
  echo "examples: gss skyline printed [$got], want [g1,g4,g5,g7]" >&2
  exit 1
fi
echo "examples: ok"
