#!/usr/bin/env bash
# Runs two full sets of the benchmark back to back on the same build and
# prints, per workload x end-to-end metric, both values, their relative
# difference and PASS/FAIL against the metric's bound in BENCHMARK.json;
# then checks that the input digests and the exact-repeat counts of a
# traced run are identical between the sets.
#
#   benchmark/agree.sh [--seed N] [--seconds S]
#
# Run from the repository root. Exits non-zero if any pairing fails.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
workloads=(pkt-demux64t pkt-fwd1500 pkt-nat-churn adm-stock adm-reach fleet-failover)
out="$here/out"
mkdir -p "$out"

for set in 1 2; do
  for w in "${workloads[@]}"; do
    echo "set $set: $w" >&2
    "$here/run.sh" --workload "$w" --trace 0 "$@" > "$out/agree-$set-$w.txt"
    "$here/run.sh" --workload "$w" --trace 1 "$@" > "$out/agree-$set-$w-traced.txt"
  done
done

bin="${CARGO_TARGET_DIR:-$here/target}/release/innet-benchmark"
status=0
printf '%-16s %-12s %16s %16s %9s\n' workload metric "set 1" "set 2" "worse by"
for w in "${workloads[@]}"; do
  "$bin" --compare "$w" "$out/agree-1-$w.txt" "$out/agree-2-$w.txt" "$root/BENCHMARK.json" || status=1
  "$bin" --compare-counts "$w" "$out/agree-1-$w-traced.txt" "$out/agree-2-$w-traced.txt" || status=1
  if [ "$(grep '^input_digest' "$out/agree-1-$w.txt")" != "$(grep '^input_digest' "$out/agree-2-$w.txt")" ]; then
    echo "$w: input digests differ between the sets" >&2
    status=1
  fi
done
exit $status
