#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it. See README.md.
#
#   benchmark/run.sh --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --check        # <= 10 s smoke run of every workload, gates on
#
# Run from the repository root. Each workload runs in its own process; the
# last line of its output is the result object BENCHMARK.json describes.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
workloads=(pkt-demux64t pkt-fwd1500 pkt-nat-churn adm-stock adm-reach fleet-failover)

workload=""
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="${2:?--workload needs a name}"; shift 2 ;;
    --check) workload="${workload:-all}"; args+=("$1"); shift ;;
    *) args+=("$1"); shift ;;
  esac
done
if [ -z "$workload" ]; then
  echo "usage: benchmark/run.sh --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] | --check" >&2
  exit 2
fi

# Quiet unless the build fails; then the compiler's output is the report.
if ! build_log="$(cargo build --release --offline --manifest-path "$here/Cargo.toml" 2>&1)"; then
  echo "$build_log" >&2
  exit 1
fi
bin="${CARGO_TARGET_DIR:-$here/target}/release/innet-benchmark"

export INNET_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export INNET_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"

if [ "$workload" = all ]; then
  for w in "${workloads[@]}"; do
    "$bin" --workload "$w" --out "$here/out" "${args[@]}"
  done
else
  exec "$bin" --workload "$workload" --out "$here/out" "${args[@]}"
fi
