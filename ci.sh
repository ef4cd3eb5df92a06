#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, build, and the full test suite.
# Everything here must pass before a change lands.
#
#   ./ci.sh [--fence <rev> [path…]]
#
# --fence <rev> additionally fails if any fenced file differs from <rev>
# (the change's merge-base) — so a benchmark movement on the paths those
# files build cannot come from the change. With paths given they are the
# fenced set; without, it is the control-plane-only set: everything the
# packet and fleet data paths, and the benchmark itself, are built from.
#
# Example — chain summaries go, and the security check runs the memoized
# graph (parent 4facd17): the change touches symnet, controller, two
# click files, the deploy_storm bench and example, the tests and the
# docs, and fences the rest, the decision golden included:
#
#   ./ci.sh --fence 4facd17 \
#     crates/{packet,obs,sim,topology,platform,policy,analysis,core} \
#     crates/click ':!crates/click/src/canonical.rs' ':!crates/click/src/summary.rs' \
#     benchmark BENCHMARK.json Cargo.lock tests/tests/golden/placement_decisions.txt
set -euo pipefail
cd "$(dirname "$0")"

if [ "${1:-}" = --fence ]; then
  base="${2:?--fence needs the merge-base revision}"
  shift 2
  if [ $# -eq 0 ]; then
    set -- crates/packet crates/click crates/obs crates/sim crates/topology \
      crates/platform crates/policy benchmark BENCHMARK.json
  fi
  echo "==> fence vs $base: $*"
  fenced="$(git diff --name-only "$base" -- "$@")"
  if [ -n "$fenced" ]; then
    echo "fenced files changed since $base:" >&2
    echo "$fenced" >&2
    exit 1
  fi
fi

echo "==> one of each (no deprecated shims)"
# A deprecated item is a second spelling kept for history's sake; the
# benchmark workspace denies the lint, so nothing may lean on one.
if grep -rnE '#\[deprecated|allow\(deprecated\)' crates tests examples; then
  echo "deprecated shims are not kept: delete the old spelling" >&2
  exit 1
fi

echo "==> one owner of installed-module state"
# Placement reads the module table's live views; a per-request recount
# (`fn occupancy`) or a hand-synchronised rule list (`flow_rules.retain`)
# would be a second owner.
if grep -rnE 'fn occupancy\(|flow_rules\.retain' crates/controller/src; then
  echo "derive it from ModuleTable (crates/controller/src/modules.rs)" >&2
  exit 1
fi

echo "==> one admission path"
# Every request is admitted by Controller::deploy, which checks security
# once per request; the sharded batch path and its snapshot commit were a
# second one, resting on addresses being interchangeable.
if grep -rnE 'deploy_batch|commit_verified|verification_clone' crates tests examples; then
  echo "admit through Controller::deploy" >&2
  exit 1
fi

echo "==> one snapshot shape, one admission mode"
# Every BENCH_*.json is an innet_bench::Snapshot; the per-bench snapshot
# types are gone, and so is the controller's verification toggle: the
# deploy_storm bench A/Bs the checker at library level instead.
if grep -rnE 'AdmissionSnapshot|FleetSnapshot|ScenarioSnapshot|set_summaries_enabled' \
  crates tests examples; then
  echo "write one innet_bench::Snapshot; A/B the checker, not the controller" >&2
  exit 1
fi

echo "==> the security check has one executor"
# It runs the wired graph from the model memo; the chain-summary domain
# (a second executor with its own memos and slice keys) was deleted
# because it bought nothing measurable over the memoized graph.
if grep -rnE 'SymSummary|chain_summar|chain_safe|entry_chain|canonical_slice|decl_index|use_summaries' \
  crates tests examples; then
  echo "run SymGraph::run on the memoized graph (check_module_memoized)" >&2
  exit 1
fi

echo "==> admission calls one verifier"
# Every admission verdict comes from SymNet; the advisory abstract
# interpreter (innet-analysis) must not be consulted, behind a knob or not.
if grep -rnE 'abstract_verdict|analysis_enabled|fastpath_eligible' crates/controller/src; then
  echo "the controller decides safety with the symbolic stage only" >&2
  exit 1
fi

echo "==> placement extends one topology model"
# The topology model is built once per controller and candidates are
# added to it (`Controller::model_with`); admission must not compile the
# whole network per candidate again.
if grep -nE '\bcompile\(' crates/controller/src/admission.rs; then
  echo "extend the kept topology model (Controller::model_with)" >&2
  exit 1
fi

echo "==> a candidate's model flattens nothing"
# A placement candidate's model shares the topology part and each
# module's memoized graph; flattening a module or building element models
# per candidate is what it replaced. Only the body of `with_modules` and
# admission are searched: `flatten_config` still builds operator
# middleboxes, once per controller.
if awk '/fn with_modules/ { body = 1 }
        body && /(flatten_config|model_for)\(/ { print FILENAME ":" FNR ": " $0; hit = 1 }
        body && /^    }$/ { body = 0 }
        END { exit !hit }' crates/controller/src/netmodel.rs ||
  grep -nE '(flatten_config|model_for)\(' crates/controller/src/admission.rs; then
  echo "add modules by reference (NetworkModel::with_modules)" >&2
  exit 1
fi

echo "==> a symbolic packet forks without copying"
# The constraint store is a dense copy-on-write Vec indexed by variable
# id, and the current header is held inline; a hash map or a layer
# vector would make every fork allocate again.
if grep -nE 'HashMap|layers:' crates/symnet/src/packet.rs; then
  echo "keep SymPacket's store dense and its top layer inline" >&2
  exit 1
fi

echo "==> validating netfront arguments builds no ring"
# Building FromNetfront/ToNetfront zero-fills a 128 KB ring; summaries
# validate their arguments with netfront_iface instead.
if grep -nE '(From|To)Netfront::(from_args|new)' crates/click/src/summary.rs; then
  echo "parse netfront arguments with elements::netfront_iface" >&2
  exit 1
fi

echo "==> IPNAT finds free ports in its bitmap"
# A probe loop over the port map is what the bitmap replaced; outside the
# debug-profile oracle (the `cfg(any(test, debug_assertions))` impl block)
# and the unit tests, nat.rs must not ask the map whether a port is taken.
if awk '/^#\[cfg\(test\)\]/ { exit }
        /^#\[cfg\(any\(test, debug_assertions\)\)\]/ { oracle = 1 }
        oracle && /^}/ { oracle = 0 }
        !oracle && /contains_key/ { print FILENAME ":" FNR ": " $0; hit = 1 }
        END { exit !hit }' crates/click/src/elements/nat.rs; then
  echo "read the port bitmap (IpNat::used), not the map" >&2
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
cargo test -q

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> lint example smoke-run"
# The example lints a seeded wiring mistake (structured IN-L* rule ids)
# and prints the abstract field-effect table for the fixed config.
# (capture first: grep -q would close the pipe mid-print)
lint_out="$(cargo run --release -q -p innet-examples --bin lint)"
grep -q "IN-L" <<<"$lint_out"

echo "==> metrics example smoke-run"
# The example asserts the zero-silent-drops invariant
# (packets == delivered + buffered + drops-by-reason) and exercises
# both snapshot export formats end to end.
cargo run --release -q -p innet-examples --bin metrics \
  | grep -q "invariant holds: no silent packet loss"

echo "==> deploy_storm example smoke-run"
# A fleet of tenants deploys one stock chain under fresh module names;
# the memoized check must agree with the whole-graph oracle on every
# report (the marker line counts agreements out of checks).
# (capture first: grep -q would close the pipe mid-print)
storm_out="$(cargo run --release -q -p innet-examples --bin deploy_storm)"
grep -qE "verdicts agree with the whole-graph oracle: ([1-9][0-9]*)/\1$" <<<"$storm_out"
grep -q "speedup:" <<<"$storm_out"

echo "==> fleet example smoke-run"
# The example builds a multi-host fleet over a generated capacitated
# topology, deploys through ranked placement, and rebalances load via
# live migration — the marker proves a migration actually completed.
# (capture first: grep -q would close the pipe mid-print)
fleet_out="$(cargo run --release -q -p innet-examples --bin fleet)"
grep -q "migration completed:" <<<"$fleet_out"
grep -q "load spread after rebalance" <<<"$fleet_out"

echo "==> scenarios example smoke-run"
# The scenario engine kills a PoP under a gravity traffic matrix and
# executes plan_fleet's consolidation on the data plane: the markers
# prove tenants actually re-homed and migrations actually ran.
# (capture first: grep -q would close the pipe mid-print)
scenarios_out="$(cargo run --release -q -p innet-examples --bin scenarios)"
grep -q "failover: .* re-homed" <<<"$scenarios_out"
grep -qE "consolidation executed: [1-9][0-9]* live migrations" <<<"$scenarios_out"

echo "==> bench compile gate"
# Benches are not run in CI (too slow, too noisy), but they must keep
# compiling — parallel_scaling in particular tracks the runner API.
cargo bench --no-run --quiet

echo "==> parallel example smoke-run"
# Differential, sharded-NAT, and global-degrade checks always run; the
# >=1.5x 4-worker speedup gate self-arms only on hosts with >=4 CPUs
# (on fewer cores the workers time-slice and no speedup is possible).
# (capture first: grep -q would close the pipe mid-print)
parallel_out="$(cargo run --release -q -p innet-examples --bin parallel)"
grep -q "verdict: FlowPartitionable" <<<"$parallel_out"
grep -q "all translated" <<<"$parallel_out"
grep -q "verdict: Global" <<<"$parallel_out"
grep -q "engine: compiled" <<<"$parallel_out"
grep -q "== verdict:" <<<"$parallel_out"

echo "==> bench snapshot smoke"
# Quick-mode snapshot emission into a scratch dir, then schema
# validation of each, and of the committed snapshots: proves the
# writer and the validator stay wired without paying full bench time.
# The committed snapshots at the repo root are refreshed manually by
# full `cargo bench` runs, not by CI.
snapdir="$(mktemp -d)"
trap 'rm -rf "$snapdir"' EXIT
for bench in parallel_scaling fig12_middlebox_throughput deploy_storm fleet scenarios; do
  INNET_BENCH_QUICK=1 INNET_BENCH_SNAPSHOT_DIR="$snapdir" \
    cargo bench --quiet --bench "$bench" >/dev/null
done
cargo run --release -q -p innet-bench --bin validate_snapshot "$snapdir"/BENCH_*.json BENCH_*.json
test "$(ls "$snapdir"/BENCH_*.json | wc -l)" -eq 5

echo "==> benchmark workspace"
# benchmark/ is a Cargo workspace of its own, so the root build and test
# above do not notice a rename or deletion that breaks it.
cargo test --offline -q --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --check >/dev/null

echo "CI OK"
