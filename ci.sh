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
# Example — the element and model traits say only what they compute
# (parent af4ced8): the change touches click, symnet, controller, the
# integration tests, ci.sh, the root Cargo.toml and the docs, and fences
# the rest, the benchmark, both lockfiles, the snapshots and the goldens
# included:
#
#   ./ci.sh --fence af4ced8 \
#     crates/{packet,obs,sim,topology,policy,analysis,platform,core,bench} \
#     examples benchmark BENCHMARK.json 'BENCH_*.json' Cargo.lock tests/tests/golden
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

echo "==> IPNAT keeps one table"
# The mappings live in one dense entry array behind two open-addressed
# indexes; a std map beside them would be a second copy to keep in step
# and a SipHash probe per packet. The probe loop the port bitmap replaced
# stays as its oracle, compiled only into test and debug builds.
if awk '/^#\[cfg\(test\)\]/ { exit }
        /^#\[cfg\(any\(test, debug_assertions\)\)\]/ { oracle = 1 }
        oracle && /^}/ { oracle = 0 }
        /HashMap|HashSet|BTreeMap/ { print FILENAME ":" FNR ": " $0; hit = 1 }
        /fn probe_alloc/ { if (oracle) found = 1; else { print FILENAME ":" FNR ": " $0; hit = 1 } }
        END { if (!found) { print FILENAME ": no probe_alloc oracle"; hit = 1 }; exit !hit }' \
  crates/click/src/elements/nat.rs; then
  echo "keep IpNat's mappings in its entry table, and probe_alloc under cfg(any(test, debug_assertions))" >&2
  exit 1
fi

echo "==> a shortest-path tree reuses one adjacency"
# Topology::adjacency compresses the links once; the fleet, the traffic
# matrix and failover query that. A one-shot Topology::paths_from in the
# platform crate, or per-node link vectors rebuilt inside graph.rs
# (outside its test oracle), would bring back a link pass per tree.
if grep -rnE '(topo|topology\(\))\.paths_from\(' crates/platform/src ||
  awk '/^#\[cfg\(test\)\]/ { exit }
        /vec!\[Vec::new\(\); n\]/ { print FILENAME ":" FNR ": " $0; hit = 1 }
        END { exit !hit }' crates/topology/src/graph.rs; then
  echo "build Topology::adjacency once and call Adjacency::paths_from" >&2
  exit 1
fi

echo "==> one future-event list"
# "Earliest time first, ties in scheduling order" is written once, in
# innet_sim::EventQueue; the fleet driver's timeline and the fabric's
# in-flight packets are instances of it. A hand-rolled heap elsewhere in
# the simulator would be a second ordering rule that can drift from it.
if grep -rn 'BinaryHeap' crates/platform/src crates/sim/src | grep -v '^crates/sim/src/des\.rs:'; then
  echo "schedule on innet_sim::des::EventQueue (crates/sim/src/des.rs)" >&2
  exit 1
fi

echo "==> class facts live in one table"
# Whether a class is a netfront entry or exit, keeps per-flow or
# cross-flow state, or is queue-like is written once, in
# innet_click::class_info. A hand-kept class list or a netfront class-name
# comparison outside the unit tests of symnet, analysis and the
# controller, or a state field back on ElementSummary, is a second copy
# that can disagree with it.
if awk 'FNR == 1 { tests = 0 }
        /^#\[cfg\(test\)\]/ { tests = 1 }
        !tests && (/const [A-Za-z_]+ *: *\[\(?&(.static )?str[;,]/ ||
                   /(==|!=) *"(From|To)(Netfront|Device)"/ ||
                   /"(From|To)(Netfront|Device)" *(==|!=)/) {
          print FILENAME ":" FNR ": " $0; hit = 1
        }
        END { exit !hit }' crates/symnet/src/*.rs crates/analysis/src/*.rs \
  crates/controller/src/*.rs ||
  grep -nE '\b(queue_like|shardability)\b' crates/click/src/summary.rs; then
  echo "read innet_click::class_info (crates/click/src/registry.rs)" >&2
  exit 1
fi

echo "==> the element library is one table"
# Each class is one row of class_table! (crates/click/src/registry.rs):
# its facts, its constructor and its summary. Runtime registration
# (register, register_summary, an empty registry to fill) or a map of
# constructors beside the table would be a second class list that can
# drift from it.
if grep -rnE 'fn register\(|register_summary|fn empty\(|BTreeMap<[^>]*Ctor>' crates/click/src; then
  echo "add a row to class_table!" >&2
  exit 1
fi

echo "==> the runner has no dispatcher"
# ParallelRunner splits its input into flow-hash shares once per call, at
# ingress, and every replica runs the one loop (Replica::run) over its
# own share. A dispatcher thread feeding worker rings, std's channel or a
# hand-rolled one (crates/platform/src/spsc.rs), would be a second run
# loop with a clone and a hand-off per packet.
if awk 'FNR == 1 { tests = 0 }
        /^#\[cfg\(test\)\]/ { tests = 1 }
        !tests && /sync_channel|SyncSender|fn run_sharded|fn dispatch\(/ {
          print FILENAME ":" FNR ": " $0; hit = 1
        }
        END { exit !hit }' crates/platform/src/*.rs ||
  { [ -e crates/platform/src/spsc.rs ] && echo "crates/platform/src/spsc.rs exists"; }; then
  echo "partition the input at ingress and run Replica::run on each share" >&2
  exit 1
fi

echo "==> lint reads the models"
# Lint reads each element's ports, reach and rules off the model memo's
# entry (innet_symnet::ElementModel), the one the security check builds
# its graph from. A field-effect summary or a second instantiation in
# lint would be a second description of the element, and a second parse.
if grep -nE '\.summary\(|has_summary\(|\.instantiate\(' crates/analysis/src/lint.rs; then
  echo "read the element through ModelCache::model (innet_symnet::ElementModel)" >&2
  exit 1
fi

echo "==> one graph builder, one VM engine"
# CompiledRouter::compile lowers the graph Router::from_config builds
# (Router::into_parts): it instantiates, wires and port-checks nothing
# itself, and its entry and exit stages take over the netfront elements'
# own rings instead of allocating a second 128 KB ring each. A ClickOS
# VM boots that plan, never the interpreter.
if awk '/^#\[cfg\(test\)\]/ { exit }
        /registry\.instantiate|RouterError::BadPort|NetfrontRing::(default|new)/ {
          print FILENAME ":" FNR ": " $0; hit = 1
        }
        END { exit !hit }' crates/click/src/compile.rs ||
  grep -nE 'Router::from_config' crates/platform/src/vm.rs; then
  echo "lower Router::into_parts in compile; boot VMs with CompiledRouter::compile" >&2
  exit 1
fi

echo "==> the checksum sums native-endian words"
# The one's-complement sum does not depend on byte order (RFC 1071
# §2(B)), so internet_checksum adds native words and swaps its 16-bit
# result once; a per-word big-endian read keeps the loop from
# vectorising. verify_checksum copies the header to the stack, not the
# heap, once per packet. Each body runs from its `fn` line to the brace
# that closes it at the fn's own indentation (`}` or `    }`).
body() {
  awk -v fn="$1" -v pat="$2" '
    $0 ~ ("fn " fn "\\(") { body = 1; match($0, /^ */); end = substr($0, 1, RLENGTH) "}" }
    body && $0 ~ pat { print FILENAME ":" FNR ": " $0; hit = 1 }
    body && $0 == end { body = 0 }
    END { exit !hit }' crates/packet/src/ip.rs
}
fired=0
body internet_checksum from_be_bytes && fired=1
body verify_checksum to_vec && fired=1
if [ "$fired" = 1 ]; then
  echo "sum native-endian words and swap once; copy the header to the stack" >&2
  exit 1
fi

echo "==> a request is read once"
# The lexer skips comments where they lie and its tokens borrow the text
# (crates/click/src/config.rs); the placement walk passes a full
# platform without recording it, and builds the (platform, reason)
# strings only when the search places nothing
# (crates/controller/src/admission.rs). A comment-stripping copy, a
# token that owns a String, or owned reasons collected during the walk
# would copy the request, or allocate per platform, on every deploy.
if awk '/^#\[cfg\(test\)\]/ { exit }
        /fn strip_comments\(/ { print FILENAME ":" FNR ": " $0; hit = 1 }
        /^enum Tok[ <]/ { tok = 1 }
        tok && /String/ { print FILENAME ":" FNR ": " $0; hit = 1 }
        tok && /^}/ { tok = 0 }
        END { exit !hit }' crates/click/src/config.rs ||
  grep -nE 'reasons: Vec<\(String, String\)>' crates/controller/src/admission.rs; then
  echo "lex the text in place (config.rs); build refusal reasons after the walk (admission.rs)" >&2
  exit 1
fi

echo "==> an element says only what it computes"
# Element and SymElement say what an element does to a packet, nothing
# else. Its class is the class-table row it was built from, and its
# concrete type is reached by upcasting the element itself to `dyn Any`
# (`&*el as &dyn Any`, never the Box). A per-impl class_name, a
# hand-written as_any/as_any_mut or a model_name would be one more
# description of each class to keep in step with the table.
if awk 'FNR == 1 { tests = 0 }
        /^#\[cfg\(test\)\]/ { tests = 1 }
        !tests && /fn (class_name|as_any|as_any_mut|model_name) *[(<]/ {
          print FILENAME ":" FNR ": " $0; hit = 1
        }
        END { exit !hit }' $(find crates tests examples -name '*.rs' -not -path '*/target/*'); then
  echo "name the class from the class table; upcast the element to dyn Any" >&2
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
# The 2-worker/1-worker ratio is printed, not gated.
# (capture first: grep -q would close the pipe mid-print)
parallel_out="$(cargo run --release -q -p innet-examples --bin parallel)"
grep -q "verdict: FlowPartitionable" <<<"$parallel_out"
grep -q "all translated" <<<"$parallel_out"
grep -q "verdict: Global" <<<"$parallel_out"
grep -q "engine: compiled" <<<"$parallel_out"
grep -q "== verdict:" <<<"$parallel_out"
grep -q "2-worker/1-worker ratio" <<<"$parallel_out"

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
