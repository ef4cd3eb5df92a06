//! Reach-checked placement decisions are pinned, not claimed.
//!
//! `placement_decisions.rs` never carries a requirement, so its golden
//! file never builds a network model. This test drives the path that
//! does: `adm-reach`-shaped deploys (a novel `IPFilter` port, a
//! `TimedUnqueue`, one in ten a `SetIPSrc` spoofer) with satisfiable and
//! unsatisfiable `reach` requirements, an operator policy added halfway,
//! ingress filtering switched on and off, and a standing population with
//! kills in between — platforms hold four modules each, so several of
//! them host several modules and their vswitch demux carries several
//! rules. One adopted module sits on a router, which is no platform: the
//! model must ignore it.
//!
//! After every step the outcome (class, platform, address, `sandboxed`,
//! per-platform reasons), a digest of `network_model()` (sorted node
//! names, node count, edge count) and `check_requirement` over a fixed
//! pool are recorded; at the end, every counter of the ledger. Module
//! graph nodes may be numbered in any order, so only names, counts and
//! verdicts are pinned, never raw indices. The golden file was recorded
//! on `98dcd8d`, the commit before the network model was split into a
//! per-controller topology model plus the installed modules.

use std::net::Ipv4Addr;

use innet::controller::{check_requirement, ControllerStats, HardeningPolicy, InstalledModule};
use innet::prelude::*;
use innet::topology::{generate, GenerateParams, NodeKind};
use rand::{rngs::StdRng, Rng, SeedableRng};

const SEED: u64 = 20150421;
const CLIENT_ADDR: Ipv4Addr = Ipv4Addr::new(172, 16, 15, 133);
const CLIENTS: usize = 4;
/// Module slots per platform: small, so standing modules spread.
const CAPACITY: usize = 4;
const STEPS: usize = 60;

/// Checked against `network_model()` after every step.
const POOL: &[&str] = &[
    "reach from client -> internet",
    "reach from internet udp -> client dst port 1500",
    "reach from internet tcp -> HTTPOptimizer",
    "reach from internet -> platform3",
    "reach from internet src net 172.16.0.0/16 -> client",
    "reach from internet -> gplatform0",
    "reach from internet udp -> b0:dst:0 -> client",
    "reach from client -> platform1",
    "reach from internet udp -> b27:dst:0 -> client",
];

/// An `adm-reach` request: satisfiable unless `wrong_port`.
fn reach_request(rng: &mut StdRng, i: usize, wrong_port: bool) -> String {
    let port = rng.gen_range(1_024..40_000);
    let (interval, burst) = (rng.gen_range(30..240), rng.gen_range(10..200));
    let spoof = if rng.gen_range(0..10) == 0 {
        " -> SetIPSrc(8.8.8.8)"
    } else {
        ""
    };
    let want = if wrong_port { port + 1 } else { port };
    format!(
        "module b{i}:\nFromNetfront() -> IPFilter(allow udp dst port {port}) \
         -> IPRewriter(pattern - - 172.16.15.133 - 0 0) \
         -> TimedUnqueue({interval}, {burst}){spoof} -> dst :: ToNetfront();\n\
         reach from internet udp -> b{i}:dst:0 dst 172.16.15.133 \
         -> client dst port {want} const proto && dst port && payload"
    )
}

/// A requirement-free module: only capacity and rank decide where it
/// lands.
fn standing_request(rng: &mut StdRng, i: usize) -> String {
    format!(
        "module s{i}:\nFromNetfront() -> IPFilter(allow udp dst port {}) \
         -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();",
        rng.gen_range(1..1024)
    )
}

fn decision(outcome: &Result<DeployResponse, DeployError>) -> String {
    match outcome {
        Ok(r) => format!("accept {} {} {}", r.platform, r.public_addr, r.sandboxed),
        Err(DeployError::SecurityReject(_)) => "security-reject".to_string(),
        Err(DeployError::NoFeasiblePlacement { reasons }) => {
            format!("no-placement {reasons:?}")
        }
        Err(e) => format!("other {e}"),
    }
}

/// FNV-1a over the sorted node names, plus node and edge counts.
fn model_digest(ctl: &Controller) -> String {
    let model = match ctl.network_model() {
        Ok(m) => m,
        Err(e) => return format!("model error {e}"),
    };
    let g = &model.graph;
    let mut names: Vec<&str> = (0..g.len()).map(|n| g.node_name(n)).collect();
    names.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in names.join("\n").bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    let edges: usize = (0..g.len()).map(|n| g.out_edges(n).len()).sum();
    let verdicts: String = POOL
        .iter()
        .map(
            |text| match check_requirement(&model, &Requirement::parse(text).unwrap()) {
                Ok(true) => 'T',
                Ok(false) => 'F',
                Err(_) => 'E',
            },
        )
        .collect();
    format!(
        "model nodes={} edges={edges} names={h:016x} pool={verdicts}",
        g.len()
    )
}

/// Every counter of the ledger; the `*_ns` fields are wall time and are
/// left out.
fn counters(s: &ControllerStats) -> Vec<String> {
    [
        ("requests", s.requests),
        ("accepted", s.accepted),
        ("rejected", s.rejected),
        ("cache_hits", s.cache_hits),
        ("cache_misses", s.cache_misses),
        ("cache_invalidations", s.cache_invalidations),
        ("fastpath_hits", s.fastpath_hits),
        ("fastpath_fallbacks", s.fastpath_fallbacks),
        ("lint_rejects", s.lint_rejects),
        ("lint_cache_hits", s.lint_cache_hits),
        ("hop_cap_bailouts", s.hop_cap_bailouts),
        ("visit_cap_bailouts", s.visit_cap_bailouts),
        ("summary_cache_hits", s.summary_cache_hits),
        ("summary_cache_misses", s.summary_cache_misses),
        ("summary_chain_nodes", s.summary_chain_nodes),
        ("summary_invalidations", s.summary_invalidations),
        ("placement_rejects", s.placement_rejects),
    ]
    .iter()
    .map(|(name, v)| format!("{name} {v}"))
    .collect()
}

/// Runs the scripted mix on `topo` and returns one line per step plus
/// the final counters.
fn replay(label: &str, mut topo: Topology) -> Vec<String> {
    for node in &mut topo.nodes {
        if let NodeKind::Platform(spec) = &mut node.kind {
            spec.capacity = CAPACITY;
        }
    }
    let border = topo.index_of("border").unwrap();
    let mut ctl = Controller::new(topo);
    for i in 0..CLIENTS {
        ctl.register_client(
            format!("tenant{i}"),
            RequesterClass::Client,
            vec![CLIENT_ADDR],
        );
    }
    // A module on a node that is not a platform: on no platform, so in no
    // model.
    ctl.adopt_modules(vec![InstalledModule {
        id: 1,
        name: "stray".to_string(),
        platform: border,
        addr: Ipv4Addr::new(192, 0, 2, 250),
        config: ClickConfig::parse("FromNetfront() -> Counter() -> ToNetfront();").unwrap(),
        sandboxed: false,
        owner: "tenant0".to_string(),
    }]);

    let mut rng = StdRng::seed_from_u64(SEED);
    let mut lines = vec![format!("== {label}"), model_digest(&ctl)];
    let mut live: Vec<u64> = Vec::new();
    for i in 0..STEPS {
        if i == STEPS / 2 {
            ctl.add_operator_policy(Requirement::parse("reach from client -> internet").unwrap());
            lines.push("policy reach from client -> internet".to_string());
        }
        if i % 20 == 10 {
            let on = !ctl.hardening().ingress_filtering;
            ctl.set_hardening(HardeningPolicy {
                ingress_filtering: on,
                ..ctl.hardening()
            });
            lines.push(format!("ingress_filtering {on}"));
        }
        let kind = rng.gen_range(0..20);
        let line = if kind < 4 && !live.is_empty() {
            let id = live.swap_remove(rng.gen_range(0..live.len()));
            format!("kill {id} {:?}", ctl.kill(id).is_ok())
        } else {
            let text = match kind {
                0..=8 => reach_request(&mut rng, i, false),
                9..=11 => reach_request(&mut rng, i, true),
                _ => standing_request(&mut rng, i),
            };
            let client = format!("tenant{}", rng.gen_range(0..CLIENTS));
            let outcome = ctl.deploy(&client, ClientRequest::parse(&text).unwrap());
            if let Ok(r) = &outcome {
                live.push(r.module_id);
            }
            format!("deploy {i} {}", decision(&outcome))
        };
        lines.push(line);
        lines.push(model_digest(&ctl));
    }
    lines.push(format!("modules {}", ctl.modules().len()));
    lines.extend(counters(&ctl.stats()));
    lines
}

#[test]
fn reach_checked_placement_decides_exactly_as_recorded() {
    let mut lines = replay("figure3", Topology::figure3());
    lines.extend(replay(
        "generated",
        generate(&GenerateParams {
            middleboxes: 7,
            platform_every: 2,
            seed: SEED,
        }),
    ));
    let got = lines.join("\n") + "\n";
    let want = include_str!("golden/reach_placement.txt");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} moved", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line count");
}

/// `adm-reach` checks one candidate per request, not two. On Figure 3 the
/// ranking puts platform3 first, and a module killed right after its
/// deploy leaves platform3 room for the next one, so every accepted
/// request is placed on the first platform it is checked against.
#[test]
fn adm_reach_requests_are_checked_on_one_candidate() {
    let mut ctl = Controller::new(Topology::figure3());
    for i in 0..CLIENTS {
        ctl.register_client(
            format!("tenant{i}"),
            RequesterClass::Client,
            vec![CLIENT_ADDR],
        );
    }
    let ranked: Vec<&str> = ctl
        .ranked_platforms()
        .into_iter()
        .map(|id| ctl.topology().nodes[id].name.as_str())
        .collect();
    assert_eq!(ranked, ["platform3", "platform1", "platform2"]);

    let before = ctl.stats().placement_rejects;
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut accepted = 0;
    for i in 0..40 {
        let text = reach_request(&mut rng, i, false);
        let client = format!("tenant{}", rng.gen_range(0..CLIENTS));
        match ctl.deploy(&client, ClientRequest::parse(&text).unwrap()) {
            Ok(r) => {
                assert_eq!(r.platform, "platform3", "request {i}");
                ctl.kill(r.module_id).unwrap();
                accepted += 1;
            }
            Err(DeployError::SecurityReject(_)) => {}
            Err(e) => panic!("request {i}: {e}"),
        }
    }
    assert!(accepted >= 30, "only {accepted} of 40 accepted");
    assert_eq!(ctl.stats().placement_rejects - before, 0);
}
