//! Placement decisions are pinned, not claimed.
//!
//! The controller's placement bookkeeping (which platform has room, the
//! preference order, the next free address) is an index over the
//! installed modules; any rewrite of that index must leave every decision
//! where it was. This test replays the benchmark's `adm-stock` generator
//! shape at small scale — 8 PoPs × 2 platforms, 40 standing modules, a
//! 100-request window of alpha-renamed stock chains, exact replays, novel
//! chains and spoofers, run twice with the memo flush and the kills of the
//! window's modules in between — and compares the
//! `(verdict class, platform, public_addr, sandboxed)` sequence with
//! `golden/placement_decisions.txt` and the final counters with the values
//! below. Both were recorded from the commit before the module table
//! existed (PR 16, `638fbf2`); the six analysis counters were recorded
//! again when admission lost its abstract fast-path stage (the 194
//! candidates it used to see all go to the symbolic stage), with the
//! decisions unmoved.

use std::net::Ipv4Addr;

use innet::controller::ControllerStats;
use innet::prelude::*;
use innet::topology::{generate_fleet, FleetParams};
use rand::{rngs::StdRng, Rng, SeedableRng};

const SEED: u64 = 20150421;
const CLIENT_ADDR: Ipv4Addr = Ipv4Addr::new(172, 16, 15, 133);
const CLIENTS: usize = 16;
const STANDING: usize = 40;
const WINDOW: usize = 100;

/// The stock pipelines tenants redeploy under fresh names.
const STOCK: &[&str] = &[
    "FromNetfront() -> CheckIPHeader() -> IPFilter(allow udp dst port 1500) \
     -> Counter() -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();",
    "FromNetfront() -> IPFilter(allow tcp dst port 80) -> DecIPTTL() \
     -> Counter() -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();",
    "FromNetfront() -> IPFilter(allow udp dst port 53) -> SetTOS(10) \
     -> Counter() -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();",
    "FromNetfront() -> CheckIPHeader() -> DecIPTTL() -> IPFilter(allow tcp dst port 443) \
     -> Paint(7) -> Counter() -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();",
];

/// `(client id, request text)`.
type Request = (String, String);

fn client(rng: &mut StdRng) -> String {
    format!("tenant{}", rng.gen_range(0..CLIENTS))
}

/// The standing population and one window:
/// 60 % renamed stock chains, 20 % exact replays of an earlier request of
/// the window, 10 % novel chains, 10 % source spoofers.
fn requests() -> (Vec<Request>, Vec<Request>) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let standing = (0..STANDING)
        .map(|i| {
            let c = client(&mut rng);
            let chain = STOCK[rng.gen_range(0..STOCK.len())];
            (c, format!("module standing{i}:\n{chain}"))
        })
        .collect();
    let mut window: Vec<Request> = Vec::with_capacity(WINDOW);
    for i in 0..WINDOW {
        let req = match rng.gen_range(0..10) {
            0..=5 => {
                let c = client(&mut rng);
                let chain = STOCK[rng.gen_range(0..STOCK.len())];
                (c, format!("module w{i}:\n{chain}"))
            }
            6 | 7 if !window.is_empty() => window[rng.gen_range(0..window.len())].clone(),
            6..=8 => (
                client(&mut rng),
                format!(
                    "module n{i}:\nFromNetfront() -> IPFilter(allow udp dst port {}) \
                     -> SetTOS({}) -> Paint({}) \
                     -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();",
                    rng.gen_range(1..1024),
                    rng.gen_range(0..64),
                    rng.gen_range(0..256)
                ),
            ),
            _ => (
                client(&mut rng),
                format!(
                    "module s{i}:\nFromNetfront() -> IPFilter(allow udp dst port {}) \
                     -> SetIPSrc(8.8.8.8) -> ToNetfront();",
                    rng.gen_range(1..1024)
                ),
            ),
        };
        window.push(req);
    }
    (standing, window)
}

/// One line per decision.
fn decision(outcome: &Result<DeployResponse, DeployError>) -> String {
    match outcome {
        Ok(r) => format!("accept {} {} {}", r.platform, r.public_addr, r.sandboxed),
        Err(DeployError::SecurityReject(_)) => "security-reject".to_string(),
        Err(DeployError::NoFeasiblePlacement { reasons }) => {
            format!("no-placement {}", reasons.len())
        }
        Err(e) => format!("other {e}"),
    }
}

/// Every counter of the ledger; the `*_ns` fields are wall time and are
/// left out.
fn counters(s: &ControllerStats) -> [(&'static str, u64); 14] {
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
        ("security_checks", s.security_checks),
        ("placement_rejects", s.placement_rejects),
    ]
}

#[test]
fn adm_stock_shape_decides_exactly_as_recorded() {
    let topo = generate_fleet(&FleetParams {
        pops: 8,
        platforms_per_pop: 2,
        clients_per_pop: 1,
        seed: SEED,
    });
    let mut ctl = Controller::new(topo);
    for i in 0..CLIENTS {
        ctl.register_client(
            format!("tenant{i}"),
            RequesterClass::Client,
            vec![CLIENT_ADDR],
        );
    }
    let (standing, window) = requests();
    let mut lines = Vec::new();
    let mut deploy = |ctl: &mut Controller, (client, text): &Request| {
        let outcome = ctl.deploy(client, ClientRequest::parse(text).unwrap());
        lines.push(decision(&outcome));
        outcome.ok().map(|r| r.module_id)
    };
    for r in &standing {
        deploy(&mut ctl, r).expect("standing modules are accepted");
    }
    for _ in 0..2 {
        let live: Vec<u64> = window.iter().filter_map(|r| deploy(&mut ctl, r)).collect();
        ctl.invalidate_verdicts();
        for id in live {
            ctl.kill(id).unwrap();
        }
    }
    assert_eq!(ctl.modules().len(), STANDING);

    let golden: Vec<&str> = include_str!("golden/placement_decisions.txt")
        .lines()
        .collect();
    assert_eq!(lines.len(), golden.len(), "decision count");
    for (i, (got, want)) in lines.iter().zip(&golden).enumerate() {
        assert_eq!(got, want, "decision {i} moved");
    }
    // Platforms fill and the nearest ones are not the only ones used, so
    // the ranking, the capacity check and the address walk all took part.
    let platforms: std::collections::HashSet<&str> = golden
        .iter()
        .filter_map(|l| l.strip_prefix("accept ")?.split(' ').next())
        .collect();
    assert!(platforms.len() > 2, "only {platforms:?} were ever chosen");

    assert_eq!(
        counters(&ctl.stats()),
        [
            ("requests", 240),
            ("accepted", 212),
            ("rejected", 28),
            ("cache_hits", 46),
            ("cache_misses", 194),
            ("cache_invalidations", 194),
            ("fastpath_hits", 0),
            ("fastpath_fallbacks", 0),
            ("lint_rejects", 0),
            ("lint_cache_hits", 144),
            ("hop_cap_bailouts", 0),
            ("visit_cap_bailouts", 0),
            ("security_checks", 194),
            ("placement_rejects", 0),
        ]
    );
}
