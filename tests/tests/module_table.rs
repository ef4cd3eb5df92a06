//! The controller's placement index is a pure function of its module
//! list.
//!
//! `Controller` answers "does this platform have room", "in which order
//! are platforms tried" and "which addresses are taken" from views it
//! keeps up to date at every commit and `kill` instead of recounting the
//! installed modules. This test drives seeded random interleavings of
//! every operation that writes the module list — `deploy` (accepts,
//! rejects, verdict-cache hits, hits re-placed because the cached
//! platform filled up), `kill`, `adopt_modules` and `deploy_batch` — on
//! Figure 3 and on a small generated fleet, both with a handful of slots
//! per platform so platforms fill, and after every step compares what the
//! controller reports with a recount over `modules()`:
//! `ranked_platforms()` against [`PlacementContext::rank`] (the
//! from-scratch definition of the order, which moves with every used
//! count because a slot is a large share of a tiny platform),
//! `platform_has_room` against used < capacity, `flow_rules()` against
//! one rule per module, and `(platform, address)` uniqueness. The suite
//! runs unoptimised, so the table's own `debug_assert` (used counts and
//! address sets equal a recount) is armed on every write as well.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use innet::controller::{FlowRule, PlacementContext};
use innet::prelude::*;
use innet::topology::{generate_fleet, FleetParams, NodeKind};
use rand::{rngs::StdRng, Rng, SeedableRng};

const CLIENT_ADDR: Ipv4Addr = Ipv4Addr::new(172, 16, 15, 133);
const CLIENTS: usize = 3;
const STEPS: usize = 30;

/// Chains that verify cleanly for a client delivering to `CLIENT_ADDR`.
const STOCK: &[&str] = &[
    "FromNetfront() -> IPFilter(allow udp dst port 1500) -> Counter() \
     -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();",
    "FromNetfront() -> IPFilter(allow tcp dst port 80) -> DecIPTTL() \
     -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();",
];

/// Every platform's capacity cut down to 1–3 slots.
fn shrink(mut topo: Topology, rng: &mut StdRng) -> Topology {
    for node in &mut topo.nodes {
        if let NodeKind::Platform(spec) = &mut node.kind {
            spec.capacity = rng.gen_range(1..=3);
        }
    }
    topo
}

/// A request drawn from a small pool, so exact repeats (verdict-cache
/// hits) are common: renamed stock chains, spoofers, and a chain with a
/// `reach` requirement (placement-constrained: never re-placed).
fn request(rng: &mut StdRng) -> (String, ClientRequest) {
    let name = format!("m{}", rng.gen_range(0..4));
    let text = match rng.gen_range(0..10) {
        0..=6 => format!("module {name}:\n{}", STOCK[rng.gen_range(0..STOCK.len())]),
        7 => format!("module {name}:\nFromNetfront() -> SetIPSrc(8.8.8.8) -> ToNetfront();"),
        _ => format!(
            "module {name}:\nFromNetfront() -> IPFilter(allow udp dst port 1500) \
             -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> dst :: ToNetfront();\n\
             reach from internet udp -> {name}:dst:0 dst 172.16.15.133 -> client dst port 1500"
        ),
    };
    let client = format!("tenant{}", rng.gen_range(0..CLIENTS));
    (client, ClientRequest::parse(&text).unwrap())
}

/// What happened over a run of sequences, so the test can tell it
/// exercised every path it names.
#[derive(Default)]
struct Seen {
    accepts: u64,
    rejects: u64,
    hits: u64,
    replaced_hits: u64,
    kills: u64,
    adoptions: u64,
    batches: u64,
    full_platforms: u64,
}

/// Everything the controller reports about placement, against a recount.
fn check(ctl: &Controller, oracle: &PlacementContext, seen: &mut Seen, what: &str) {
    let topo = ctl.topology();
    let modules = ctl.modules();
    let mut used: HashMap<usize, usize> = HashMap::new();
    let mut held = HashSet::new();
    let mut ids = HashSet::new();
    for m in modules {
        *used.entry(m.platform).or_insert(0) += 1;
        assert!(held.insert((m.platform, m.addr)), "{what}: address reused");
        assert!(ids.insert(m.id), "{what}: id reused");
    }
    assert_eq!(
        ctl.ranked_platforms(),
        oracle.rank(topo, &used),
        "{what}: placement order is not rank() over the module list"
    );
    for p in topo.platforms() {
        let NodeKind::Platform(spec) = &topo.node(p).kind else {
            unreachable!()
        };
        let room = used.get(&p).copied().unwrap_or(0) < spec.capacity;
        assert_eq!(
            ctl.platform_has_room(&topo.node(p).name),
            room,
            "{what}: room on {}",
            topo.node(p).name
        );
        seen.full_platforms += u64::from(!room);
    }
    let rules: Vec<FlowRule> = modules
        .iter()
        .map(|m| FlowRule {
            platform: topo.node(m.platform).name.clone(),
            dst: m.addr,
            module: m.id,
        })
        .collect();
    assert_eq!(ctl.flow_rules(), rules, "{what}: one flow rule per module");
}

/// One seeded interleaving on `topo`.
fn sequence(topo: Topology, rng: &mut StdRng, seen: &mut Seen) {
    let oracle = PlacementContext::new(&topo);
    let mut ctl = Controller::new(topo);
    for i in 0..CLIENTS {
        ctl.register_client(
            format!("tenant{i}"),
            RequesterClass::Client,
            vec![CLIENT_ADDR],
        );
    }
    check(&ctl, &oracle, seen, "empty");
    // Where each request last landed, to recognise a re-placed hit.
    let mut landed: HashMap<String, String> = HashMap::new();
    for step in 0..STEPS {
        let what = match rng.gen_range(0..10) {
            0..=5 => {
                let (client, req) = request(rng);
                let key = format!("{client}/{req:?}");
                let hits = ctl.stats().cache_hits;
                let outcome = ctl.deploy(&client, req);
                let hit = ctl.stats().cache_hits > hits;
                seen.hits += u64::from(hit);
                match outcome {
                    Ok(resp) => {
                        seen.accepts += 1;
                        let before = landed.insert(key, resp.platform.clone());
                        seen.replaced_hits +=
                            u64::from(hit && before.is_some_and(|p| p != resp.platform));
                    }
                    Err(_) => seen.rejects += 1,
                }
                "deploy"
            }
            6 | 7 => {
                // A live module, or now and then an id nobody holds.
                let n = ctl.modules().len();
                let id = match n {
                    0 => 9_999,
                    _ if rng.gen_bool(0.1) => 9_999,
                    _ => ctl.modules()[rng.gen_range(0..n)].id,
                };
                seen.kills += u64::from(ctl.kill(id).is_ok());
                "kill"
            }
            8 => {
                // Adopt the current set back, reversed and with some
                // modules dropped.
                let mut kept: Vec<_> = ctl.modules().to_vec();
                kept.retain(|_| rng.gen_bool(0.7));
                kept.reverse();
                ctl.adopt_modules(kept);
                seen.adoptions += 1;
                "adopt_modules"
            }
            _ => {
                let batch: Vec<_> = (0..rng.gen_range(2..5)).map(|_| request(rng)).collect();
                let results = ctl.deploy_batch(batch, 2);
                seen.accepts += results.iter().filter(|r| r.is_ok()).count() as u64;
                seen.batches += 1;
                "deploy_batch"
            }
        };
        check(&ctl, &oracle, seen, &format!("step {step} ({what})"));
    }
}

#[test]
fn views_track_the_module_list_on_figure3() {
    let mut seen = Seen::default();
    for seed in 0..120 {
        let mut rng = StdRng::seed_from_u64(seed);
        sequence(shrink(Topology::figure3(), &mut rng), &mut rng, &mut seen);
    }
    assert_all_paths_taken(&seen);
}

#[test]
fn views_track_the_module_list_on_a_small_fleet() {
    let mut seen = Seen::default();
    for seed in 0..120 {
        let mut rng = StdRng::seed_from_u64(1_000 + seed);
        let topo = generate_fleet(&FleetParams {
            pops: 3,
            platforms_per_pop: 2,
            clients_per_pop: 1,
            seed,
        });
        sequence(shrink(topo, &mut rng), &mut rng, &mut seen);
    }
    assert_all_paths_taken(&seen);
}

fn assert_all_paths_taken(seen: &Seen) {
    assert!(seen.accepts > 100, "accepts: {}", seen.accepts);
    assert!(seen.rejects > 100, "rejects: {}", seen.rejects);
    assert!(seen.hits > 50, "cache hits: {}", seen.hits);
    assert!(seen.replaced_hits > 10, "re-placed: {}", seen.replaced_hits);
    assert!(seen.kills > 100, "kills: {}", seen.kills);
    assert!(seen.adoptions > 50, "adoptions: {}", seen.adoptions);
    assert!(seen.batches > 50, "batches: {}", seen.batches);
    assert!(seen.full_platforms > 100, "full: {}", seen.full_platforms);
}
