//! Fleet fabric: controller placement latency over a generated
//! thousand-node capacitated topology, plus live-migration downtime
//! through the multi-host switch fabric.
//!
//! Two measurements, recorded to `BENCH_fleet.json`:
//!
//! * **placement** — a cold controller over
//!   [`innet::topology::generate_fleet`] admits a corpus of requests
//!   (stock templates, randomized novel chains, and a 50/50 mix), each
//!   under a unique module name so the verdict cache never replays; the
//!   per-deploy wall time is the end-to-end admission + ranked-placement
//!   latency on a ~400-platform topology.
//! * **migration** — a [`innet::platform::Fleet`] over the same topology
//!   boots tenants on their home platforms, then live-migrates each to a
//!   neighbouring platform; the recorded downtime is the suspend →
//!   transfer → resume window during which the fleet buffers the
//!   tenant's traffic.

use std::net::Ipv4Addr;
use std::time::Instant;

use innet::click::ClickConfig;
use innet::controller::{ClientRequest, Controller};
use innet::packet::PacketBuilder;
use innet::prelude::*;
use innet::topology::{generate_fleet, FleetParams, Topology};
use innet_bench::{quick_mode, Report, Snapshot};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Stock templates: accepted pipelines a fleet deploys over and over
/// under fresh module names. Every chain ends by rewriting the
/// destination to the tenant's registered address (the Figure 4 idiom),
/// which satisfies the ownership rule for Client-class requesters.
const STOCK: &[&str] = &[
    "FromNetfront() -> CheckIPHeader() -> IPFilter(allow udp dst port 1500) \
     -> Counter() -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();",
    "FromNetfront() -> IPFilter(allow tcp dst port 80) -> DecIPTTL() \
     -> Counter() -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();",
    "FromNetfront() -> IPFilter(allow udp dst port 53) -> SetTOS(10) \
     -> Counter() -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();",
];

/// A novel one-off chain with randomized arguments, same delivery rule.
fn novel_config(rng: &mut StdRng) -> String {
    let tos = rng.gen_range(0u32..64);
    let paint = rng.gen_range(0u32..256);
    let port = rng.gen_range(1u32..1024);
    format!(
        "FromNetfront() -> IPFilter(allow udp dst port {port}) -> SetTOS({tos}) \
         -> Paint({paint}) -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();"
    )
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Drives `deploys` requests of the given mix through a cold controller
/// over `topo` and returns the sorted per-deploy latencies.
fn placement_storm(topo: &Topology, scenario: &str, deploys: usize, seed: u64) -> Vec<u64> {
    let mut c = Controller::new(topo.clone());
    c.register_client(
        "tenant",
        RequesterClass::Client,
        vec![Ipv4Addr::new(172, 16, 15, 133)],
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut latencies = Vec::with_capacity(deploys);
    for i in 0..deploys {
        let stock = match scenario {
            "stock" => true,
            "novel" => false,
            _ => i % 2 == 0,
        };
        let config = if stock {
            STOCK[rng.gen_range(0..STOCK.len())].to_string()
        } else {
            novel_config(&mut rng)
        };
        let req = ClientRequest::parse(&format!("module {scenario}{i}:\n{config}"))
            .expect("corpus configs parse");
        let t = Instant::now();
        let outcome = c.deploy("tenant", req);
        latencies.push(t.elapsed().as_nanos() as u64);
        assert!(outcome.is_ok(), "fleet corpus must admit: {outcome:?}");
    }
    latencies.sort_unstable();
    latencies
}

/// Boots `tenants` stateful VMs across the fleet's platforms, migrates
/// each to the next platform over the fabric, and returns the sorted
/// downtimes.
fn migration_run(topo: &Topology, tenants: usize) -> Vec<u64> {
    let mut fleet = Fleet::new(topo);
    let platforms = fleet.platforms();
    assert!(platforms.len() >= 2, "fleet topologies have many platforms");
    let config = ClickConfig::parse(
        "FromNetfront() -> IPFilter(allow udp, allow icmp, allow tcp) -> ToNetfront();",
    )
    .expect("entry config parses");
    let addrs: Vec<Ipv4Addr> = (0..tenants)
        .map(|i| Ipv4Addr::new(203, 0, 113, 10 + i as u8))
        .collect();
    for (i, &addr) in addrs.iter().enumerate() {
        let home = platforms[i % platforms.len()];
        fleet
            .register(
                home,
                ClientEntry {
                    addr,
                    config: config.clone(),
                    stateful: true,
                },
            )
            .expect("home platform exists");
    }
    // One driver timeline: the first packet of each flow boots its VM on
    // the fly at t=0; once every boot has completed, each tenant
    // live-migrates one platform over.
    let mut driver = FleetDriver::new(fleet).until(120_000_000_000);
    for (i, &addr) in addrs.iter().enumerate() {
        let pkt = PacketBuilder::udp()
            .src(Ipv4Addr::new(8, 8, 8, 8), 9000 + i as u16)
            .dst(addr, 1500)
            .build();
        let to = platforms[(i + 1) % platforms.len()];
        driver = driver.inject(0, pkt).migrate(5_000_000_000, addr, to);
    }
    let run = driver.run();
    assert_eq!(run.errors, 0, "every tenant VM is migratable");
    let mut downtimes: Vec<u64> = run
        .fleet
        .migrations()
        .iter()
        .map(|r| r.downtime_ns)
        .collect();
    assert_eq!(downtimes.len(), tenants, "every migration completes");
    downtimes.sort_unstable();
    downtimes
}

fn main() {
    let (params, deploys, tenants) = if quick_mode() {
        (
            FleetParams {
                pops: 20,
                platforms_per_pop: 2,
                clients_per_pop: 1,
                seed: 42,
            },
            24,
            4,
        )
    } else {
        (FleetParams::default(), 200, 16)
    };
    let topo = generate_fleet(&params);
    let nodes = topo.nodes.len() as u64;
    let platforms = topo.platforms().len() as u64;

    let mut r = Report::new(
        "fleet",
        "Fleet fabric: placement latency and live-migration downtime",
    );
    r.line(&format!(
        "generated topology: {nodes} nodes, {platforms} platforms (seed {})",
        params.seed
    ));
    r.blank();
    r.line(&format!(
        "{:>20} {:>10} {:>14} {:>14}",
        "scenario", "deploys", "place p50 (us)", "place p99 (us)"
    ));

    let mut snap = Snapshot::new("fleet");
    for scenario in ["stock", "novel", "mixed-stock-novel"] {
        let lat = placement_storm(&topo, scenario, deploys, 0x5702_2015);
        let p50 = percentile(&lat, 0.50);
        let p99 = percentile(&lat, 0.99);
        r.line(&format!(
            "{:>20} {:>10} {:>14.1} {:>14.1}",
            scenario,
            deploys,
            p50 as f64 / 1e3,
            p99 as f64 / 1e3
        ));
        let (migrations, d50, d99) = if scenario == "mixed-stock-novel" {
            let downtimes = migration_run(&topo, tenants);
            (
                downtimes.len() as u64,
                percentile(&downtimes, 0.50),
                percentile(&downtimes, 0.99),
            )
        } else {
            (0, 0, 0)
        };
        snap.row([
            ("scenario", scenario.into()),
            ("nodes", nodes.into()),
            ("platforms", platforms.into()),
            ("placements", (deploys as u64).into()),
            ("placement_p50_ns", p50.into()),
            ("placement_p99_ns", p99.into()),
            ("migrations", migrations.into()),
            ("downtime_p50_ns", d50.into()),
            ("downtime_p99_ns", d99.into()),
        ]);
        if migrations > 0 {
            r.blank();
            r.line(&format!(
                "live migration over the fabric: {migrations} tenants, downtime p50 {:.1} ms, \
                 p99 {:.1} ms",
                d50 as f64 / 1e6,
                d99 as f64 / 1e6
            ));
        }
    }
    r.finish();
    snap.write();
}
