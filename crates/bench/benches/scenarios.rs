//! Fleet scenario engine: regional failover, flash crowds, executed
//! consolidation, and CDN tiering under a gravity-model traffic matrix.
//!
//! Four scenarios driven through the [`FleetDriver`] timeline over a
//! generated thousand-node fleet, recorded to `BENCH_scenarios.json`:
//!
//! * **kill-pop** — a PoP dies at t=1s under live traffic; every
//!   affected tenant must re-home through the controller's ranked
//!   placement ([`ControllerHooks`]), with per-tenant downtime and
//!   placement-decision latency recorded.
//! * **flash-crowd** — one PoP's demand multiplies 8× mid-run; the
//!   bandwidth-priced fabric accounts queueing and tail drops.
//! * **consolidate** — `plan_fleet`'s stateless consolidation moves are
//!   *executed* on the data plane via live migration, not just planned.
//! * **cdn-tier** — a stateless origin replicates onto edge platforms;
//!   edge-ingress traffic stops crossing the fabric.

use std::net::Ipv4Addr;

use innet::click::ClickConfig;
use innet::controller::InstalledModule;
use innet::platform::ScenarioHooks as _;
use innet::prelude::*;
use innet::topology::{generate_fleet, FleetParams, NodeId, Topology};
use innet_bench::{quick_mode, Report, Snapshot};

const SEC: u64 = 1_000_000_000;

fn filter_config() -> ClickConfig {
    ClickConfig::parse(
        "FromNetfront() -> IPFilter(allow udp, allow icmp, allow tcp) -> ToNetfront();",
    )
    .expect("tenant config parses")
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Registers `n` tenants on the fleet — the first half clustered on the
/// platforms of PoP `cluster_pop`, the rest round-robin across the other
/// platforms — and mirrors them as installed modules so the controller
/// hook sees the same placement. Returns the tenant addresses.
fn seed_tenants(
    fleet: &mut Fleet,
    ctl: &mut Controller,
    topo: &Topology,
    n: usize,
    cluster_pop: usize,
    stateful: bool,
) -> Vec<Ipv4Addr> {
    let platforms = fleet.platforms();
    let clustered: Vec<NodeId> = platforms
        .iter()
        .copied()
        .filter(|&p| topo.pop_of(p) == Some(cluster_pop))
        .collect();
    let others: Vec<NodeId> = platforms
        .iter()
        .copied()
        .filter(|&p| topo.pop_of(p) != Some(cluster_pop))
        .collect();
    assert!(!clustered.is_empty() && !others.is_empty());
    let config = filter_config();
    let mut modules = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..n {
        let addr = Ipv4Addr::new(198, 18, (i / 250) as u8, (i % 250) as u8 + 1);
        let home = if i < n / 2 {
            clustered[i % clustered.len()]
        } else {
            others[i % others.len()]
        };
        fleet
            .register(
                home,
                ClientEntry {
                    addr,
                    config: config.clone(),
                    stateful,
                },
            )
            .expect("home platform exists");
        modules.push(InstalledModule {
            id: i as u64,
            name: format!("tenant{i}"),
            platform: home,
            addr,
            config: config.clone(),
            sandboxed: false,
            owner: format!("owner{}", i % 7),
        });
        addrs.push(addr);
    }
    ctl.adopt_modules(modules);
    addrs
}

fn matrix(topo: &Topology, tenants: &[Ipv4Addr], pps: u64) -> TrafficMatrix {
    TrafficMatrix::gravity(
        topo,
        tenants,
        &TrafficParams {
            seed: 0x5702_2015,
            total_pps: pps,
            ..TrafficParams::default()
        },
    )
}

fn main() {
    let (params, tenants_n, pps) = if quick_mode() {
        (
            FleetParams {
                pops: 8,
                platforms_per_pop: 2,
                clients_per_pop: 1,
                seed: 42,
            },
            12,
            400,
        )
    } else {
        (FleetParams::default(), 48, 2_000)
    };
    let topo = generate_fleet(&params);
    let nodes = topo.nodes.len();

    let mut r = Report::new(
        "scenarios",
        "Fleet scenarios: failover, flash crowds, consolidation, CDN tiering",
    );
    r.line(&format!(
        "generated topology: {nodes} nodes, {} platforms (seed {})",
        topo.platforms().len(),
        params.seed
    ));
    r.blank();
    r.line(&format!(
        "{:>12} {:>8} {:>8} {:>16} {:>16} {:>11}",
        "scenario", "tenants", "rehomed", "rehome p50 (ms)", "rehome p99 (ms)", "link drops"
    ));
    let mut snap = Snapshot::new("scenarios");

    // -- kill-pop: regional failover under live traffic -------------------
    {
        let mut fleet = Fleet::new(&topo);
        let mut ctl = Controller::new(topo.clone());
        let tenants = seed_tenants(&mut fleet, &mut ctl, &topo, tenants_n, 0, true);
        let affected: Vec<Ipv4Addr> = tenants
            .iter()
            .copied()
            .filter(|&a| topo.pop_of(fleet.location(a).unwrap()) == Some(0))
            .collect();
        assert!(!affected.is_empty(), "the doomed PoP hosts tenants");
        let run = FleetDriver::new(fleet)
            .until(3 * SEC)
            .traffic(matrix(&topo, &tenants, pps))
            .hooks(ControllerHooks::new(&ctl))
            .events(Scenario::new("kill-pop").at(SEC, ScenarioEvent::KillPop { pop: 0 }))
            .run();
        assert_eq!(
            run.rehomes.len(),
            affected.len(),
            "every affected tenant gets a failover record"
        );
        assert!(
            run.rehomes.iter().all(|rec| rec.to.is_some()),
            "every affected tenant re-homes"
        );
        for a in &affected {
            let loc = run.fleet.location(*a).expect("tenant still registered");
            assert!(run.fleet.is_alive(loc), "re-homed off the dead PoP");
        }
        let mut downtimes: Vec<u64> = run.rehomes.iter().map(|rec| rec.downtime_ns).collect();
        downtimes.sort_unstable();
        let (p50, p99) = (percentile(&downtimes, 0.50), percentile(&downtimes, 0.99));
        let mut decisions: Vec<u64> = run.rehomes.iter().map(|rec| rec.decision_ns).collect();
        decisions.sort_unstable();
        r.line(&format!(
            "{:>12} {:>8} {:>8} {:>16.1} {:>16.1} {:>11}",
            "kill-pop",
            tenants.len(),
            run.rehomes.len(),
            p50 as f64 / 1e6,
            p99 as f64 / 1e6,
            run.stats.link_drops
        ));
        r.line(&format!(
            "{:>12} ranked-placement decision p50 {:.1} us, p99 {:.1} us; \
             reroutes {}, dead drops {}",
            "",
            percentile(&decisions, 0.50) as f64 / 1e3,
            percentile(&decisions, 0.99) as f64 / 1e3,
            run.stats.reroutes,
            run.stats.dead_drops
        ));
        snap.row([
            ("scenario", "kill-pop".into()),
            ("tenants", (tenants.len() as u64).into()),
            (
                "rehomed",
                (run.rehomes.iter().filter(|rec| rec.to.is_some()).count() as u64).into(),
            ),
            ("rehome_p50_ns", p50.into()),
            ("rehome_p99_ns", p99.into()),
            ("link_drops", run.stats.link_drops.into()),
        ]);
    }

    // -- flash-crowd: one PoP surges 8x, bandwidth is priced --------------
    {
        let mut fleet = Fleet::new(&topo);
        let mut ctl = Controller::new(topo.clone());
        let tenants = seed_tenants(&mut fleet, &mut ctl, &topo, tenants_n, 1, false);
        let run = FleetDriver::new(fleet)
            .until(3 * SEC)
            .traffic(matrix(&topo, &tenants, pps))
            .events(Scenario::new("flash-crowd").at(
                SEC,
                ScenarioEvent::FlashCrowd {
                    pop: 1,
                    multiplier: 8,
                },
            ))
            .rebalance_every(SEC, 2)
            .run();
        assert!(run.traffic_injected > 0, "the matrix drives traffic");
        r.line(&format!(
            "{:>12} {:>8} {:>8} {:>16.1} {:>16.1} {:>11}",
            "flash-crowd",
            tenants.len(),
            0,
            0.0,
            0.0,
            run.stats.link_drops
        ));
        r.line(&format!(
            "{:>12} injected {} matrix packets, {} demand-aware rebalance moves",
            "",
            run.traffic_injected,
            run.rebalance_moves.len()
        ));
        snap.row([
            ("scenario", "flash-crowd".into()),
            ("tenants", (tenants.len() as u64).into()),
            ("rehomed", 0u64.into()),
            ("rehome_p50_ns", 0u64.into()),
            ("rehome_p99_ns", 0u64.into()),
            ("link_drops", run.stats.link_drops.into()),
        ]);
    }

    // -- consolidate: plan_fleet's moves executed on the data plane -------
    {
        let mut fleet = Fleet::new(&topo);
        let mut ctl = Controller::new(topo.clone());
        let tenants = seed_tenants(&mut fleet, &mut ctl, &topo, tenants_n, 2, false);
        let planned = ControllerHooks::new(&ctl).plan_consolidation(&fleet).len();
        let run = FleetDriver::new(fleet)
            .until(120 * SEC)
            .hooks(ControllerHooks::new(&ctl))
            .events(Scenario::new("consolidate").at(SEC, ScenarioEvent::ExecuteConsolidation))
            .run();
        assert!(
            !run.consolidation_moves.is_empty(),
            "consolidation executes moves, not just plans them"
        );
        assert_eq!(
            run.stats.migrations_completed,
            run.consolidation_moves.len() as u64,
            "every started consolidation move completes"
        );
        r.line(&format!(
            "{:>12} {:>8} {:>8} {:>16.1} {:>16.1} {:>11}",
            "consolidate",
            tenants.len(),
            0,
            0.0,
            0.0,
            run.stats.link_drops
        ));
        r.line(&format!(
            "{:>12} planned {planned} moves, executed {} live migrations",
            "",
            run.consolidation_moves.len()
        ));
        snap.row([
            ("scenario", "consolidate".into()),
            ("tenants", (tenants.len() as u64).into()),
            ("rehomed", 0u64.into()),
            ("rehome_p50_ns", 0u64.into()),
            ("rehome_p99_ns", 0u64.into()),
            ("link_drops", run.stats.link_drops.into()),
        ]);
    }

    // -- cdn-tier: edge replicas absorb edge-ingress traffic --------------
    {
        let mut fleet = Fleet::new(&topo);
        let platforms = fleet.platforms();
        let origin = Ipv4Addr::new(203, 0, 113, 80);
        fleet
            .register(
                platforms[0],
                ClientEntry {
                    addr: origin,
                    config: filter_config(),
                    stateful: false,
                },
            )
            .unwrap();
        let edges: Vec<NodeId> = platforms.iter().copied().skip(1).take(4).collect();
        let mut driver =
            FleetDriver::new(fleet)
                .until(3 * SEC)
                .events(Scenario::new("cdn-tier").at(
                    SEC,
                    ScenarioEvent::CdnTier {
                        origin,
                        edges: edges.clone(),
                    },
                ));
        // The same edge-ingress flow before and after tiering: the
        // pre-tier packets cross the fabric to the origin, the post-tier
        // packets are served by the local replica.
        for (i, &edge) in edges.iter().enumerate() {
            let mk = |seq: u16| {
                PacketBuilder::udp()
                    .src(Ipv4Addr::new(8, 8, 8, 8), seq)
                    .dst(origin, 1500)
                    .build()
            };
            driver = driver
                .inject_at(SEC / 2, edge, mk(1000 + i as u16))
                .inject_at(2 * SEC, edge, mk(2000 + i as u16));
        }
        let run = driver.run();
        assert_eq!(run.cdn_edges, edges.len(), "every edge holds a replica");
        assert_eq!(
            run.stats.fabric_forwards,
            edges.len() as u64,
            "only the pre-tier packets crossed the fabric"
        );
        r.line(&format!(
            "{:>12} {:>8} {:>8} {:>16.1} {:>16.1} {:>11}",
            "cdn-tier", 1, 0, 0.0, 0.0, run.stats.link_drops
        ));
        r.line(&format!(
            "{:>12} {} edge replicas, fabric crossings {} -> 0 after tiering",
            "", run.cdn_edges, run.stats.fabric_forwards
        ));
        snap.row([
            ("scenario", "cdn-tier".into()),
            ("tenants", 1u64.into()),
            ("rehomed", 0u64.into()),
            ("rehome_p50_ns", 0u64.into()),
            ("rehome_p99_ns", 0u64.into()),
            ("link_drops", run.stats.link_drops.into()),
        ]);
    }

    r.finish();
    snap.write();
}
