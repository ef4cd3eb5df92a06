//! Integration tests for the fleet's wake index (DESIGN.md §15): the
//! fleet advances only the sites a timeline item touched or whose host
//! has a VM mid-transition, and that must be invisible in every output.
//!
//! Two contracts:
//!
//! 1. **Outputs are pinned.** A seeded generator draws small scenarios
//!    (3–12 platforms; random `KillPop` / `FlashCrowd` /
//!    `ExecuteConsolidation` / `CdnTier` / `migrate` / `reclaim_every` /
//!    `rebalance_every` mixes under a gravity matrix) and an FNV digest
//!    over the transmissions, the fleet counters and the summed switch
//!    counters of each run is compared with constants recorded on the
//!    every-site sweep this index replaced.
//! 2. **Cost follows activity, not registration.** The same scenario on
//!    the same fleet padded with idle platforms yields the same outputs
//!    and the same counts — including how many hosts were advanced.

use std::net::Ipv4Addr;

use innet::click::fnv1a_64;
use innet::platform::{DriverRun, FleetStats, SwitchStats};
use innet::prelude::*;
use innet::topology::{generate_fleet, FleetParams, NodeId, NodeKind, PlatformSpec};
use rand::{rngs::StdRng, Rng, SeedableRng};

const MS: u64 = 1_000_000;
const SEC: u64 = 1_000 * MS;

fn filter_entry(addr: Ipv4Addr, stateful: bool) -> ClientEntry {
    ClientEntry {
        addr,
        config: ClickConfig::parse(
            "FromNetfront() -> IPFilter(allow udp, allow icmp, allow tcp) -> ToNetfront();",
        )
        .unwrap(),
        stateful,
    }
}

fn tenant_addr(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(198, 18, 0, i as u8 + 1)
}

/// FNV-1a digest of everything a run emitted and counted: `out` as
/// (platform, iface, bytes) in order, the fleet counters the sweep
/// already had (by name, so a new counter cannot move the pin), and the
/// switch counters summed over the fleet.
fn digest(run: &DriverRun) -> u64 {
    let mut bytes = Vec::new();
    let word = |bytes: &mut Vec<u8>, v: u64| bytes.extend(v.to_le_bytes());
    for (platform, iface, pkt) in &run.out {
        word(&mut bytes, *platform as u64);
        word(&mut bytes, u64::from(*iface));
        word(&mut bytes, pkt.len() as u64);
        bytes.extend(pkt.bytes());
    }
    let s = run.stats;
    let sw = run.fleet.aggregate_switch_stats();
    for v in [
        s.injected,
        s.fabric_forwards,
        s.migration_buffered,
        s.migrations_started,
        s.migrations_completed,
        s.migrations_failed,
        s.host_errors,
        s.link_drops,
        s.no_path_drops,
        s.reroutes,
        s.dead_drops,
        s.rehomes,
        sw.packets,
        sw.boots,
        sw.resumes,
        sw.delivered,
        sw.buffered,
        sw.dropped,
        sw.unknown,
    ] {
        word(&mut bytes, v);
    }
    fnv1a_64(&bytes)
}

/// One generated scenario, run to its horizon.
fn generated_run(seed: u64) -> DriverRun {
    let mut rng = StdRng::seed_from_u64(seed);
    let pops = rng.gen_range(3u32..=4);
    let topo = generate_fleet(&FleetParams {
        pops,
        platforms_per_pop: rng.gen_range(1u32..=3),
        clients_per_pop: 1,
        seed,
    });
    let mut fleet = Fleet::new(&topo);
    let platforms = fleet.platforms();
    assert!((3..=12).contains(&platforms.len()));
    let pick = |rng: &mut StdRng, from: &[NodeId]| from[rng.gen_range(0..from.len())];

    let tenants: Vec<Ipv4Addr> = (0..rng.gen_range(4usize..=10)).map(tenant_addr).collect();
    let mut stateless = Vec::new();
    for &addr in &tenants {
        let stateful = rng.gen_bool(0.5);
        if !stateful {
            stateless.push(addr);
        }
        let home = pick(&mut rng, &platforms);
        fleet.register(home, filter_entry(addr, stateful)).unwrap();
    }
    let matrix = TrafficMatrix::gravity(
        &topo,
        &tenants,
        &TrafficParams {
            seed,
            total_pps: rng.gen_range(200u64..=800),
            frame_len: 128,
            ..TrafficParams::default()
        },
    );

    let mut scenario = Scenario::new(format!("generated-{seed}"));
    let mut driver = FleetDriver::new(fleet).until(3 * SEC).traffic(matrix);
    let mut killed = false;
    for _ in 0..rng.gen_range(3usize..=6) {
        let at = rng.gen_range(200 * MS..=2_500 * MS);
        let pop = rng.gen_range(0..pops) as usize;
        match rng.gen_range(0u32..5) {
            0 if !killed => {
                killed = true;
                scenario = scenario.at(at, ScenarioEvent::KillPop { pop });
            }
            1 => {
                let multiplier = rng.gen_range(2u32..=6);
                scenario = scenario.at(at, ScenarioEvent::FlashCrowd { pop, multiplier });
            }
            2 => scenario = scenario.at(at, ScenarioEvent::ExecuteConsolidation),
            3 if !stateless.is_empty() => {
                let origin = stateless[rng.gen_range(0..stateless.len())];
                let edges = vec![pick(&mut rng, &platforms), pick(&mut rng, &platforms)];
                scenario = scenario.at(at, ScenarioEvent::CdnTier { origin, edges });
            }
            _ => {
                let addr = tenants[rng.gen_range(0..tenants.len())];
                driver = driver.migrate(at, addr, pick(&mut rng, &platforms));
            }
        }
    }
    // Idle thresholds on the order of a tenant's packet gap, so reclaim
    // ticks really suspend and destroy VMs with traffic still arriving.
    if rng.gen_bool(0.6) {
        let period = rng.gen_range(300 * MS..=1_000 * MS);
        driver = driver.reclaim_every(period, rng.gen_range(5 * MS..=60 * MS));
    }
    if rng.gen_bool(0.6) {
        let period = rng.gen_range(500 * MS..=1_500 * MS);
        driver = driver.rebalance_every(period, rng.gen_range(1usize..=3));
    }
    // Home-delivery packets beside the matrix, one to nobody.
    for i in 0..8u16 {
        let dst = match i {
            7 => Ipv4Addr::new(9, 9, 9, 9),
            _ => tenants[rng.gen_range(0..tenants.len())],
        };
        let pkt = PacketBuilder::udp()
            .src(Ipv4Addr::new(8, 8, 8, 8), 40_000 + i)
            .dst(dst, 1500)
            .build();
        driver = driver.inject(rng.gen_range(0..3 * SEC), pkt);
    }
    driver.events(scenario).run()
}

/// Digests of `generated_run(seed)` for seeds `0..PINNED.len()`,
/// recorded on the parent commit (a039dca), where `Fleet::advance`
/// still swept every site after every timeline item.
const PINNED: [u64; 40] = [
    0x2348_23ae_c434_f345,
    0x8e29_7d2b_7c1e_6771,
    0x5aa8_1b34_9a20_a252,
    0xe5dc_ddb5_7e04_ac30,
    0xdab1_5aa0_7a52_302a,
    0xb240_2d76_c6a4_3696,
    0x7d42_4885_52aa_0b97,
    0xe19c_b945_f1fd_9084,
    0xe22e_56fa_24d1_305e,
    0xac71_0e26_db33_fbdb,
    0x969f_a173_2053_7877,
    0xb894_fc40_3bd7_65f5,
    0x0f89_8a6c_7fb1_438a,
    0xe9ab_0fc0_2e51_e1cc,
    0x9725_c33f_0f5c_c080,
    0x507a_238e_496f_6f0c,
    0x7bde_7a5e_8e50_0b43,
    0xfa59_d970_a8ef_34bb,
    0x48db_b1fe_1d6c_fa32,
    0xe606_2388_233e_3786,
    0xd6a1_48fe_86e5_a14a,
    0x8e57_9bc9_6b85_69b3,
    0xb968_8e4a_a25f_7c35,
    0xdb73_41f1_a4ab_9599,
    0x5cd5_7e8a_53f2_3e2a,
    0x8ad0_bf02_7245_2d22,
    0xe089_0763_50aa_aa57,
    0xc3c4_0c3c_18a3_4580,
    0xfed6_4946_a187_c4f7,
    0xe241_1ee3_df53_0830,
    0x76f5_4c35_535e_8126,
    0x1d6b_1ed7_7364_9ec5,
    0x9c0f_e293_dafc_cf61,
    0xc445_99de_b732_22d0,
    0x662f_20aa_317d_327b,
    0x9b3a_afb9_0ba8_0e3e,
    0x8022_758f_fa52_735e,
    0x3fe7_d002_0b9b_a1f6,
    0x1614_74be_35f6_73c2,
    0x8c24_aa80_f8d9_a667,
];

#[test]
fn generated_scenarios_match_the_digests_pinned_on_the_sweep() {
    let mut seen = FleetStats::default();
    let (mut resumes, mut boots) = (0, 0);
    let got: Vec<u64> = (0..PINNED.len() as u64)
        .map(|seed| {
            let run = generated_run(seed);
            let s = run.stats;
            seen.fabric_forwards += s.fabric_forwards;
            seen.migration_buffered += s.migration_buffered;
            seen.migrations_completed += s.migrations_completed;
            seen.reroutes += s.reroutes;
            seen.dead_drops += s.dead_drops;
            seen.rehomes += s.rehomes;
            let sw = run.fleet.aggregate_switch_stats();
            resumes += sw.resumes;
            boots += sw.boots;
            digest(&run)
        })
        .collect();
    // The generator reaches the paths the wake index has to get right.
    assert!(seen.fabric_forwards > 0 && seen.migration_buffered > 0);
    assert!(seen.migrations_completed > 0 && seen.rehomes > 0);
    assert!(seen.reroutes + seen.dead_drops > 0);
    assert!(boots > 0 && resumes > 0, "reclaim ticks suspended VMs");
    let rendered: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
    assert_eq!(got, PINNED, "digests:\n    {},", rendered.join(",\n    "));
}

/// A PoP kill, a flash crowd, one live migration and three reclaim ticks
/// under a gravity matrix, on an 8-platform fleet padded with `pad`
/// platforms that nothing can select: they are appended last (existing
/// `NodeId`s keep their values), have no link (no ingress, no fabric
/// path) and no tenant slot (no re-home lands there).
fn padded_run(pad: usize) -> DriverRun {
    let mut topo = generate_fleet(&FleetParams {
        pops: 4,
        platforms_per_pop: 2,
        clients_per_pop: 1,
        seed: 7,
    });
    let base = topo.platforms();
    for i in 0..pad {
        let spec = PlatformSpec {
            capacity: 0,
            ..PlatformSpec::default()
        };
        topo.add(format!("idle{i}"), NodeKind::Platform(spec))
            .unwrap();
    }
    let mut fleet = Fleet::new(&topo);
    assert_eq!(fleet.platforms().len(), base.len() + pad);
    assert_eq!(fleet.platforms()[..base.len()], base[..]);
    let tenants: Vec<Ipv4Addr> = (0..8).map(tenant_addr).collect();
    for (i, &addr) in tenants.iter().enumerate() {
        fleet
            .register(base[i], filter_entry(addr, i % 2 == 0))
            .unwrap();
    }
    let matrix = TrafficMatrix::gravity(
        &topo,
        &tenants,
        &TrafficParams {
            seed: 7,
            total_pps: 600,
            frame_len: 128,
            ..TrafficParams::default()
        },
    );
    // Tenant 2 is stateful and homed outside the doomed PoP 0.
    assert!(topo.pop_of(base[2]) != Some(0) && topo.pop_of(base[5]) != Some(0));
    FleetDriver::new(fleet)
        .until(3 * SEC)
        .traffic(matrix)
        .events(
            Scenario::new("padded")
                .at(800 * MS, ScenarioEvent::KillPop { pop: 0 })
                .at(
                    1_500 * MS,
                    ScenarioEvent::FlashCrowd {
                        pop: 1,
                        multiplier: 4,
                    },
                ),
        )
        .migrate(1_200 * MS, tenants[2], base[5])
        .reclaim_every(SEC, 20 * MS)
        .run()
}

#[test]
fn idle_platforms_change_no_output_and_no_count() {
    let (lean, padded) = (padded_run(0), padded_run(64));
    assert_eq!(lean.out, padded.out, "byte- and order-identical");
    assert_eq!(lean.stats, padded.stats, "site_advances included");
    assert_eq!(lean.errors, padded.errors);
    let outcome = |run: &DriverRun| -> Vec<(Ipv4Addr, NodeId, Option<NodeId>, u64)> {
        let of = |r: &innet::platform::RehomeRecord| (r.addr, r.from, r.to, r.downtime_ns);
        run.rehomes.iter().map(of).collect()
    };
    assert_eq!(outcome(&lean), outcome(&padded));
    assert_eq!(lean.fleet.migrations(), padded.fleet.migrations());
    for p in lean.fleet.platforms() {
        let stats = |run: &DriverRun| run.fleet.switch(p).unwrap().stats();
        assert_eq!(stats(&lean), stats(&padded), "switch at platform {p}");
    }
    for addr in (0..8).map(tenant_addr) {
        let usage = |run: &DriverRun| {
            let home = run.fleet.location(addr).unwrap();
            (home, run.fleet.switch(home).unwrap().usage(addr))
        };
        assert_eq!(usage(&lean), usage(&padded), "tenant {addr}");
    }
    for &p in &padded.fleet.platforms()[lean.fleet.platforms().len()..] {
        let sw = padded.fleet.switch(p).unwrap();
        assert_eq!(sw.stats(), SwitchStats::default(), "pad {p} saw a packet");
    }

    // The scenario did what its name says, and advanced hosts only when
    // a VM transition was due — not once per site per timeline item.
    let s = lean.stats;
    assert!(s.injected > 1_500 && s.rehomes > 0 && s.fabric_forwards > 0);
    assert_eq!(s.migrations_completed, 1);
    assert!(lean.fleet.aggregate_switch_stats().resumes > 0, "reclaimed");
    assert!(s.site_advances > 0 && s.site_advances * 8 < s.injected);
}
