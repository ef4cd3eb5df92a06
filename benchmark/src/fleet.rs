//! The fleet ladder: the `fleet-failover` workload and the rungs below a
//! simulated fleet packet (switch lookup → VM lifecycle → fabric hop →
//! driver timeline).

use std::net::Ipv4Addr;
use std::time::Instant;

use innet::click::ClickConfig;
use innet::controller::{Controller, ControllerHooks, InstalledModule};
use innet::packet::{Packet, PacketBuilder};
use innet::platform::{
    ClientEntry, DriverRun, Fleet, FleetDriver, FleetStats, Host, RehomeRecord, Scenario,
    ScenarioEvent, SwitchController, TrafficMatrix, TrafficParams,
};
use innet::topology::{generate_fleet, FleetParams, NodeId, Topology};

use crate::harness::{median_call_ns, metric, ns_since, summarize, Fnv, Metric};
use crate::trace::Tracer;
use crate::{steady, untraced_reps, Ladder, Rep, Samples, Scale, Workload};

const SEC: u64 = 1_000_000_000;
/// Virtual-time slice the run's wall time is sampled at.
const SLICE_NS: u64 = 10_000_000;
/// Quiet virtual time appended after the scenario so in-flight fabric
/// packets land and live migrations finish before conservation is
/// checked (outside the timed run).
const DRAIN_NS: u64 = 120 * SEC;

/// Generated inputs of the fleet workload: a topology, a tenant
/// population and a scenario, all derived from the seed.
pub struct FleetInputs {
    /// Generator parameters of `topo`.
    pub params: FleetParams,
    /// The operator fleet.
    pub topo: Topology,
    /// Tenants: half stateful, half clustered on PoP 0 (the one that
    /// dies).
    pub tenants: usize,
    /// Aggregate offered load of the gravity matrix, packets/second.
    pub pps: u64,
    /// Virtual duration of one run. PoP 0 dies at a third of it, PoP 1
    /// surges 8× at half, and load rebalances every third.
    pub horizon_ns: u64,
    /// Seed of the traffic matrix.
    pub seed: u64,
    /// FNV-1a over the topology, the demands and the scenario.
    pub digest: u64,
}

fn tenant_config() -> ClickConfig {
    ClickConfig::parse(
        "FromNetfront() -> IPFilter(allow udp, allow icmp, allow tcp) -> ToNetfront();",
    )
    .expect("valid literal config")
}

fn tenant_addr(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(198, 18, (i / 250) as u8, (i % 250) as u8 + 1)
}

/// The inputs of `fleet-failover`.
pub fn inputs(seed: u64, scale: Scale) -> FleetInputs {
    let (params, tenants, pps) = match scale {
        Scale::Full => (FleetParams::default(), 96, 5_000),
        Scale::Small => (
            FleetParams {
                pops: 8,
                platforms_per_pop: 2,
                clients_per_pop: 1,
                ..FleetParams::default()
            },
            12,
            1_000,
        ),
    };
    let params = FleetParams { seed, ..params };
    let mut inp = FleetInputs {
        topo: generate_fleet(&params),
        params,
        tenants,
        pps,
        horizon_ns: 3 * SEC,
        seed,
        digest: 0,
    };
    let mut h = Fnv::default();
    for n in &inp.topo.nodes {
        h.write(n.name.as_bytes());
    }
    for l in &inp.topo.links {
        for v in [l.from as u64, l.to as u64, l.bandwidth_bps, l.latency_ns] {
            h.write_u64(v);
        }
    }
    let addrs: Vec<Ipv4Addr> = (0..tenants).map(tenant_addr).collect();
    for d in inp.matrix(&addrs).demands() {
        for v in [
            d.subnet as u64,
            d.ingress as u64,
            u64::from(u32::from(d.tenant)),
            d.milli_pps,
        ] {
            h.write_u64(v);
        }
    }
    for v in [tenants as u64, pps, inp.horizon_ns] {
        h.write_u64(v);
    }
    inp.digest = h.0;
    inp
}

impl FleetInputs {
    fn matrix(&self, tenants: &[Ipv4Addr]) -> TrafficMatrix {
        TrafficMatrix::gravity(
            &self.topo,
            tenants,
            &TrafficParams {
                seed: self.seed,
                total_pps: self.pps,
                ..TrafficParams::default()
            },
        )
    }

    /// Registers the tenants on a fresh fleet — the first half spread
    /// over PoP 0's platforms, the rest round-robin elsewhere, every
    /// other one stateful — and mirrors them into the controller so its
    /// ranked placement sees the same occupancy.
    fn populate(&self, fleet: &mut Fleet, ctl: &mut Controller) -> Vec<Ipv4Addr> {
        let (doomed, others): (Vec<NodeId>, Vec<NodeId>) = fleet
            .platforms()
            .into_iter()
            .partition(|&p| self.topo.pop_of(p) == Some(0));
        let config = tenant_config();
        let mut modules = Vec::with_capacity(self.tenants);
        let addrs: Vec<Ipv4Addr> = (0..self.tenants).map(tenant_addr).collect();
        for (i, &addr) in addrs.iter().enumerate() {
            let home = if i < self.tenants / 2 {
                doomed[i % doomed.len()]
            } else {
                others[i % others.len()]
            };
            fleet
                .register(
                    home,
                    ClientEntry {
                        addr,
                        config: config.clone(),
                        stateful: i % 2 == 0,
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
        }
        ctl.adopt_modules(modules);
        addrs
    }
}

/// What one scenario run produced, beyond its timing.
pub struct RunFacts {
    /// Fleet counters at the scenario's horizon (before the drain).
    pub stats: FleetStats,
    /// Packets transmitted by tenant VMs up to the horizon.
    pub delivered: usize,
    /// Packets the traffic matrix injected.
    pub injected: u64,
    /// One record per stranded tenant.
    pub rehomes: Vec<RehomeRecord>,
    /// Packets neither delivered, buffered nor dropped under a counted
    /// reason once the fleet has drained, plus scheduled operations that
    /// failed, plus stranded tenants not re-homed onto a live platform.
    pub failed: u64,
}

/// `fleet-failover` ready to measure.
pub struct FleetWorkload {
    inp: FleetInputs,
}

impl FleetWorkload {
    /// One scenario run on a freshly built fleet (built outside the
    /// timed region). The driver is sampled every [`SLICE_NS`] of
    /// virtual time through `on_tick`; each slice that injected packets
    /// is one timed unit (wall ns per simulated packet). The quarter
    /// run is the quiet first quarter: traffic only.
    fn run(
        &self,
        quarter: bool,
        samples: &mut Samples,
        tracer: Option<&mut Tracer>,
    ) -> (Rep, RunFacts) {
        let inp = &self.inp;
        let mut fleet = Fleet::new(&inp.topo);
        let mut ctl = Controller::new(inp.topo.clone());
        let tenants = inp.populate(&mut fleet, &mut ctl);
        let matrix = inp.matrix(&tenants);
        let h = inp.horizon_ns;
        let mut marks: Vec<(Instant, u64)> = Vec::with_capacity((h / SLICE_NS) as usize + 2);

        let start = Instant::now();
        marks.push((start, 0));
        let mut driver = FleetDriver::new(fleet)
            .traffic(matrix)
            .hooks(ControllerHooks::new(&ctl))
            .on_tick(SLICE_NS, |fleet, _| {
                marks.push((Instant::now(), fleet.stats().injected));
            });
        driver = if quarter {
            driver.until(h / 4)
        } else {
            driver
                .until(h)
                .events(
                    Scenario::new("failover")
                        .at(h / 3, ScenarioEvent::KillPop { pop: 0 })
                        .at(
                            h / 2,
                            ScenarioEvent::FlashCrowd {
                                pop: 1,
                                multiplier: 8,
                            },
                        ),
                )
                .rebalance_every(h / 3, 2)
        };
        let run = driver.run();
        let end = Instant::now();
        marks.push((end, run.stats.injected));

        // Slices that injected nothing lend their wall time to the next.
        let mut slices = Vec::with_capacity(marks.len());
        let (mut from, mut seen) = marks[0];
        for &(at, injected) in &marks[1..] {
            if injected > seen {
                samples.piece((at - from).as_nanos() as f64, (injected - seen) as u32);
                slices.push((from, at));
                (from, seen) = (at, injected);
            }
        }
        if let Some(tr) = tracer {
            let (a, b) = (tr.at(start), tr.at(end));
            let root = tr.push("platform.driver.run", a, b, None, 0);
            for (from, to) in slices {
                let (a, b) = (tr.at(from), tr.at(to));
                tr.push("platform.driver.slice", a, b, Some(root), 0);
            }
        }

        let facts = check(run, h);
        let rep = Rep {
            ops: facts.injected,
            failed: facts.failed,
        };
        (rep, facts)
    }
}

/// Checks the failover post-conditions, then lets the fleet drain and
/// checks the conservation law: every injected packet was delivered,
/// buffered, or dropped under a counted reason.
fn check(run: DriverRun, horizon_ns: u64) -> RunFacts {
    let stranded = run.rehomes.iter().filter(|rec| {
        let landed = run
            .fleet
            .location(rec.addr)
            .is_some_and(|p| run.fleet.is_alive(p));
        rec.to.is_none() || !landed
    });
    let mut failed = run.errors + stranded.count() as u64;
    let drained = FleetDriver::new(run.fleet)
        .until(horizon_ns + DRAIN_NS)
        .run();
    let s = drained.stats;
    let sw = drained.fleet.aggregate_switch_stats();
    let accounted =
        sw.delivered + sw.buffered + sw.dropped + s.link_drops + s.dead_drops + s.host_errors;
    failed += s.injected.abs_diff(accounted) + drained.errors;
    RunFacts {
        stats: run.stats,
        delivered: run.out.len(),
        injected: run.traffic_injected,
        rehomes: run.rehomes,
        failed,
    }
}

impl Workload for FleetWorkload {
    fn setup(_name: &str, seed: u64) -> Result<Self, String> {
        FleetWorkload::from_inputs(inputs(seed, Scale::Full))
    }

    fn rep(&mut self, samples: &mut Samples) -> Rep {
        self.run(false, samples, None).0
    }

    fn digest(&self) -> u64 {
        self.inp.digest
    }

    fn finish(&self) -> Result<(), String> {
        Ok(())
    }
}

impl FleetWorkload {
    /// Runs the gate (one full scenario must conserve packets and
    /// re-home every stranded tenant).
    pub fn from_inputs(inp: FleetInputs) -> Result<FleetWorkload, String> {
        let w = FleetWorkload { inp };
        let (rep, facts) = w.run(false, &mut Samples::default(), None);
        if rep.failed > 0 {
            return Err(format!(
                "{} of {} fleet packets unaccounted for or tenants left stranded",
                rep.failed, rep.ops
            ));
        }
        if facts.rehomes.is_empty() {
            return Err("the doomed PoP hosted no tenants".to_string());
        }
        Ok(w)
    }
}

fn median_ms(n: usize, mut f: impl FnMut()) -> f64 {
    median_call_ns(n, |_| f()) / 1e6
}

/// The fleet ladder over `inp`: an untraced and a traced scenario run,
/// then the single-host floor and the set-up rungs in isolation.
pub fn ladder(inp: FleetInputs, untraced_reps_n: usize) -> Result<Ladder, String> {
    let w = FleetWorkload::from_inputs(inp)?;
    let (plain, mut failed) = untraced_reps(untraced_reps_n, |s| w.run(false, s, None).0.failed);
    let plain_p50 = steady(&plain).p50;
    let mut tracer = Tracer::default();
    let mut traced = Samples::default();
    let (rep, facts) = w.run(false, &mut traced, Some(&mut tracer));
    failed += rep.failed;
    let injected = facts.injected.max(1) as f64;
    let fleet_pkt_us = plain_p50 / 1e3;

    // Set-up rungs.
    let topo = &w.inp.topo;
    let generate_ms = median_ms(5, || {
        std::hint::black_box(generate_fleet(&w.inp.params));
    });
    let build_ms = median_ms(5, || {
        std::hint::black_box(Fleet::new(topo));
    });
    let addrs: Vec<Ipv4Addr> = (0..w.inp.tenants).map(tenant_addr).collect();
    let gravity_ms = median_ms(5, || {
        std::hint::black_box(w.inp.matrix(&addrs));
    });
    let platforms = topo.platforms();
    let mut next = 0;
    let paths_us = 1e3
        * median_ms(33, || {
            std::hint::black_box(topo.paths_from(platforms[next % platforms.len()]));
            next += 7;
        });

    // The single-host floor: one running VM behind one switch.
    let config = tenant_config();
    let addr = tenant_addr(0);
    let mut host = Host::new(64 * 1024);
    let mut sw = SwitchController::new();
    sw.register(ClientEntry {
        addr,
        config: config.clone(),
        stateful: false,
    });
    let pkts: Vec<Packet> = (0..8_192u32)
        .map(|i| {
            PacketBuilder::udp()
                .src(Ipv4Addr::new(8, 8, 8, 8), 1024 + (i % 4_096) as u16)
                .dst(addr, 1500)
                .pad_to(512)
                .build()
        })
        .collect();
    sw.on_packet(&mut host, pkts[0].clone(), 0)
        .map_err(|e| e.to_string())?;
    host.advance(10 * SEC);
    let mut now = 10 * SEC;
    let n = pkts.len() as f64;
    let t = Instant::now();
    for pkt in pkts {
        now += 1_000;
        std::hint::black_box(
            sw.on_packet(&mut host, pkt, now)
                .map_err(|e| e.to_string())?,
        );
        std::hint::black_box(host.advance(now));
    }
    let on_packet_ns = ns_since(t) / n;
    if sw.stats().delivered < n as u64 {
        return Err("single-host floor: the running VM did not take every packet".to_string());
    }
    let boot_us = 1e3
        * median_ms(33, || {
            let vm = host.boot_clickos(&config, now).expect("host has memory");
            host.destroy(vm).expect("just booted");
        });

    let mut decisions: Vec<f64> = facts.rehomes.iter().map(|r| r.decision_ns as f64).collect();
    let (decision_p50, _, _) = summarize(&mut decisions, 50.0);
    let s = facts.stats;
    let metrics: Vec<Metric> = vec![
        metric("topology.generate.ms", generate_ms, "ms"),
        metric("platform.fleet.build_ms", build_ms, "ms"),
        metric("platform.traffic.gravity_ms", gravity_ms, "ms"),
        metric("topology.paths.us", paths_us, "us"),
        metric("platform.switch.on_packet_ns", on_packet_ns, "ns/pkt"),
        metric("platform.vm.boot_us", boot_us, "us"),
        metric(
            "platform.driver.fabric_us",
            fleet_pkt_us - on_packet_ns / 1e3,
            "us/pkt",
        ),
        metric(
            "controller.hooks.rehome_decision_us_p50",
            decision_p50 / 1e3,
            "us",
        ),
        metric(
            "platform.fleet.delivered_ratio",
            facts.delivered as f64 / injected,
            "ratio",
        ),
        metric(
            "platform.fleet.fabric_forwards_per_pkt",
            s.fabric_forwards as f64 / injected,
            "ratio",
        ),
        metric("platform.fleet.reroutes", s.reroutes as f64, "count"),
        metric("platform.fleet.dead_drops", s.dead_drops as f64, "count"),
        metric("platform.fleet.link_drops", s.link_drops as f64, "count"),
        metric(
            "platform.fleet.rehomed",
            facts.rehomes.iter().filter(|r| r.to.is_some()).count() as f64,
            "count",
        ),
        metric(
            "platform.fleet.migrations",
            s.migrations_started as f64,
            "count",
        ),
    ];
    Ok(Ladder {
        metrics,
        tracer,
        overhead_ratio: steady(&[traced]).p50 / plain_p50,
        failed,
        attempted: rep.ops,
        digest: w.inp.digest,
    })
}
