//! `FleetDriver`: the one place fleet time advances.
//!
//! PR 9's fleet grew an ad-hoc control surface — callers hand-rolled
//! `inject` / `inject_at` / `advance` / `migrate` / `rebalance` /
//! `reclaim_idle` loops, each with its own ordering bugs waiting to
//! happen. The driver collapses that into a builder + event loop:
//!
//! ```
//! use innet_platform::{Fleet, FleetDriver};
//!
//! let fleet = Fleet::single_host(4 * 1024);
//! let run = FleetDriver::new(fleet).until(1_000_000_000).run();
//! assert_eq!(run.stats.injected, 0);
//! # let _ = run.fleet;
//! ```
//!
//! Everything is scheduled: packets ([`FleetDriver::inject`],
//! [`FleetDriver::inject_at`]), migrations ([`FleetDriver::migrate`]),
//! periodic triggers ([`FleetDriver::rebalance_every`],
//! [`FleetDriver::reclaim_every`], [`FleetDriver::on_tick`]), a traffic
//! matrix ([`FleetDriver::traffic`]), and scenario events
//! ([`FleetDriver::events`]). [`FleetDriver::run`] merges all of it
//! into one deterministic timeline, an [`EventQueue`] of [`Work`] —
//! items fire in `(time, insertion)` order and the fleet advances to
//! each item's instant — and returns a [`DriverRun`] with the fleet,
//! its outputs, and per-tenant failover records. The fleet's fabric
//! keeps its own `EventQueue` of packets on the wire, drained by each
//! advance: one shared queue would deliver a fabric arrival ahead of a
//! packet injected earlier in the same advance window.
//!
//! A zero-event run is byte- and order-identical to the hand-rolled
//! inject/advance loop over the fleet's crate-private primitives (pinned
//! by the differential tests below), which is why the driver is the only
//! public way to move fleet time.

use std::net::Ipv4Addr;

use innet_packet::Packet;
use innet_sim::des::{EventQueue, SimTime};
use innet_topology::NodeId;

use crate::fleet::{Fleet, FleetStats};
use crate::scenario::{
    apply_event, rehome_tenant, RehomeRecord, Scenario, ScenarioHooks, TopoHooks,
};
use crate::traffic::TrafficMatrix;

/// Failover detection delay before stranded tenants re-home: 50 ms, a
/// conservative health-check timeout.
const DETECTION_NS: SimTime = 50_000_000;

/// One timeline item, queued at its instant on the driver's
/// [`EventQueue`]: insertion order breaks simultaneity ties, so runs are
/// fully deterministic.
enum Work {
    /// Deliver a packet (home delivery when `ingress` is `None`).
    Packet {
        ingress: Option<NodeId>,
        from_matrix: bool,
        pkt: Packet,
    },
    /// Start a live migration.
    Migrate { addr: Ipv4Addr, to: NodeId },
    /// Apply scenario event `idx` of the attached scenario.
    Event { idx: usize },
    /// Re-home a stranded tenant (scheduled [`DETECTION_NS`] after its
    /// platform died).
    Rehome {
        addr: Ipv4Addr,
        dead: NodeId,
        killed_at: SimTime,
    },
    /// Periodic load rebalance.
    Rebalance { threshold: usize },
    /// Periodic idle-VM reclaim.
    Reclaim { idle_ns: SimTime },
    /// User callback `idx` of the registered tick closures.
    Tick { idx: usize },
}

/// Schedules `work` at `at` and stretches `horizon` to cover it, so
/// scheduled work never silently drops off the end of a run.
fn push(items: &mut EventQueue<Work>, horizon: &mut SimTime, at: SimTime, work: Work) {
    // The queue clamps past times to its clock; nothing may rely on it.
    debug_assert!(at >= items.now(), "work scheduled into the past");
    *horizon = (*horizon).max(at);
    items.schedule(at, work);
}

/// What a [`FleetDriver::run`] produced.
pub struct DriverRun {
    /// The fleet, returned for inspection or further driving.
    pub fleet: Fleet,
    /// Every transmission, as `(platform, iface, packet)` in emission
    /// order.
    pub out: Vec<(NodeId, u16, Packet)>,
    /// Fleet counters at the end of the run.
    pub stats: FleetStats,
    /// One record per failover re-home attempt, in execution order.
    pub rehomes: Vec<RehomeRecord>,
    /// Consolidation moves executed on the data plane.
    pub consolidation_moves: Vec<(Ipv4Addr, NodeId, NodeId)>,
    /// Moves started by periodic rebalance triggers.
    pub rebalance_moves: Vec<(Ipv4Addr, NodeId, NodeId)>,
    /// CDN replica registrations added by `CdnTier` events.
    pub cdn_edges: usize,
    /// Packets the traffic matrix injected.
    pub traffic_injected: u64,
    /// Scheduled operations that failed (bad migration, dead ingress).
    pub errors: u64,
}

/// Builder + event loop driving a [`Fleet`] through a scenario. See
/// the module docs for the model.
pub struct FleetDriver<'h> {
    fleet: Fleet,
    horizon: SimTime,
    items: EventQueue<Work>,
    scenario: Option<Scenario>,
    traffic: Option<TrafficMatrix>,
    hooks: Option<Box<dyn ScenarioHooks + 'h>>,
    #[allow(clippy::type_complexity)]
    ticks: Vec<(SimTime, Box<dyn FnMut(&mut Fleet, SimTime) + 'h>)>,
    rebalance: Option<(SimTime, usize)>,
    reclaim: Option<(SimTime, SimTime)>,
}

impl<'h> FleetDriver<'h> {
    /// Takes ownership of the fleet; [`DriverRun::fleet`] returns it.
    pub fn new(fleet: Fleet) -> FleetDriver<'h> {
        FleetDriver {
            fleet,
            horizon: 0,
            items: EventQueue::new(),
            scenario: None,
            traffic: None,
            hooks: None,
            ticks: Vec::new(),
            rebalance: None,
            reclaim: None,
        }
    }

    fn push(&mut self, at: SimTime, work: Work) {
        push(&mut self.items, &mut self.horizon, at, work);
    }

    /// Runs the timeline out to `horizon` (the run always ends with an
    /// advance to this instant). The effective horizon is at least the
    /// latest scheduled item, so explicitly scheduled work never
    /// silently drops off the end.
    pub fn until(mut self, horizon: SimTime) -> Self {
        self.horizon = self.horizon.max(horizon);
        self
    }

    /// Schedules a packet for home delivery at `at` (the oracle path:
    /// no fabric cost).
    pub fn inject(mut self, at: SimTime, pkt: Packet) -> Self {
        self.push(
            at,
            Work::Packet {
                ingress: None,
                from_matrix: false,
                pkt,
            },
        );
        self
    }

    /// Schedules a packet arriving at platform `ingress` at `at`; the
    /// fabric is paid if the serving copy lives elsewhere.
    pub fn inject_at(mut self, at: SimTime, ingress: NodeId, pkt: Packet) -> Self {
        self.push(
            at,
            Work::Packet {
                ingress: Some(ingress),
                from_matrix: false,
                pkt,
            },
        );
        self
    }

    /// Schedules a live migration of `addr` to `to` at `at`.
    pub fn migrate(mut self, at: SimTime, addr: Ipv4Addr, to: NodeId) -> Self {
        self.push(at, Work::Migrate { addr, to });
        self
    }

    /// Attaches a scenario whose events fire at their scheduled times.
    pub fn events(mut self, scenario: Scenario) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Attaches a traffic matrix: its schedule is paced into the
    /// timeline (segment-wise between scenario events, since those
    /// change rates and ingress points), and its per-tenant demand
    /// weights drive demand-aware rebalancing.
    pub fn traffic(mut self, matrix: TrafficMatrix) -> Self {
        self.traffic = Some(matrix);
        self
    }

    /// Attaches placement hooks (default: [`TopoHooks`]). The
    /// controller crate provides hooks backed by ranked placement and
    /// `plan_fleet`.
    pub fn hooks(mut self, hooks: impl ScenarioHooks + 'h) -> Self {
        self.hooks = Some(Box::new(hooks));
        self
    }

    /// Runs `f(&mut fleet, now)` every `period` until the horizon.
    pub fn on_tick(mut self, period: SimTime, f: impl FnMut(&mut Fleet, SimTime) + 'h) -> Self {
        self.ticks.push((period.max(1), Box::new(f)));
        self
    }

    /// Rebalances the fleet every `period` at the given threshold
    /// (demand-weighted when a traffic matrix is attached).
    pub fn rebalance_every(mut self, period: SimTime, threshold: usize) -> Self {
        self.rebalance = Some((period.max(1), threshold));
        self
    }

    /// Reclaims VMs idle longer than `idle_ns` every `period`.
    pub fn reclaim_every(mut self, period: SimTime, idle_ns: SimTime) -> Self {
        self.reclaim = Some((period.max(1), idle_ns));
        self
    }

    /// Runs the merged timeline to the horizon. Each item fires in
    /// `(time, insertion)` order and the fleet advances to its instant,
    /// so outputs interleave exactly as a hand-rolled
    /// inject-then-advance loop would produce them.
    pub fn run(self) -> DriverRun {
        let FleetDriver {
            mut fleet,
            mut horizon,
            mut items,
            scenario,
            mut traffic,
            mut hooks,
            mut ticks,
            rebalance,
            reclaim,
        } = self;

        // Scenario event times are rate-change boundaries: the matrix is
        // paced segment-wise so multiplier and ingress changes take
        // effect exactly at their event. The horizon covers them too.
        let mut boundaries: Vec<SimTime> = scenario
            .iter()
            .flat_map(|s| s.events().iter().map(|&(at, _)| at))
            .collect();
        boundaries.sort_unstable();
        horizon = horizon.max(boundaries.last().copied().unwrap_or(0));
        boundaries.push(horizon);

        // Expand periodic triggers out to the horizon.
        if let Some((period, threshold)) = rebalance {
            let mut t = period;
            while t <= horizon {
                push(&mut items, &mut horizon, t, Work::Rebalance { threshold });
                t += period;
            }
        }
        if let Some((period, idle_ns)) = reclaim {
            let mut t = period;
            while t <= horizon {
                push(&mut items, &mut horizon, t, Work::Reclaim { idle_ns });
                t += period;
            }
        }
        for (idx, &(period, _)) in ticks.iter().enumerate() {
            let mut t = period;
            while t <= horizon {
                push(&mut items, &mut horizon, t, Work::Tick { idx });
                t += period;
            }
        }
        if let Some(s) = &scenario {
            for (idx, &(at, _)) in s.events().iter().enumerate() {
                push(&mut items, &mut horizon, at, Work::Event { idx });
            }
        }

        let mut next_boundary = 0usize;
        if let Some(m) = traffic.as_mut() {
            for (at, ingress, pkt) in m.pace(boundaries[0].min(horizon)) {
                push(
                    &mut items,
                    &mut horizon,
                    at,
                    Work::Packet {
                        ingress: Some(ingress),
                        from_matrix: true,
                        pkt,
                    },
                );
            }
            next_boundary = 1;
            fleet.attach_demand(m.demand_by_tenant());
        }

        let mut default_hooks = TopoHooks;

        let mut out = Vec::new();
        let mut rehomes = Vec::new();
        let mut consolidation_moves = Vec::new();
        let mut rebalance_moves = Vec::new();
        let mut cdn_edges = 0usize;
        let mut traffic_injected = 0u64;
        let mut errors = 0u64;

        while let Some((at, work)) = items.pop() {
            // Control actions act on a fleet advanced to `now` (a
            // migrate must see the boot that completed a second ago);
            // packets keep the inject-then-advance order of the
            // hand-rolled loop, which the differential pin freezes.
            if !matches!(work, Work::Packet { .. }) {
                out.extend(fleet.advance(at));
            }
            match work {
                Work::Packet {
                    ingress,
                    from_matrix,
                    pkt,
                } => {
                    if from_matrix {
                        traffic_injected += 1;
                    }
                    match ingress {
                        None => out.extend(fleet.inject(pkt, at)),
                        Some(node) => match fleet.inject_at(node, pkt, at) {
                            Ok(tx) => out.extend(tx),
                            Err(_) => errors += 1,
                        },
                    }
                }
                Work::Migrate { addr, to } => {
                    if fleet.migrate(addr, to, at).is_err() {
                        errors += 1;
                    }
                }
                Work::Event { idx } => {
                    let Some(s) = &scenario else { continue };
                    let (_, event) = &s.events()[idx];
                    let h: &mut dyn ScenarioHooks = match hooks.as_mut() {
                        Some(b) => b.as_mut(),
                        None => &mut default_hooks,
                    };
                    let outcome = apply_event(&mut fleet, &mut traffic, h, event, at);
                    consolidation_moves.extend(outcome.consolidation_moves.iter().copied());
                    cdn_edges += outcome.cdn_edges;
                    for (addr, dead) in outcome.stranded {
                        push(
                            &mut items,
                            &mut horizon,
                            at + DETECTION_NS,
                            Work::Rehome {
                                addr,
                                dead,
                                killed_at: at,
                            },
                        );
                    }
                    if outcome.demand_changed {
                        if let Some(m) = traffic.as_ref() {
                            fleet.attach_demand(m.demand_by_tenant());
                        }
                    }
                    // Re-pace the matrix to the next rate boundary.
                    if let Some(m) = traffic.as_mut() {
                        while next_boundary < boundaries.len() && boundaries[next_boundary] <= at {
                            next_boundary += 1;
                        }
                        let until = boundaries
                            .get(next_boundary)
                            .copied()
                            .unwrap_or(horizon)
                            .min(horizon);
                        for (t, ingress, pkt) in m.pace(until) {
                            push(
                                &mut items,
                                &mut horizon,
                                t,
                                Work::Packet {
                                    ingress: Some(ingress),
                                    from_matrix: true,
                                    pkt,
                                },
                            );
                        }
                    }
                }
                Work::Rehome {
                    addr,
                    dead,
                    killed_at,
                } => {
                    let h: &mut dyn ScenarioHooks = match hooks.as_mut() {
                        Some(b) => b.as_mut(),
                        None => &mut default_hooks,
                    };
                    rehomes.push(rehome_tenant(&mut fleet, h, addr, dead, killed_at, at));
                }
                Work::Rebalance { threshold } => {
                    rebalance_moves.extend(fleet.rebalance(at, threshold));
                }
                Work::Reclaim { idle_ns } => fleet.reclaim_idle(at, idle_ns),
                Work::Tick { idx } => (ticks[idx].1)(&mut fleet, at),
            }
            out.extend(fleet.advance(at));
        }
        out.extend(fleet.advance(horizon));

        let stats = fleet.stats();
        // Conservation holds wherever the horizon cuts the run: a packet
        // is counted under exactly one outcome or is still in flight.
        debug_assert_eq!(stats.injected, accounted(&fleet), "packet conservation");
        DriverRun {
            fleet,
            out,
            stats,
            rehomes,
            consolidation_moves,
            rebalance_moves,
            cdn_edges,
            traffic_injected,
            errors,
        }
    }
}

/// The right-hand side of the fleet conservation law: every packet
/// handed to a switch (delivered, buffered for a starting VM, or
/// dropped), dropped by the fleet under a counted reason, or still held
/// by it ([`Fleet::in_flight`]).
fn accounted(fleet: &Fleet) -> u64 {
    let (s, sw) = (fleet.stats(), fleet.aggregate_switch_stats());
    let fleet_drops = s.link_drops + s.no_path_drops + s.dead_drops + s.host_errors;
    sw.delivered + sw.buffered + sw.dropped + fleet_drops + fleet.in_flight()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::Fleet;
    use crate::scenario::ScenarioEvent;
    use crate::switch::ClientEntry;
    use crate::traffic::TrafficParams;
    use innet_click::ClickConfig;
    use innet_packet::PacketBuilder;
    use innet_topology::{generate_fleet, FleetParams};

    const TENANT: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);

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

    fn udp_to(addr: Ipv4Addr, seq: u16) -> Packet {
        PacketBuilder::udp()
            .src(Ipv4Addr::new(8, 8, 8, 8), seq)
            .dst(addr, 1500)
            .build()
    }

    fn small_fleet() -> Fleet {
        let t = generate_fleet(&FleetParams {
            pops: 2,
            platforms_per_pop: 1,
            clients_per_pop: 1,
            seed: 3,
        });
        Fleet::new(&t)
    }

    #[test]
    fn driver_matches_manual_inject_advance_loop() {
        // The API-redesign pin: a zero-event driver run is byte- and
        // order-identical to the hand-rolled loop it replaces.
        let mut manual = Fleet::single_host(4 * 1024);
        let platform = manual.platforms()[0];
        manual
            .register(platform, filter_entry(TENANT, true))
            .unwrap();
        let mut driven = Fleet::single_host(4 * 1024);
        driven
            .register(platform, filter_entry(TENANT, true))
            .unwrap();

        let schedule: Vec<(SimTime, Packet)> = (0..6)
            .map(|i| (i * 150_000_000, udp_to(TENANT, i as u16 + 1)))
            .collect();

        let mut manual_out = Vec::new();
        for (at, pkt) in &schedule {
            manual_out.extend(manual.inject(pkt.clone(), *at));
            manual_out.extend(manual.advance(*at));
        }
        manual_out.extend(manual.advance(2_000_000_000));

        let mut driver = FleetDriver::new(driven).until(2_000_000_000);
        for (at, pkt) in schedule {
            driver = driver.inject(at, pkt);
        }
        let run = driver.run();

        assert_eq!(run.out, manual_out, "byte- and order-identical");
        assert_eq!(run.stats, manual.stats());
    }

    #[test]
    fn zero_event_scenario_is_identical_to_plain_injection() {
        // Mixed home-delivery and fabric-ingress schedule on two PoPs,
        // driven once through a FleetDriver carrying an (empty) scenario
        // and once through the hand-rolled loop.
        let build = || {
            let mut f = small_fleet();
            let ps = f.platforms();
            f.register(ps[0], filter_entry(TENANT, true)).unwrap();
            (f, ps)
        };
        let (mut manual, ps) = build();
        let (driven, _) = build();
        let remote = ps[1];
        let schedule: Vec<(SimTime, Option<NodeId>, Packet)> = (0..10u64)
            .map(|i| {
                let ingress = (i % 3 == 2).then_some(remote);
                (i * 120_000_000, ingress, udp_to(TENANT, i as u16 + 1))
            })
            .collect();

        let mut manual_out = Vec::new();
        for (at, ingress, pkt) in &schedule {
            match ingress {
                None => manual_out.extend(manual.inject(pkt.clone(), *at)),
                Some(node) => manual_out.extend(manual.inject_at(*node, pkt.clone(), *at).unwrap()),
            }
            manual_out.extend(manual.advance(*at));
        }
        manual_out.extend(manual.advance(4_000_000_000));

        let mut driver = FleetDriver::new(driven)
            .until(4_000_000_000)
            .events(Scenario::new("noop"));
        for (at, ingress, pkt) in schedule {
            driver = match ingress {
                None => driver.inject(at, pkt),
                Some(node) => driver.inject_at(at, node, pkt),
            };
        }
        let run = driver.run();

        assert!(!manual_out.is_empty(), "the schedule produces output");
        assert_eq!(run.out, manual_out, "byte- and order-identical");
        assert_eq!(run.stats, manual.stats(), "stats-identical");
        assert!(run.rehomes.is_empty() && run.consolidation_moves.is_empty());
    }

    #[test]
    fn on_tick_fires_at_period() {
        let fleet = Fleet::single_host(1024);
        let fired = std::cell::RefCell::new(Vec::new());
        let run = FleetDriver::new(fleet)
            .until(1_000_000_000)
            .on_tick(300_000_000, |_, now| fired.borrow_mut().push(now))
            .run();
        assert_eq!(*fired.borrow(), vec![300_000_000, 600_000_000, 900_000_000]);
        assert_eq!(run.errors, 0);
    }

    #[test]
    fn scheduled_migration_executes() {
        let mut fleet = small_fleet();
        let ps = fleet.platforms();
        fleet.register(ps[0], filter_entry(TENANT, true)).unwrap();
        let run = FleetDriver::new(fleet)
            .until(90_000_000_000)
            .inject(0, udp_to(TENANT, 1))
            .migrate(2_000_000_000, TENANT, ps[1])
            .run();
        assert_eq!(run.errors, 0);
        assert_eq!(run.fleet.location(TENANT), Some(ps[1]));
        assert_eq!(run.stats.migrations_completed, 1);
    }

    #[test]
    fn traffic_matrix_drives_the_fleet() {
        let t = generate_fleet(&FleetParams {
            pops: 2,
            platforms_per_pop: 1,
            clients_per_pop: 2,
            seed: 3,
        });
        let mut fleet = Fleet::new(&t);
        let ps = fleet.platforms();
        fleet.register(ps[0], filter_entry(TENANT, false)).unwrap();
        let matrix = TrafficMatrix::gravity(
            &t,
            &[TENANT],
            &TrafficParams {
                total_pps: 200,
                ..TrafficParams::default()
            },
        );
        let run = FleetDriver::new(fleet)
            .until(1_000_000_000)
            .traffic(matrix)
            .run();
        assert!(run.traffic_injected > 100, "{}", run.traffic_injected);
        assert_eq!(run.stats.injected, run.traffic_injected);
        assert!(
            run.stats.fabric_forwards > 0,
            "cross-PoP demand crosses the fabric"
        );
        assert!(run.fleet.demand_attached());
    }

    #[test]
    fn kill_pop_rehomes_tenants() {
        let mut fleet = small_fleet();
        let ps = fleet.platforms();
        let pop0 = fleet.topology().pop_of(ps[0]).unwrap();
        fleet.register(ps[0], filter_entry(TENANT, true)).unwrap();
        let run = FleetDriver::new(fleet)
            .until(3_000_000_000)
            .inject(0, udp_to(TENANT, 1))
            .events(Scenario::new("kill").at(1_000_000_000, ScenarioEvent::KillPop { pop: pop0 }))
            .run();
        assert_eq!(run.rehomes.len(), 1);
        let rec = run.rehomes[0];
        assert_eq!(rec.addr, TENANT);
        assert_eq!(rec.from, ps[0]);
        assert_eq!(rec.to, Some(ps[1]));
        assert_eq!(rec.downtime_ns, 50_000_000, "detection delay is the floor");
        assert_eq!(run.fleet.location(TENANT), Some(ps[1]));
        assert_eq!(run.stats.rehomes, 1);
        // The re-homed tenant serves again: next packet boots a VM there.
        let run2 = FleetDriver::new(run.fleet)
            .until(6_000_000_000)
            .inject(4_000_000_000, udp_to(TENANT, 2))
            .run();
        assert!(run2.fleet.host(ps[1]).unwrap().live_vms() > 0);
    }

    #[test]
    fn consolidation_event_executes_moves() {
        let mut fleet = small_fleet();
        let ps = fleet.platforms();
        // Two stateless tenants on each platform; consolidation homes
        // them all on one.
        for (i, &p) in ps.iter().enumerate() {
            for j in 0..2u8 {
                let addr = Ipv4Addr::new(198, 18, i as u8, j + 1);
                fleet.register(p, filter_entry(addr, false)).unwrap();
            }
        }
        let run = FleetDriver::new(fleet)
            .until(2_000_000_000)
            .events(
                Scenario::new("consolidate").at(1_000_000_000, ScenarioEvent::ExecuteConsolidation),
            )
            .run();
        assert_eq!(run.consolidation_moves.len(), 2, "one platform empties");
        let homes: std::collections::BTreeSet<NodeId> = (0..2)
            .flat_map(|i| (0..2).map(move |j| (i, j)))
            .map(|(i, j)| {
                run.fleet
                    .location(Ipv4Addr::new(198, 18, i as u8, j + 1))
                    .unwrap()
            })
            .collect();
        assert_eq!(homes.len(), 1, "all stateless tenants share one home");
    }

    #[test]
    fn cdn_tier_serves_from_nearest_edge() {
        let mut fleet = small_fleet();
        let ps = fleet.platforms();
        fleet.register(ps[0], filter_entry(TENANT, false)).unwrap();
        let run = FleetDriver::new(fleet)
            .until(2_000_000_000)
            .events(Scenario::new("cdn").at(
                0,
                ScenarioEvent::CdnTier {
                    origin: TENANT,
                    edges: vec![ps[1]],
                },
            ))
            .inject_at(1_000_000_000, ps[1], udp_to(TENANT, 1))
            .run();
        assert_eq!(run.cdn_edges, 1);
        // Served at the edge: no fabric crossing.
        assert_eq!(run.stats.fabric_forwards, 0);
        assert!(
            run.fleet.host(ps[1]).unwrap().live_vms() > 0,
            "edge booted the replica"
        );
    }
}
