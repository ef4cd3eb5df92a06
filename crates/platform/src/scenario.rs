//! Scenario events as data: regional failover, flash crowds, CDN
//! tiering, and executed consolidation (DESIGN.md §16).
//!
//! A [`Scenario`] is a named list of `(SimTime, ScenarioEvent)` pairs
//! applied by [`crate::FleetDriver`] at their scheduled instants:
//!
//! * [`ScenarioEvent::KillPop`] — every platform in the PoP dies. The
//!   traffic matrix re-points its ingress demands, in-flight fabric
//!   packets re-route (or are counted dead), and after a detection
//!   delay each stranded tenant is re-homed through ranked placement,
//!   producing one [`RehomeRecord`] per tenant.
//! * [`ScenarioEvent::FlashCrowd`] — a PoP's demand multiplies; the
//!   refreshed per-tenant load feeds demand-aware rebalancing.
//! * [`ScenarioEvent::ExecuteConsolidation`] — the hook plans
//!   fleet-wide stateless consolidation (the controller hook uses
//!   `plan_fleet`) and the moves are *executed* on the data plane via
//!   [`Fleet::migrate`], not just planned.
//! * [`ScenarioEvent::CdnTier`] — a stateless origin is replicated
//!   onto edge platforms; ingress then resolves to the nearest copy.
//!
//! Placement policy is pluggable through [`ScenarioHooks`] so the
//! engine does not depend on the controller crate: [`TopoHooks`] ranks
//! by topology alone, and `innet-controller` provides a hook backed by
//! its ranked placement and `plan_fleet`.

use std::net::Ipv4Addr;

use innet_sim::des::SimTime;
use innet_topology::{NodeId, NodeKind};

use crate::fleet::Fleet;
use crate::traffic::TrafficMatrix;

/// One scheduled fleet-level incident or operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioEvent {
    /// Kill every platform in a PoP (by `generate_fleet`'s `"pop{N}-"`
    /// naming); stranded tenants re-home after the detection delay.
    KillPop {
        /// The PoP index to kill.
        pop: usize,
    },
    /// Multiply the demand of every traffic-matrix flow originating in
    /// a PoP.
    FlashCrowd {
        /// The PoP whose subnets surge.
        pop: usize,
        /// Rate multiplier (values below 1 are clamped to 1).
        multiplier: u32,
    },
    /// Plan fleet-wide stateless consolidation through the hooks and
    /// execute the moves on the data plane via [`Fleet::migrate`].
    ExecuteConsolidation,
    /// Replicate a stateless origin tenant onto edge platforms.
    CdnTier {
        /// The tenant to replicate.
        origin: Ipv4Addr,
        /// Edge platforms to hold a copy.
        edges: Vec<NodeId>,
    },
}

/// A named, ordered list of scheduled events.
#[derive(Debug, Clone, Default)]
pub struct Scenario {
    name: String,
    events: Vec<(SimTime, ScenarioEvent)>,
}

impl Scenario {
    /// An empty scenario.
    pub fn new(name: impl Into<String>) -> Scenario {
        Scenario {
            name: name.into(),
            events: Vec::new(),
        }
    }

    /// Schedules `event` at `at` (builder style).
    pub fn at(mut self, at: SimTime, event: ScenarioEvent) -> Scenario {
        self.events.push((at, event));
        self
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[(SimTime, ScenarioEvent)] {
        &self.events
    }
}

/// One tenant's failover outcome after its home platform died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RehomeRecord {
    /// The re-homed tenant.
    pub addr: Ipv4Addr,
    /// The dead platform it was homed on.
    pub from: NodeId,
    /// Where it landed, or `None` when no alive platform had room.
    pub to: Option<NodeId>,
    /// When the platform died.
    pub killed_at: SimTime,
    /// When the tenant was serving again (registration restored; the
    /// next packet boots the fresh VM).
    pub restored_at: SimTime,
    /// `restored_at - killed_at`: the tenant's blackout window.
    pub downtime_ns: SimTime,
    /// Wall-clock time the ranked placement decision took.
    pub decision_ns: u64,
}

/// Placement policy the scenario engine calls out to. The engine is in
/// the platform crate; the controller crate implements this trait on
/// top of its ranked placement and `plan_fleet` so scenarios exercise
/// the real control plane without a dependency cycle.
pub trait ScenarioHooks {
    /// Candidate platforms for re-homing `addr` off dead `dead`, best
    /// first. The engine skips dead or full candidates.
    fn rank_rehome(&mut self, fleet: &Fleet, addr: Ipv4Addr, dead: NodeId) -> Vec<NodeId>;

    /// Fleet-wide stateless consolidation moves as `(addr, from, to)`.
    /// The engine validates each against current tenant locations and
    /// executes the valid ones via [`Fleet::migrate`].
    fn plan_consolidation(&mut self, fleet: &Fleet) -> Vec<(Ipv4Addr, NodeId, NodeId)>;
}

/// Topology-only hooks: rank by proximity to the dead platform plus
/// occupancy, and consolidate stateless tenants onto the platform that
/// already hosts the most of them. The default when no controller hook
/// is attached.
#[derive(Debug, Clone, Copy, Default)]
pub struct TopoHooks;

impl ScenarioHooks for TopoHooks {
    fn rank_rehome(&mut self, fleet: &Fleet, _addr: Ipv4Addr, dead: NodeId) -> Vec<NodeId> {
        let paths = fleet.adjacency().paths_from(dead);
        let mut scored: Vec<(u64, NodeId)> = fleet
            .alive_platforms()
            .into_iter()
            .map(|p| {
                // Same shape as the controller's placement score:
                // proximity (to the dead region's clients) dominates,
                // occupancy breaks congestion ties.
                let latency_us = paths
                    .get(p)
                    .copied()
                    .flatten()
                    .map(|a| a.latency_ns / 1_000)
                    .unwrap_or(u64::MAX / 32);
                let occupancy = fleet.tenants_at(p).len() as u64;
                (latency_us * 16 + occupancy * 4, p)
            })
            .collect();
        scored.sort_unstable();
        scored.into_iter().map(|(_, p)| p).collect()
    }

    fn plan_consolidation(&mut self, fleet: &Fleet) -> Vec<(Ipv4Addr, NodeId, NodeId)> {
        // Stateless tenants per alive platform.
        let mut groups: Vec<(NodeId, Vec<Ipv4Addr>)> = Vec::new();
        for p in fleet.alive_platforms() {
            let stateless: Vec<Ipv4Addr> = fleet
                .tenants_at(p)
                .into_iter()
                .filter(|&a| {
                    fleet
                        .switch(p)
                        .and_then(|s| s.client(a))
                        .is_some_and(|e| !e.stateful)
                })
                .collect();
            groups.push((p, stateless));
        }
        // Home: the platform already hosting the most stateless tenants
        // (ties to the lower id); everyone else moves there.
        let Some(&(home, _)) = groups
            .iter()
            .max_by_key(|(p, g)| (g.len(), std::cmp::Reverse(*p)))
        else {
            return Vec::new();
        };
        groups
            .into_iter()
            .filter(|&(p, _)| p != home)
            .flat_map(|(p, g)| g.into_iter().map(move |a| (a, p, home)))
            .collect()
    }
}

/// What applying one event did, for the driver's bookkeeping.
#[derive(Debug, Default)]
pub(crate) struct EventOutcome {
    /// Tenants stranded by a kill, as `(addr, dead_platform)`.
    pub(crate) stranded: Vec<(Ipv4Addr, NodeId)>,
    /// Consolidation moves actually started.
    pub(crate) consolidation_moves: Vec<(Ipv4Addr, NodeId, NodeId)>,
    /// CDN replica registrations added.
    pub(crate) cdn_edges: usize,
    /// Traffic demands scaled by a flash crowd.
    pub(crate) scaled: usize,
    /// Whether the traffic matrix's demand weights changed.
    pub(crate) demand_changed: bool,
}

/// Applies one event to the fleet (and the traffic matrix, when one is
/// attached). Failover re-homes are *not* performed here — the driver
/// schedules them after its detection delay.
pub(crate) fn apply_event(
    fleet: &mut Fleet,
    traffic: &mut Option<TrafficMatrix>,
    hooks: &mut dyn ScenarioHooks,
    event: &ScenarioEvent,
    at: SimTime,
) -> EventOutcome {
    let mut outcome = EventOutcome::default();
    match event {
        ScenarioEvent::KillPop { pop } => {
            let topo = fleet.topology().clone();
            let victims: Vec<NodeId> = topo
                .pop_members(*pop)
                .into_iter()
                .filter(|&n| matches!(topo.node(n).kind, NodeKind::Platform(_)))
                .collect();
            for v in victims {
                let Ok(stranded) = fleet.kill_platform(v, at) else {
                    continue;
                };
                outcome
                    .stranded
                    .extend(stranded.into_iter().map(|a| (a, v)));
                if let Some(m) = traffic.as_mut() {
                    let alive = fleet.alive_platforms();
                    if m.reingress(&topo, v, &alive) > 0 {
                        outcome.demand_changed = true;
                    }
                }
            }
        }
        ScenarioEvent::FlashCrowd { pop, multiplier } => {
            if let Some(m) = traffic.as_mut() {
                let topo = fleet.topology().clone();
                outcome.scaled = m.scale_pop(&topo, *pop, *multiplier);
                outcome.demand_changed = outcome.scaled > 0;
            }
        }
        ScenarioEvent::ExecuteConsolidation => {
            for (addr, from, to) in hooks.plan_consolidation(fleet) {
                if fleet.location(addr) != Some(from) {
                    continue;
                }
                if fleet.migrate(addr, to, at).is_ok() {
                    outcome.consolidation_moves.push((addr, from, to));
                }
            }
        }
        ScenarioEvent::CdnTier { origin, edges } => {
            outcome.cdn_edges = fleet.add_replicas(*origin, edges).unwrap_or(0);
        }
    }
    outcome
}

/// Executes one scheduled failover re-home through the hooks' ranked
/// placement, skipping dead or full candidates.
pub(crate) fn rehome_tenant(
    fleet: &mut Fleet,
    hooks: &mut dyn ScenarioHooks,
    addr: Ipv4Addr,
    dead: NodeId,
    killed_at: SimTime,
    now: SimTime,
) -> RehomeRecord {
    let t0 = std::time::Instant::now();
    let candidates = hooks.rank_rehome(fleet, addr, dead);
    let topo = fleet.topology();
    let chosen = candidates.into_iter().find(|&c| {
        if !fleet.is_alive(c) || c == dead {
            return false;
        }
        let NodeKind::Platform(spec) = &topo.node(c).kind else {
            return false;
        };
        fleet.tenants_at(c).len() < spec.capacity
    });
    let decision_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let to = chosen.filter(|&c| fleet.rehome(addr, c).is_ok());
    RehomeRecord {
        addr,
        from: dead,
        to,
        killed_at,
        restored_at: now,
        downtime_ns: now.saturating_sub(killed_at),
        decision_ns,
    }
}
