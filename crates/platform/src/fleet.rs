//! The fleet fabric: many hosts, one operator (DESIGN.md §15).
//!
//! A [`Fleet`] owns one [`Host`] + [`SwitchController`] pair per
//! platform node of a capacitated [`Topology`], and a switch fabric that
//! forwards packets host-to-host over [`innet_sim::link::Link`]s whose
//! rate and latency come from the topology's per-link attributes — so
//! cross-host delivery pays real serialization and propagation delay
//! instead of being assumed free.
//!
//! Live migration reuses the suspend/resume machinery end to end:
//! suspend on the source host, [`Host::extract`] the parked VM, a bulk
//! state transfer over the bottleneck path link, [`Host::implant`] on
//! the destination (which charges the calibrated resume latency), and a
//! switch-controller re-bind ([`SwitchController::adopt`]). Packets
//! addressed to a migrating tenant are buffered at the fleet layer for
//! the whole window and flushed in arrival order at completion — the
//! same invariant the suspend window established, one level up.
//!
//! A 1-host fleet is the differential oracle: every packet is local, the
//! fabric is never touched, and delivery degenerates to exactly the
//! single-host `SwitchController::on_packet` path — byte- and
//! stats-identical to driving a bare [`Host`].

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::net::Ipv4Addr;

use innet_packet::Packet;
use innet_sim::des::SimTime;
use innet_sim::link::Link as SimLink;
use innet_topology::{NodeId, NodeKind, PathAttrs, PlatformSpec, Topology};
use rand::{rngs::StdRng, SeedableRng};

use crate::switch::{ClientEntry, SwitchController, SwitchStats};
use crate::vm::{Host, HostError};

mod failover;
mod links;
mod migration;
mod rebalance;
mod sites;

pub use links::{LinkReport, LinkUsage};
use migration::Migration;
pub use migration::MigrationRecord;
use sites::{Site, Sites};

/// Errors from fleet operations.
#[derive(Debug)]
pub enum FleetError {
    /// The node id is not a platform of this fleet.
    UnknownPlatform(NodeId),
    /// No tenant with this address is registered anywhere in the fleet.
    UnknownTenant(Ipv4Addr),
    /// The tenant is already mid-migration.
    MigrationInProgress(Ipv4Addr),
    /// The fabric has no path between the two platforms.
    NoPath(NodeId, NodeId),
    /// The platform has been killed and cannot serve.
    DeadPlatform(NodeId),
    /// CDN replicas were requested for a stateful tenant, whose
    /// connection state cannot be copied.
    StatefulOrigin(Ipv4Addr),
    /// An underlying host operation failed.
    Host(HostError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownPlatform(id) => write!(f, "node {id} is not a fleet platform"),
            FleetError::UnknownTenant(a) => write!(f, "no tenant registered at {a}"),
            FleetError::MigrationInProgress(a) => write!(f, "tenant {a} is already migrating"),
            FleetError::NoPath(a, b) => write!(f, "no fabric path from node {a} to node {b}"),
            FleetError::DeadPlatform(id) => write!(f, "platform {id} is dead"),
            FleetError::StatefulOrigin(a) => {
                write!(f, "tenant {a} is stateful and cannot be replicated")
            }
            FleetError::Host(e) => write!(f, "host: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<HostError> for FleetError {
    fn from(e: HostError) -> Self {
        FleetError::Host(e)
    }
}

/// Fleet-level counters (per-host counters live in each host's and
/// switch controller's own instruments).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Packets handed to the fleet.
    pub injected: u64,
    /// Packets that crossed the fabric between platforms.
    pub fabric_forwards: u64,
    /// Packets buffered at the fleet layer during a migration window.
    pub migration_buffered: u64,
    /// Migrations triggered.
    pub migrations_started: u64,
    /// Migrations completed.
    pub migrations_completed: u64,
    /// Migrations whose destination filled up during the transfer: the
    /// VM is lost. Counts VMs, not packets — the window's buffered
    /// packets replay at the tenant's home.
    pub migrations_failed: u64,
    /// Packets abandoned because a host operation failed mid-delivery
    /// (e.g. a boot hit the memory ceiling).
    pub host_errors: u64,
    /// Packets tail-dropped at a fabric link whose queue exceeded the cap.
    pub link_drops: u64,
    /// Packets injected at an alive ingress that no fabric path serves.
    pub no_path_drops: u64,
    /// In-flight fabric packets re-forwarded because their destination
    /// died or their tenant moved while they were on the wire.
    pub reroutes: u64,
    /// Packets lost at a dead platform (or abandoned with a dead
    /// migration) with nowhere alive to re-route to.
    pub dead_drops: u64,
    /// Tenants re-homed off a dead platform (cold moves, not migrations).
    pub rehomes: u64,
    /// [`Host::advance`] calls made: grows with VM transitions coming
    /// due, not with the number of platforms.
    pub site_advances: u64,
}

/// A fabric link: the FIFO sim link plus its capacity and usage ledger.
struct FabricLink {
    link: SimLink,
    bandwidth_bps: u64,
    usage: LinkUsage,
}

/// Re-forward budget for a fabric packet before it is declared dead —
/// bounds the work a pathological re-home loop could cause.
const MAX_FABRIC_HOPS: u8 = 4;

/// A packet in flight on the fabric.
struct FabricEvent {
    at: SimTime,
    seq: u64,
    /// Where the packet entered the fabric (the re-route vantage if the
    /// destination dies while the packet is on the wire).
    origin: NodeId,
    dst: NodeId,
    /// Fabric traversals so far, compared against [`MAX_FABRIC_HOPS`].
    hops: u8,
    pkt: Packet,
}

impl PartialEq for FabricEvent {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for FabricEvent {}

impl Ord for FabricEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for FabricEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// N hosts keyed by topology [`NodeId`], wired by a latency/bandwidth
/// fabric. See the module docs for the model.
pub struct Fleet {
    topo: Topology,
    sites: Sites,
    /// Tenant address -> home platform.
    locations: HashMap<Ipv4Addr, NodeId>,
    /// Shortest-path attributes from each platform, computed on demand.
    path_cache: HashMap<NodeId, Vec<Option<PathAttrs>>>,
    /// One FIFO sim link per ordered platform pair, built on first use
    /// from the path's bottleneck bandwidth and end-to-end latency.
    fabric: HashMap<(NodeId, NodeId), FabricLink>,
    /// Tail-drop threshold: a packet that would wait longer than this in
    /// a link's FIFO queue is dropped instead of enqueued.
    max_queue_ns: SimTime,
    events: BinaryHeap<Reverse<FabricEvent>>,
    seq: u64,
    migrating: BTreeMap<Ipv4Addr, Migration>,
    records: Vec<MigrationRecord>,
    /// Platforms killed by a scenario: sites stay for bookkeeping but
    /// deliver nothing and accept no placements.
    dead: BTreeSet<NodeId>,
    /// CDN tiering: extra platforms whose switches hold a replica of a
    /// tenant's config; ingress resolves to the nearest alive copy.
    replicas: HashMap<Ipv4Addr, Vec<NodeId>>,
    /// Per-tenant demand weights from an attached traffic matrix; when
    /// present, `rebalance` moves load, not VM counts.
    demand: Option<HashMap<Ipv4Addr, u64>>,
    stats: FleetStats,
    rng: StdRng,
}

/// Default fabric queue cap: 50 ms of queueing before tail drop.
const DEFAULT_MAX_QUEUE_NS: SimTime = 50_000_000;

impl Fleet {
    /// Builds a fleet with one host per platform node of `topo`, sized
    /// by each platform's `mem_mb`.
    pub fn new(topo: &Topology) -> Fleet {
        let mut sites = BTreeMap::new();
        for id in topo.platforms() {
            let NodeKind::Platform(spec) = &topo.node(id).kind else {
                unreachable!("platforms() returns platform nodes");
            };
            let obs = innet_obs::Registry::new();
            let host = Host::with_obs(spec.mem_mb, &obs);
            let mut switch = SwitchController::new();
            switch.attach_metrics(&obs);
            sites.insert(id, Site { host, switch, obs });
        }
        Fleet {
            topo: topo.clone(),
            sites: Sites::new(sites),
            locations: HashMap::new(),
            path_cache: HashMap::new(),
            fabric: HashMap::new(),
            max_queue_ns: DEFAULT_MAX_QUEUE_NS,
            events: BinaryHeap::new(),
            seq: 0,
            migrating: BTreeMap::new(),
            records: Vec::new(),
            dead: BTreeSet::new(),
            replicas: HashMap::new(),
            demand: None,
            stats: FleetStats::default(),
            rng: StdRng::seed_from_u64(0),
        }
    }

    /// A 1-host fleet over a trivial internet—platform topology: the
    /// differential oracle configuration (see the module docs).
    pub fn single_host(mem_mb: u64) -> Fleet {
        let mut t = Topology::new();
        let internet = t.add("internet", NodeKind::Internet).expect("fresh");
        let platform = t
            .add(
                "platform",
                NodeKind::Platform(PlatformSpec {
                    mem_mb,
                    ..PlatformSpec::default()
                }),
            )
            .expect("fresh");
        t.link_bidir(internet, 0, platform, 0);
        Fleet::new(&t)
    }

    /// The fleet's platform ids, ascending.
    pub fn platforms(&self) -> Vec<NodeId> {
        self.sites.keys().copied().collect()
    }

    /// The topology the fleet was built over.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Fleet-level counters.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// Packets the fleet holds but has not yet handed to a switch:
    /// fabric packets still on the wire plus packets parked in the
    /// buffers of in-progress migrations. Together with the counted
    /// outcomes this closes the conservation law at any instant:
    /// `injected == Σ switch (delivered + buffered + dropped) +
    /// link_drops + no_path_drops + dead_drops + host_errors + in_flight`.
    pub fn in_flight(&self) -> u64 {
        let parked: usize = self.migrating.values().map(|m| m.buffered.len()).sum();
        (self.events.len() + parked) as u64
    }

    /// Sets the fabric tail-drop cap: packets that would queue longer
    /// than `max_queue_ns` at a link are dropped (and counted) instead.
    pub fn set_fabric_queue_ns(&mut self, max_queue_ns: SimTime) {
        self.max_queue_ns = max_queue_ns;
    }

    /// Whether a platform is alive (exists and has not been killed).
    pub fn is_alive(&self, platform: NodeId) -> bool {
        self.sites.contains_key(&platform) && !self.dead.contains(&platform)
    }

    /// The fleet's alive platform ids, ascending.
    pub fn alive_platforms(&self) -> Vec<NodeId> {
        self.sites
            .keys()
            .copied()
            .filter(|id| !self.dead.contains(id))
            .collect()
    }

    /// Tenants homed at a platform, ascending by address.
    pub fn tenants_at(&self, platform: NodeId) -> Vec<Ipv4Addr> {
        let mut out: Vec<Ipv4Addr> = self
            .locations
            .iter()
            .filter(|&(_, &home)| home == platform)
            .map(|(&addr, _)| addr)
            .collect();
        out.sort_unstable();
        out
    }

    /// The extra platforms holding a replica of `addr`'s config.
    pub fn replicas(&self, addr: Ipv4Addr) -> &[NodeId] {
        self.replicas.get(&addr).map(Vec::as_slice).unwrap_or(&[])
    }

    /// CDN tiering: clones `origin`'s registration onto each alive edge
    /// platform, so ingress traffic resolves to the nearest copy instead
    /// of crossing the fabric to the origin. Returns the number of edges
    /// actually added (dead, unknown, duplicate, and origin-home edges
    /// are skipped). The origin must be a stateless tenant — replicas
    /// share no connection state.
    pub fn add_replicas(&mut self, addr: Ipv4Addr, edges: &[NodeId]) -> Result<usize, FleetError> {
        let home = self
            .locations
            .get(&addr)
            .copied()
            .ok_or(FleetError::UnknownTenant(addr))?;
        let entry = self
            .sites
            .get(&home)
            .and_then(|s| s.switch.client(addr))
            .cloned()
            .ok_or(FleetError::UnknownTenant(addr))?;
        if entry.stateful {
            return Err(FleetError::StatefulOrigin(addr));
        }
        let mut added = 0;
        for &edge in edges {
            if edge == home || !self.is_alive(edge) {
                continue;
            }
            let existing = self.replicas.entry(addr).or_default();
            if existing.contains(&edge) {
                continue;
            }
            existing.push(edge);
            existing.sort_unstable();
            let site = self.sites.get_mut(&edge).expect("alive platform");
            site.switch.register(entry.clone());
            added += 1;
        }
        Ok(added)
    }

    /// Attaches per-tenant demand weights (e.g. from
    /// [`crate::traffic::TrafficMatrix::demand_by_tenant`]):
    /// `rebalance` then balances offered load instead of live-VM counts.
    pub fn attach_demand(&mut self, demand: HashMap<Ipv4Addr, u64>) {
        self.demand = Some(demand);
    }

    /// Whether a traffic matrix's demand weights are attached.
    pub fn demand_attached(&self) -> bool {
        self.demand.is_some()
    }

    /// The host at a platform.
    pub fn host(&self, platform: NodeId) -> Option<&Host> {
        self.sites.get(&platform).map(|s| &s.host)
    }

    /// The switch controller at a platform.
    pub fn switch(&self, platform: NodeId) -> Option<&SwitchController> {
        self.sites.get(&platform).map(|s| &s.switch)
    }

    /// The metrics registry shared by a platform's host and switch.
    pub fn obs(&self, platform: NodeId) -> Option<&innet_obs::Registry> {
        self.sites.get(&platform).map(|s| &s.obs)
    }

    /// A tenant's home platform.
    pub fn location(&self, addr: Ipv4Addr) -> Option<NodeId> {
        self.locations.get(&addr).copied()
    }

    /// Switch-controller counters summed across the fleet.
    pub fn aggregate_switch_stats(&self) -> SwitchStats {
        let mut total = SwitchStats::default();
        for site in self.sites.values() {
            let s = site.switch.stats();
            total.packets += s.packets;
            total.boots += s.boots;
            total.resumes += s.resumes;
            total.delivered += s.delivered;
            total.buffered += s.buffered;
            total.dropped += s.dropped;
            total.unknown += s.unknown;
        }
        total
    }

    /// Registers a tenant at a platform.
    pub fn register(&mut self, platform: NodeId, entry: ClientEntry) -> Result<(), FleetError> {
        let site = self
            .sites
            .get_mut(&platform)
            .ok_or(FleetError::UnknownPlatform(platform))?;
        self.locations.insert(entry.addr, platform);
        site.switch.register(entry);
        Ok(())
    }

    fn path(&mut self, from: NodeId, to: NodeId) -> Option<PathAttrs> {
        if !self.path_cache.contains_key(&from) {
            let paths = self.topo.paths_from(from);
            self.path_cache.insert(from, paths);
        }
        self.path_cache
            .get(&from)
            .and_then(|paths| paths.get(to).copied().flatten())
    }

    /// Where a packet should be processed: its tenant's home platform,
    /// or the lowest platform (the fleet's border switch) for unknown
    /// destinations — which then records the drop, exactly like the
    /// single-host path.
    fn dest_platform(&self, pkt: &Packet) -> NodeId {
        pkt.ipv4()
            .ok()
            .and_then(|ip| self.locations.get(&ip.dst()).copied())
            .unwrap_or_else(|| *self.sites.keys().next().expect("fleet has a platform"))
    }

    /// Resolves the serving platform seen from `vantage`: the tenant's
    /// home when it is alive and untiered, else the lowest-latency alive
    /// copy among home + CDN replicas (ties to the lower platform id).
    /// Falls back to the (dead) home when nothing alive can serve, so
    /// the drop is charged where it happens.
    fn resolve_dest(&mut self, vantage: NodeId, pkt: &Packet) -> NodeId {
        let primary = self.dest_platform(pkt);
        let reps = pkt.ipv4().ok().and_then(|ip| self.replicas.get(&ip.dst()));
        if reps.is_none_or(|r| r.is_empty()) && !self.dead.contains(&primary) {
            return primary;
        }
        let reps = reps.cloned().unwrap_or_default();
        let mut best: Option<(SimTime, NodeId)> = None;
        for cand in std::iter::once(primary).chain(reps) {
            if !self.is_alive(cand) {
                continue;
            }
            let cost = if cand == vantage {
                0
            } else {
                match self.path(vantage, cand) {
                    Some(attrs) => attrs.latency_ns,
                    None => continue,
                }
            };
            if best.is_none_or(|b| (cost, cand) < b) {
                best = Some((cost, cand));
            }
        }
        best.map(|(_, n)| n).unwrap_or(primary)
    }

    /// Puts a packet on the `from -> to` fabric link at `now`. Returns
    /// `Ok(true)` when enqueued, `Ok(false)` when tail-dropped at the
    /// queue cap.
    fn fabric_send(
        &mut self,
        from: NodeId,
        to: NodeId,
        pkt: Packet,
        now: SimTime,
        hops: u8,
    ) -> Result<bool, FleetError> {
        let attrs = self.path(from, to).ok_or(FleetError::NoPath(from, to))?;
        let link = self.fabric.entry((from, to)).or_insert_with(|| FabricLink {
            link: SimLink::new(attrs.bandwidth_bps as f64, attrs.latency_ns, 0.0),
            bandwidth_bps: attrs.bandwidth_bps,
            usage: LinkUsage::default(),
        });
        let queue_ns = link.link.busy_until().saturating_sub(now);
        if queue_ns > self.max_queue_ns {
            link.usage.drops += 1;
            link.usage.dropped_bytes += pkt.len() as u64;
            self.stats.link_drops += 1;
            return Ok(false);
        }
        let arrival = link
            .link
            .transmit(now, pkt.len(), &mut self.rng)
            .expect("fabric links are lossless");
        link.usage.packets += 1;
        link.usage.bytes += pkt.len() as u64;
        self.events.push(Reverse(FabricEvent {
            at: arrival,
            seq: self.seq,
            origin: from,
            dst: to,
            hops,
            pkt,
        }));
        self.seq += 1;
        self.stats.fabric_forwards += 1;
        Ok(true)
    }

    /// Delivers a packet at its destination platform at time `at`,
    /// appending transmissions to `out`. Packets for migrating tenants
    /// are buffered at the fleet layer.
    fn deliver_local(
        &mut self,
        platform: NodeId,
        pkt: Packet,
        at: SimTime,
        out: &mut Vec<(NodeId, u16, Packet)>,
    ) {
        if let Ok(ip) = pkt.ipv4() {
            // Replica-served packets bypass the migration buffer: only
            // the home copy moves, the edge copies keep serving.
            let at_replica = self
                .replicas
                .get(&ip.dst())
                .is_some_and(|r| r.contains(&platform));
            if !at_replica {
                if let Some(m) = self.migrating.get_mut(&ip.dst()) {
                    m.buffered.push(pkt);
                    self.stats.migration_buffered += 1;
                    return;
                }
            }
        }
        if self.dead.contains(&platform) {
            self.stats.dead_drops += 1;
            return;
        }
        let Some(site) = self.sites.get_mut(&platform) else {
            self.stats.host_errors += 1;
            return;
        };
        match site.switch.on_packet(&mut site.host, pkt, at) {
            Ok(tx) => out.extend(tx.into_iter().map(|(iface, p)| (platform, iface, p))),
            Err(_) => self.stats.host_errors += 1,
        }
    }

    /// Hands the fleet a packet at virtual time `now`, delivered at its
    /// tenant's home platform with no fabric cost (the single-host
    /// oracle path). Returns synchronous transmissions as
    /// `(platform, iface, packet)`.
    pub(crate) fn inject(&mut self, pkt: Packet, now: SimTime) -> Vec<(NodeId, u16, Packet)> {
        self.stats.injected += 1;
        let primary = self.dest_platform(&pkt);
        let dst = self.resolve_dest(primary, &pkt);
        let mut out = Vec::new();
        self.deliver_local(dst, pkt, now, &mut out);
        out
    }

    /// Hands the fleet a packet arriving at platform `ingress`. If the
    /// nearest serving copy (home or CDN replica) lives elsewhere the
    /// packet crosses the fabric — paying the path's serialization and
    /// propagation delay on a FIFO link, subject to the queue cap — and
    /// is delivered by the next [`Fleet::advance`] past its arrival.
    pub(crate) fn inject_at(
        &mut self,
        ingress: NodeId,
        pkt: Packet,
        now: SimTime,
    ) -> Result<Vec<(NodeId, u16, Packet)>, FleetError> {
        if !self.sites.contains_key(&ingress) {
            return Err(FleetError::UnknownPlatform(ingress));
        }
        if self.dead.contains(&ingress) {
            return Err(FleetError::DeadPlatform(ingress));
        }
        self.stats.injected += 1;
        let dst = self.resolve_dest(ingress, &pkt);
        if dst == ingress {
            let mut out = Vec::new();
            self.deliver_local(dst, pkt, now, &mut out);
            return Ok(out);
        }
        if let Err(e) = self.fabric_send(ingress, dst, pkt, now, 1) {
            self.stats.no_path_drops += 1;
            return Err(e);
        }
        Ok(Vec::new())
    }

    /// Whether `platform` still serves `pkt`: it is the tenant's current
    /// home or holds a CDN replica. Packets in flight to a platform that
    /// stopped serving (death, re-home) are re-routed at arrival.
    fn serves(&self, platform: NodeId, pkt: &Packet) -> bool {
        if self.dead.contains(&platform) {
            return false;
        }
        let Ok(ip) = pkt.ipv4() else {
            // Non-IP traffic has no tenant: wherever it was headed is
            // where the unknown-destination drop gets recorded.
            return true;
        };
        match self.locations.get(&ip.dst()) {
            Some(&home) => {
                home == platform
                    || self
                        .replicas
                        .get(&ip.dst())
                        .is_some_and(|r| r.contains(&platform))
            }
            // Unknown tenant: the border switch records the drop.
            None => true,
        }
    }

    /// Advances virtual time fleet-wide: delivers fabric packets whose
    /// arrival has passed (in arrival order, re-routing ones whose
    /// destination stopped serving), drives in-flight migrations through
    /// their stages, and advances the woken hosts that have a VM
    /// transition due, in ascending id. Returns all transmissions as
    /// `(platform, iface, packet)`.
    pub(crate) fn advance(&mut self, now: SimTime) -> Vec<(NodeId, u16, Packet)> {
        let mut out = Vec::new();
        while let Some(Reverse(ev)) = self.events.peek() {
            if ev.at > now {
                break;
            }
            let Reverse(ev) = self.events.pop().expect("peeked");
            if self.serves(ev.dst, &ev.pkt) {
                self.deliver_local(ev.dst, ev.pkt, ev.at, &mut out);
                continue;
            }
            // The destination died or the tenant moved mid-flight:
            // re-forward from the arrival point (or the origin if the
            // arrival point is dead), within the hop budget.
            let vantage = if self.dead.contains(&ev.dst) {
                ev.origin
            } else {
                ev.dst
            };
            let cur = self.resolve_dest(vantage, &ev.pkt);
            if ev.hops >= MAX_FABRIC_HOPS || !self.is_alive(vantage) || !self.is_alive(cur) {
                self.stats.dead_drops += 1;
                continue;
            }
            if cur == vantage {
                self.stats.reroutes += 1;
                self.deliver_local(cur, ev.pkt, ev.at, &mut out);
                continue;
            }
            match self.fabric_send(vantage, cur, ev.pkt, ev.at, ev.hops + 1) {
                Ok(true) => {
                    // fabric_send counts a fresh forward; the re-route
                    // counter records that it was not the first hop.
                    self.stats.reroutes += 1;
                }
                Ok(false) => {}
                Err(_) => self.stats.dead_drops += 1,
            }
        }
        self.advance_migrations(now, &mut out);
        // Same output as advancing every alive host: one with no VM
        // transition due returns nothing from `Host::advance` and changes
        // no state (its gauges were refreshed when it last changed), and
        // no host outside the wake index has a VM in transition.
        debug_assert!(self.sites.iter().all(|(id, s)| {
            self.sites.is_woken(id) || self.dead.contains(id) || s.host.next_due().is_none()
        }));
        let (dead, stats) = (&self.dead, &mut self.stats);
        self.sites.retain_woken(|id, site| {
            let alive = !dead.contains(&id);
            if alive && site.host.next_due().is_some_and(|due| due <= now) {
                site.advance(id, now, stats, &mut out);
            }
            alive && site.host.next_due().is_some()
        });
        out
    }

    /// Reclaims idle VMs on every host (see
    /// [`SwitchController::reclaim_idle`]), waking them all. Tenants
    /// mid-migration are not affected: their VM is already suspended or
    /// in flight.
    pub(crate) fn reclaim_idle(&mut self, now: SimTime, idle_ns: SimTime) {
        for id in self.platforms() {
            let site = self.sites.get_mut(&id).expect("just listed");
            site.switch.reclaim_idle(&mut site.host, now, idle_ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmState;
    use innet_click::ClickConfig;
    use innet_packet::PacketBuilder;

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

    /// A two-platform fleet over a small star topology.
    fn two_pop_fleet() -> (Fleet, NodeId, NodeId) {
        let t = innet_topology::generate_fleet(&innet_topology::FleetParams {
            pops: 2,
            platforms_per_pop: 1,
            clients_per_pop: 1,
            seed: 3,
        });
        let f = Fleet::new(&t);
        let ps = f.platforms();
        assert_eq!(ps.len(), 2);
        (f, ps[0], ps[1])
    }

    #[test]
    fn single_host_fleet_matches_bare_host_byte_for_byte() {
        // The oracle: drive identical traffic through a 1-host fleet and
        // a bare Host + SwitchController; outputs and stats must match.
        let mut fleet = Fleet::single_host(16 * 1024);
        let platform = fleet.platforms()[0];
        fleet
            .register(platform, filter_entry(TENANT, false))
            .unwrap();

        let mut host = Host::new(16 * 1024);
        let mut sw = SwitchController::new();
        sw.register(filter_entry(TENANT, false));

        let stranger = PacketBuilder::udp()
            .dst(Ipv4Addr::new(9, 9, 9, 9), 1)
            .build();
        let schedule: Vec<(SimTime, Packet)> = vec![
            (0, udp_to(TENANT, 1)),
            (1_000, stranger),
            (200_000_000, udp_to(TENANT, 2)),
            (200_000_500, udp_to(TENANT, 3)),
        ];

        let mut fleet_out = Vec::new();
        let mut host_out = Vec::new();
        for (at, pkt) in schedule {
            fleet_out.extend(
                fleet
                    .inject(pkt.clone(), at)
                    .into_iter()
                    .map(|(_, iface, p)| (iface, p)),
            );
            host_out.extend(sw.on_packet(&mut host, pkt, at).unwrap());
            fleet_out.extend(
                fleet
                    .advance(at)
                    .into_iter()
                    .map(|(_, iface, p)| (iface, p)),
            );
            host_out.extend(host.advance(at).into_iter().map(|(_, iface, p)| (iface, p)));
        }
        fleet_out.extend(
            fleet
                .advance(1_000_000_000)
                .into_iter()
                .map(|(_, iface, p)| (iface, p)),
        );
        host_out.extend(
            host.advance(1_000_000_000)
                .into_iter()
                .map(|(_, iface, p)| (iface, p)),
        );

        assert_eq!(fleet_out, host_out, "byte- and order-identical");
        assert_eq!(fleet.switch(platform).unwrap().stats(), sw.stats());
        assert_eq!(fleet.stats().fabric_forwards, 0, "no fabric on one host");
    }

    #[test]
    fn fabric_delivery_pays_path_latency() {
        let (mut fleet, a, b) = two_pop_fleet();
        fleet.register(b, filter_entry(TENANT, false)).unwrap();
        // Warm the VM so cross-fabric packets process synchronously.
        fleet.inject(udp_to(TENANT, 1), 0);
        fleet.advance(1_000_000_000);

        let out = fleet
            .inject_at(a, udp_to(TENANT, 2), 1_000_000_000)
            .unwrap();
        assert!(out.is_empty(), "in flight on the fabric");
        // Nothing arrives before the path latency has elapsed.
        assert!(fleet.advance(1_000_000_001).is_empty());
        let lat = fleet.path(a, b).unwrap().latency_ns;
        assert!(lat > 1_000_000, "WAN path crosses the core ring");
        let out = fleet.advance(2_000_000_000 + lat);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, b, "delivered at the tenant's home platform");
        assert_eq!(fleet.stats().fabric_forwards, 1);
    }

    #[test]
    fn live_migration_moves_vm_and_counts_downtime() {
        let (mut fleet, a, b) = two_pop_fleet();
        fleet.register(a, filter_entry(TENANT, true)).unwrap();
        fleet.inject(udp_to(TENANT, 1), 0);
        fleet.advance(1_000_000_000);
        assert_eq!(fleet.host(a).unwrap().live_vms(), 1);

        fleet.migrate(TENANT, b, 1_000_000_000).unwrap();
        // Mid-window traffic is buffered at the fleet layer.
        fleet.inject(udp_to(TENANT, 2), 1_000_100_000);
        assert_eq!(fleet.stats().migration_buffered, 1);

        let out = fleet.advance(60_000_000_000);
        assert_eq!(fleet.location(TENANT), Some(b));
        assert_eq!(fleet.host(a).unwrap().live_vms(), 0);
        assert_eq!(fleet.host(b).unwrap().live_vms(), 1);
        // The buffered packet was flushed through the migrated VM.
        assert_eq!(out.iter().filter(|(p, _, _)| *p == b).count(), 1);
        let rec = fleet.migrations()[0];
        assert_eq!((rec.from, rec.to), (a, b));
        assert!(rec.downtime_ns > 0, "suspend+transfer+resume take time");
        assert_eq!(rec.downtime_ns, rec.completed_at - rec.started_at);
    }

    /// A two-platform fleet holding `hot` and `cold` live stateful
    /// tenants, warmed up to t = 2 s.
    fn split_fleet(hot: u8, cold: u8) -> (Fleet, NodeId, NodeId) {
        let (mut fleet, a, b) = two_pop_fleet();
        for i in 0..hot + cold {
            let addr = Ipv4Addr::new(203, 0, 113, 10 + i);
            let home = if i < hot { a } else { b };
            fleet.register(home, filter_entry(addr, true)).unwrap();
            fleet.inject(udp_to(addr, 1), 0);
        }
        fleet.advance(2_000_000_000);
        assert_eq!(fleet.host(a).unwrap().live_vms(), hot as usize);
        assert_eq!(fleet.host(b).unwrap().live_vms(), cold as usize);
        (fleet, a, b)
    }

    fn live_spread(fleet: &Fleet, a: NodeId, b: NodeId) -> usize {
        let (a, b) = (fleet.host(a).unwrap(), fleet.host(b).unwrap());
        a.live_vms().abs_diff(b.live_vms())
    }

    #[test]
    fn rebalance_triggers_on_imbalance() {
        let (mut fleet, a, b) = split_fleet(4, 0);
        let moves = fleet.rebalance(2_000_000_000, 2);
        assert_eq!(moves.len(), 2, "4-0 rebalances to 2-2 at threshold 2");
        fleet.advance(120_000_000_000);
        assert!(live_spread(&fleet, a, b) < 2);
        assert_eq!(moves[0].1, a);
        assert_eq!(moves[0].2, b);

        let (mut fleet, a, b) = split_fleet(5, 0);
        let moves = fleet.rebalance(2_000_000_000, 1);
        assert!(moves.len() <= 3, "5-0 settles in {} moves", moves.len());
        fleet.advance(120_000_000_000);
        assert!(live_spread(&fleet, a, b) <= 1);
    }

    #[test]
    fn rebalance_moves_only_when_the_spread_narrows() {
        // Regression: without a traffic matrix, a 3-2 split at threshold
        // 1 used to ping-pong every tenant in the fleet (five live
        // migrations, each a downtime window) and end at 2-3. Moving one
        // of five equal tenants cannot narrow a spread of one.
        for threshold in [1, 2] {
            let (mut fleet, a, b) = split_fleet(3, 2);
            let moves = fleet.rebalance(2_000_000_000, threshold);
            assert!(moves.is_empty(), "threshold {threshold}: {moves:?}");
            fleet.advance(120_000_000_000);
            assert_eq!(fleet.stats().migrations_started, 0);
            assert_eq!(live_spread(&fleet, a, b), 1);
        }
    }

    #[test]
    fn rebalance_counts_in_flight_migrations_at_their_destination() {
        // 4-0 at threshold 2 starts two moves. A tick inside their
        // downtime window — movers suspending, then on the wire, then
        // resuming — must see 2-2, not 4-0 again.
        let t0 = 2_000_000_000;
        let (mut fleet, a, b) = split_fleet(4, 0);
        assert_eq!(fleet.rebalance(t0, 2).len(), 2);
        for dt in [1_000_000, 10_000_000, 30_000_000, 60_000_000] {
            fleet.advance(t0 + dt);
            assert!(fleet.migrations().is_empty(), "+{dt} ns is mid-window");
            assert_eq!(fleet.rebalance(t0 + dt, 2), vec![], "tick at +{dt} ns");
        }
        fleet.advance(120_000_000_000);
        assert_eq!(fleet.stats().migrations_started, 2);
        assert_eq!(live_spread(&fleet, a, b), 0);
    }

    #[test]
    fn reclaim_suspends_are_seen_by_the_wake_index() {
        // `reclaim_idle` starts suspends behind the fleet's back. A quiet
        // tenant's must still complete, and a packet landing in a busy
        // tenant's suspend window must still auto-resume and flush.
        let quiet = Ipv4Addr::new(203, 0, 113, 11);
        let (mut fleet, a, b) = two_pop_fleet();
        fleet.register(a, filter_entry(quiet, true)).unwrap();
        fleet.register(b, filter_entry(TENANT, true)).unwrap();
        fleet.inject(udp_to(quiet, 1), 0);
        fleet.inject(udp_to(TENANT, 1), 0);
        assert_eq!(fleet.advance(1_000_000_000).len(), 2);

        fleet.reclaim_idle(2_000_000_000, 500_000_000);
        assert!(fleet.advance(2_000_000_000).is_empty());
        let vm_state = |f: &Fleet, p, addr| {
            let vm = f.switch(p).unwrap().binding(addr).unwrap();
            f.host(p).unwrap().vm(vm).unwrap().state
        };
        assert!(matches!(
            vm_state(&fleet, b, TENANT),
            VmState::Suspending { .. }
        ));
        assert!(fleet.inject(udp_to(TENANT, 2), 2_010_000_000).is_empty());
        assert!(fleet.advance(2_010_000_000).is_empty());

        let out = fleet.advance(3_000_000_000);
        assert_eq!(out.len(), 1, "the window's packet flushed");
        assert_eq!(out[0].0, b);
        assert_eq!(vm_state(&fleet, b, TENANT), VmState::Running);
        assert_eq!(fleet.switch(b).unwrap().stats().resumes, 1);
        assert_eq!(vm_state(&fleet, a, quiet), VmState::Suspended);
        // Two boots, then one advance per site carries `a` to suspended
        // and `b` through suspended and resuming back to running.
        assert_eq!(fleet.stats().site_advances, 2 + 2);
    }

    #[test]
    fn rehomed_tenant_boots_at_its_new_home_on_first_packet() {
        let (mut fleet, a, b) = two_pop_fleet();
        fleet.register(a, filter_entry(TENANT, false)).unwrap();
        // The platform dies with the tenant's VM still booting.
        fleet.inject(udp_to(TENANT, 1), 0);
        assert_eq!(fleet.kill_platform(a, 1_000).unwrap(), vec![TENANT]);
        fleet.rehome(TENANT, b).unwrap();
        assert!(fleet.advance(50_000_000).is_empty());
        assert!(!fleet.sites.is_woken(&a), "dead sites leave the index");

        assert!(fleet.inject(udp_to(TENANT, 2), 60_000_000).is_empty());
        assert!(fleet.advance(60_000_000).is_empty(), "still booting");
        let out = fleet.advance(1_000_000_000);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, b, "served by a fresh VM at the new home");
        assert_eq!(fleet.switch(b).unwrap().stats().boots, 1);
        assert_eq!(fleet.host(b).unwrap().running_vms(), 1);
        assert_eq!(fleet.stats().site_advances, 1, "the dead host never ran");
    }

    #[test]
    fn refused_injection_is_a_named_drop() {
        // Two platforms with no link between them: the fabric has no
        // path, the packet is refused under its own counter, and
        // conservation still closes.
        let mut t = Topology::new();
        let a = t
            .add("a", NodeKind::Platform(PlatformSpec::default()))
            .unwrap();
        let b = t
            .add("b", NodeKind::Platform(PlatformSpec::default()))
            .unwrap();
        let mut fleet = Fleet::new(&t);
        fleet.register(b, filter_entry(TENANT, false)).unwrap();
        let refused = fleet.inject_at(a, udp_to(TENANT, 1), 0);
        assert!(matches!(refused, Err(FleetError::NoPath(..))));
        assert_eq!(fleet.stats().injected, 1);
        assert_eq!(fleet.stats().no_path_drops, 1);
        assert_eq!(fleet.in_flight(), 0);
    }
}
