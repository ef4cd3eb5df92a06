//! The back-end switch controller: on-the-fly VM instantiation (§5).
//!
//! "We modify ClickOS' back-end software switch to include a switch
//! controller … The controller monitors incoming traffic and identifies
//! new flows, where a new flow consists of a TCP SYN or UDP packet going
//! to an In-Net client. When one such flow is detected, a new VM is
//! instantiated for it, and, once ready, the flow's traffic is re-routed
//! through it."

use std::collections::HashMap;
use std::net::Ipv4Addr;

use innet_click::ClickConfig;
use innet_packet::{IpProto, Packet};

use crate::vm::{Delivery, DropReason, Host, HostError, VmId, VmState};

/// Per-client registration: which configuration to instantiate when the
/// client's traffic appears.
#[derive(Debug, Clone)]
pub struct ClientEntry {
    /// The address assigned to the client's processing module.
    pub addr: Ipv4Addr,
    /// The configuration to boot.
    pub config: ClickConfig,
    /// Whether the processing is stateful: stateful VMs are suspended
    /// when idle instead of destroyed (§5 "Suspend and resume").
    pub stateful: bool,
}

/// Counters the switch controller maintains.
///
/// The drop accounting is exhaustive:
/// `packets == delivered + buffered + dropped` always holds, and every
/// drop also lands in a reason-labeled cell of
/// `innet_switch_drops_total` when a registry is attached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Packets seen.
    pub packets: u64,
    /// VMs booted on the fly.
    pub boots: u64,
    /// VMs resumed from suspension (including resumes scheduled by a
    /// suspend-window arrival).
    pub resumes: u64,
    /// Packets delivered synchronously to a running VM.
    pub delivered: u64,
    /// Packets buffered while a VM was starting, resuming, or finishing
    /// a suspend.
    pub buffered: u64,
    /// Packets dropped, for any reason.
    pub dropped: u64,
    /// Packets for unknown destinations or reclaimed mid-flow VMs
    /// (subset of `dropped`, kept for compatibility).
    pub unknown: u64,
}

/// Shared-registry instruments for one switch controller (see
/// [`SwitchController::attach_metrics`]).
#[derive(Debug, Clone)]
struct SwitchMetrics {
    packets: innet_obs::Counter,
    delivered: innet_obs::Counter,
    buffered: innet_obs::Counter,
    boots: innet_obs::Counter,
    resumes: innet_obs::Counter,
    drops: innet_obs::LabeledCounter,
}

impl SwitchMetrics {
    fn register(reg: &innet_obs::Registry) -> SwitchMetrics {
        SwitchMetrics {
            packets: reg.counter("innet_switch_packets_total"),
            delivered: reg.counter("innet_switch_delivered_total"),
            buffered: reg.counter("innet_switch_buffered_total"),
            boots: reg.counter("innet_switch_boots_total"),
            resumes: reg.counter("innet_switch_resumes_total"),
            drops: reg.labeled_counter("innet_switch_drops_total", "reason"),
        }
    }
}

/// Per-tenant usage record, the basis of billing (§2.1:
/// "accountability ensures that users are charged for the resources they
/// use, discouraging resource exhaustion attacks against platforms").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// Packets delivered to the tenant's module.
    pub packets: u64,
    /// Bytes delivered to the tenant's module.
    pub bytes: u64,
    /// VM boots performed on the tenant's behalf.
    pub boots: u64,
    /// VM resumes performed on the tenant's behalf.
    pub resumes: u64,
}

/// The switch controller in front of one host.
pub struct SwitchController {
    clients: HashMap<Ipv4Addr, ClientEntry>,
    /// Destination address -> VM currently serving it.
    bindings: HashMap<Ipv4Addr, VmId>,
    /// Virtual time a VM last saw traffic (for idle reclamation).
    last_active: HashMap<VmId, u64>,
    /// Per-tenant usage accounting.
    usage: HashMap<Ipv4Addr, Usage>,
    /// Statistics.
    stats: SwitchStats,
    /// Shared-registry instruments, if attached.
    metrics: Option<SwitchMetrics>,
}

impl SwitchController {
    /// Creates an empty controller.
    pub fn new() -> SwitchController {
        SwitchController {
            clients: HashMap::new(),
            bindings: HashMap::new(),
            last_active: HashMap::new(),
            usage: HashMap::new(),
            stats: SwitchStats::default(),
            metrics: None,
        }
    }

    /// Publishes this controller's counters into `registry` (Prometheus
    /// namespace `innet_switch_*`): packets seen/delivered/buffered, VM
    /// boots and resumes, and `innet_switch_drops_total` labeled by
    /// [`DropReason`]. Only activity after attachment is counted.
    pub fn attach_metrics(&mut self, registry: &innet_obs::Registry) {
        self.metrics = Some(SwitchMetrics::register(registry));
    }

    /// A snapshot of the controller's counters.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Registers a client configuration for on-the-fly instantiation.
    pub fn register(&mut self, entry: ClientEntry) {
        self.clients.insert(entry.addr, entry);
    }

    /// Records a drop in the stats and (if attached) the reason-labeled
    /// drop counter.
    fn record_drop(&mut self, reason: DropReason) {
        self.stats.dropped += 1;
        if matches!(reason, DropReason::UnknownDst | DropReason::MidFlowNoVm) {
            self.stats.unknown += 1;
        }
        if let Some(m) = &self.metrics {
            m.drops.with(reason.as_str()).inc();
        }
    }

    /// Whether `pkt` opens a new flow per the paper's definition: a bare
    /// TCP SYN, or any UDP/ICMP packet.
    pub fn is_flow_start(pkt: &Packet) -> bool {
        match pkt.ip_proto() {
            Ok(IpProto::Tcp) => pkt
                .tcp()
                .map(|t| t.flags().is_initial_syn())
                .unwrap_or(false),
            Ok(IpProto::Udp) | Ok(IpProto::Icmp) => true,
            _ => false,
        }
    }

    /// Handles one incoming packet at virtual time `now_ns`: routes it to
    /// the serving VM, booting or resuming one if needed. Returns packets
    /// the VM transmitted synchronously.
    ///
    /// Tenants are billed only for packets that are actually delivered
    /// or buffered — a dropped packet never charges `usage.packets` or
    /// `usage.bytes`.
    pub fn on_packet(
        &mut self,
        host: &mut Host,
        pkt: Packet,
        now_ns: u64,
    ) -> Result<Vec<(u16, Packet)>, HostError> {
        self.stats.packets += 1;
        if let Some(m) = &self.metrics {
            m.packets.inc();
        }
        let Ok(ip) = pkt.ipv4() else {
            self.record_drop(DropReason::UnknownDst);
            return Ok(Vec::new());
        };
        let dst = ip.dst();
        if !self.clients.contains_key(&dst) {
            self.record_drop(DropReason::UnknownDst);
            return Ok(Vec::new());
        }

        let vm = match self.bindings.get(&dst).copied() {
            Some(vm) => {
                match host.vm(vm)?.state {
                    // Resume if it was suspended.
                    VmState::Suspended => {
                        host.resume(vm, now_ns)?;
                        self.stats.resumes += 1;
                        if let Some(m) = &self.metrics {
                            m.resumes.inc();
                        }
                        self.usage.entry(dst).or_default().resumes += 1;
                    }
                    // A first arrival in the suspend window schedules an
                    // auto-resume when the suspend completes (the host
                    // buffers the packet); bill and count that resume
                    // once, here, where the tenant is known.
                    VmState::Suspending { .. } if host.vm(vm)?.pending.is_empty() => {
                        self.stats.resumes += 1;
                        if let Some(m) = &self.metrics {
                            m.resumes.inc();
                        }
                        self.usage.entry(dst).or_default().resumes += 1;
                    }
                    _ => {}
                }
                vm
            }
            None => {
                if !SwitchController::is_flow_start(&pkt) {
                    // Mid-flow packet with no VM: drop (the flow's VM was
                    // reclaimed; stateless flows re-trigger on UDP).
                    self.record_drop(DropReason::MidFlowNoVm);
                    return Ok(Vec::new());
                }
                let vm = host.boot_clickos(&self.clients[&dst].config, now_ns)?;
                self.stats.boots += 1;
                if let Some(m) = &self.metrics {
                    m.boots.inc();
                }
                self.usage.entry(dst).or_default().boots += 1;
                self.bindings.insert(dst, vm);
                vm
            }
        };

        self.last_active.insert(vm, now_ns);
        let bytes = pkt.len() as u64;
        let (outcome, out) = host.deliver_tracked(vm, 0, pkt, now_ns)?;
        match outcome {
            Delivery::Delivered => {
                self.stats.delivered += 1;
                if let Some(m) = &self.metrics {
                    m.delivered.inc();
                }
            }
            Delivery::Buffered => {
                self.stats.buffered += 1;
                if let Some(m) = &self.metrics {
                    m.buffered.inc();
                }
            }
            Delivery::Dropped(reason) => {
                self.record_drop(reason);
                return Ok(out);
            }
        }
        let usage = self.usage.entry(dst).or_default();
        usage.packets += 1;
        usage.bytes += bytes;
        Ok(out)
    }

    /// Reclaims VMs idle for longer than `idle_ns`: stateless VMs are
    /// destroyed, stateful ones suspended.
    ///
    /// Reclamation also prunes the controller's per-VM bookkeeping
    /// (`bindings` and `last_active`), so long-running deployments with
    /// flow churn hold state proportional to the *live* flow set, not to
    /// every flow ever seen.
    pub fn reclaim_idle(&mut self, host: &mut Host, now_ns: u64, idle_ns: u64) {
        let mut unbind = Vec::new();
        for (&addr, &vm) in &self.bindings {
            let Ok(state) = host.vm(vm).map(|v| v.state) else {
                // The VM was destroyed out from under us: the binding is
                // stale either way, so prune it.
                unbind.push((addr, vm));
                continue;
            };
            let idle = now_ns.saturating_sub(self.last_active.get(&vm).copied().unwrap_or(0));
            if idle < idle_ns || !matches!(state, VmState::Running) {
                continue;
            }
            let stateful = self.clients.get(&addr).map(|e| e.stateful).unwrap_or(false);
            if stateful {
                // Suspended VMs keep their binding (and `last_active`
                // entry) so returning traffic resumes the same VM.
                let _ = host.suspend(vm, now_ns);
            } else {
                let _ = host.destroy(vm);
                unbind.push((addr, vm));
            }
        }
        for (addr, vm) in unbind {
            self.bindings.remove(&addr);
            self.last_active.remove(&vm);
        }
    }

    /// The VM currently bound to a client address.
    pub fn binding(&self, addr: Ipv4Addr) -> Option<VmId> {
        self.bindings.get(&addr).copied()
    }

    /// The registration for a client address, if any.
    pub fn client(&self, addr: Ipv4Addr) -> Option<&ClientEntry> {
        self.clients.get(&addr)
    }

    /// Removes a client registration and all its per-VM bookkeeping
    /// (binding and idle-tracking), returning the entry. The source end
    /// of a live migration: the VM itself is extracted from the host
    /// separately.
    pub fn unregister(&mut self, addr: Ipv4Addr) -> Option<ClientEntry> {
        if let Some(vm) = self.bindings.remove(&addr) {
            self.last_active.remove(&vm);
        }
        self.clients.remove(&addr)
    }

    /// Registers a client *with an already-bound VM* — the destination
    /// end of a live migration. Unlike [`SwitchController::register`],
    /// the binding is installed immediately (no flow-start required), so
    /// mid-flow packets keep flowing to the migrated VM instead of being
    /// dropped as [`DropReason::MidFlowNoVm`].
    pub fn adopt(&mut self, entry: ClientEntry, vm: VmId, now_ns: u64) {
        let addr = entry.addr;
        self.clients.insert(addr, entry);
        self.bindings.insert(addr, vm);
        self.last_active.insert(vm, now_ns);
    }

    /// Number of destination→VM bindings currently tracked. Bounded by
    /// the live flow set: [`SwitchController::reclaim_idle`] prunes
    /// bindings whose VM was destroyed.
    pub fn tracked_bindings(&self) -> usize {
        self.bindings.len()
    }

    /// Number of VMs with idle-reclamation bookkeeping (`last_active`).
    /// Pruned together with the binding when a VM is destroyed, so churn
    /// does not grow it without bound.
    pub fn tracked_vms(&self) -> usize {
        self.last_active.len()
    }

    /// The billing record for a tenant address.
    pub fn usage(&self, addr: Ipv4Addr) -> Usage {
        self.usage.get(&addr).copied().unwrap_or_default()
    }
}

impl Default for SwitchController {
    fn default() -> Self {
        SwitchController::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use innet_packet::{PacketBuilder, TcpFlags};

    const CLIENT: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);

    fn setup(stateful: bool) -> (Host, SwitchController) {
        let mut sw = SwitchController::new();
        sw.register(ClientEntry {
            addr: CLIENT,
            config: ClickConfig::parse(
                "FromNetfront() -> IPFilter(allow udp, allow icmp, allow tcp) -> ToNetfront();",
            )
            .unwrap(),
            stateful,
        });
        (Host::new(16 * 1024), sw)
    }

    fn udp_to_client() -> Packet {
        PacketBuilder::udp()
            .src(Ipv4Addr::new(8, 8, 8, 8), 99)
            .dst(CLIENT, 1500)
            .build()
    }

    #[test]
    fn first_packet_boots_vm_and_buffers() {
        let (mut host, mut sw) = setup(false);
        let out = sw.on_packet(&mut host, udp_to_client(), 0).unwrap();
        assert!(out.is_empty(), "buffered during boot");
        assert_eq!(sw.stats().boots, 1);
        assert_eq!(sw.stats().buffered, 1);
        // Boot completes; the buffered packet emerges.
        let flushed = host.advance(100_000_000);
        assert_eq!(flushed.len(), 1);
        // Second packet flows synchronously.
        let out = sw
            .on_packet(&mut host, udp_to_client(), 110_000_000)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(sw.stats().boots, 1, "no second boot");
    }

    #[test]
    fn unknown_destination_dropped() {
        let (mut host, mut sw) = setup(false);
        let stranger = PacketBuilder::udp()
            .dst(Ipv4Addr::new(9, 9, 9, 9), 1)
            .build();
        let out = sw.on_packet(&mut host, stranger, 0).unwrap();
        assert!(out.is_empty());
        assert_eq!(sw.stats().unknown, 1);
        assert_eq!(host.live_vms(), 0);
    }

    #[test]
    fn tcp_only_syn_starts_flows() {
        let (mut host, mut sw) = setup(false);
        let ack = PacketBuilder::tcp()
            .dst(CLIENT, 80)
            .flags(TcpFlags::ACK)
            .build();
        sw.on_packet(&mut host, ack, 0).unwrap();
        assert_eq!(host.live_vms(), 0, "mid-flow packet boots nothing");
        let syn = PacketBuilder::tcp()
            .dst(CLIENT, 80)
            .flags(TcpFlags::SYN)
            .build();
        sw.on_packet(&mut host, syn, 0).unwrap();
        assert_eq!(host.live_vms(), 1);
    }

    #[test]
    fn stateless_idle_vm_destroyed() {
        let (mut host, mut sw) = setup(false);
        sw.on_packet(&mut host, udp_to_client(), 0).unwrap();
        host.advance(100_000_000);
        sw.reclaim_idle(&mut host, 10_000_000_000, 1_000_000_000);
        assert_eq!(host.live_vms(), 0);
        assert!(sw.binding(CLIENT).is_none());
        // New traffic boots a fresh VM.
        sw.on_packet(&mut host, udp_to_client(), 11_000_000_000)
            .unwrap();
        assert_eq!(sw.stats().boots, 2);
    }

    #[test]
    fn usage_accounting_per_tenant() {
        let (mut host, mut sw) = setup(true);
        // Another tenant, to prove accounting is separate.
        let other = Ipv4Addr::new(203, 0, 113, 99);
        sw.register(ClientEntry {
            addr: other,
            config: ClickConfig::parse("FromNetfront() -> IPFilter(allow udp) -> ToNetfront();")
                .unwrap(),
            stateful: false,
        });

        for i in 0..5u64 {
            sw.on_packet(&mut host, udp_to_client(), i * 1_000_000_000)
                .unwrap();
        }
        let stranger = PacketBuilder::udp()
            .src(Ipv4Addr::new(8, 8, 8, 8), 1)
            .dst(other, 2)
            .pad_to(200)
            .build();
        sw.on_packet(&mut host, stranger, 0).unwrap();

        let u = sw.usage(CLIENT);
        assert_eq!(u.packets, 5);
        assert_eq!(u.boots, 1);
        assert_eq!(u.resumes, 0);
        assert!(u.bytes > 0);

        let v = sw.usage(other);
        assert_eq!(v.packets, 1);
        assert_eq!(v.bytes, 200);
        assert_eq!(sw.usage(Ipv4Addr::new(9, 9, 9, 9)), Usage::default());
    }

    #[test]
    fn stateful_idle_vm_suspended_then_resumed() {
        let (mut host, mut sw) = setup(true);
        sw.on_packet(&mut host, udp_to_client(), 0).unwrap();
        host.advance(100_000_000);
        sw.reclaim_idle(&mut host, 10_000_000_000, 1_000_000_000);
        let vm = sw.binding(CLIENT).expect("binding kept for stateful");
        host.advance(10_100_000_000);
        assert!(matches!(host.vm(vm).unwrap().state, VmState::Suspended));

        // Traffic resumes the same VM rather than booting a new one.
        sw.on_packet(&mut host, udp_to_client(), 20_000_000_000)
            .unwrap();
        assert_eq!(sw.stats().resumes, 1);
        assert_eq!(sw.stats().boots, 1);
    }
}
