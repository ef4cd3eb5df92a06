//! Virtual machines and the host that runs them, in virtual time.
//!
//! The host model charges calibrated latencies (see [`crate::calib`]) for
//! boot, suspend, and resume, and real memory accounting; the packet
//! processing *inside* a ClickOS VM is the real `innet_click::Router`, so
//! data-plane behaviour is executed, not modelled.

use innet_click::{ClickConfig, Registry, Router, RouterError};
use innet_packet::Packet;

use crate::calib::{
    boot_latency_ns, resume_latency_ns, suspend_latency_ns, vm_mem_mb, VmTimingKind,
};

/// Identifier of a VM within one host.
pub type VmId = usize;

/// Why the platform dropped a packet.
///
/// Every packet-drop path in the platform names one of these reasons and
/// increments a reason-labeled drop counter (`innet_switch_drops_total` /
/// `innet_host_drops_total`), so
/// `packets_in == delivered + buffered + Σ drops_by_reason` is a
/// checkable invariant — no drop is ever silent. See DESIGN.md §9 for
/// the taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The destination is not a registered client (or not IPv4).
    UnknownDst,
    /// A mid-flow packet arrived after its VM was reclaimed; it cannot
    /// start a new flow, so there is nothing to deliver it to.
    MidFlowNoVm,
    /// The packet reached a VM that is suspended (direct host delivery
    /// only; the switch controller resumes before delivering).
    Suspended,
    /// The packet reached a VM in its suspend window. Since the
    /// suspend-window fix this path buffers instead of dropping; the
    /// label remains in the taxonomy so a regression is visible as a
    /// non-zero counter rather than silence.
    Suspending,
    /// The packet reached a running VM with no packet processor (a
    /// plain Linux guest).
    NoRouter,
}

impl DropReason {
    /// The metric label for this reason.
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::UnknownDst => "unknown_dst",
            DropReason::MidFlowNoVm => "mid_flow_no_vm",
            DropReason::Suspended => "suspended",
            DropReason::Suspending => "suspending",
            DropReason::NoRouter => "no_router",
        }
    }
}

/// What happened to a packet handed to [`Host::deliver_tracked`].
///
/// The switch controller uses this to bill tenants only for packets that
/// were actually delivered or buffered — dropped packets are never
/// charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Processed immediately by a running VM.
    Delivered,
    /// Queued while the VM boots, resumes, or finishes suspending;
    /// delivered when it becomes runnable.
    Buffered,
    /// Dropped, with the reason (also counted in the host's drop
    /// counter).
    Dropped(DropReason),
}

/// VM lifecycle state, with virtual-time transition deadlines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmState {
    /// Being created; ready at the embedded virtual time.
    Booting {
        /// When the VM becomes runnable.
        ready_at: u64,
    },
    /// Runnable and processing packets.
    Running,
    /// Being suspended; suspended at the embedded virtual time.
    Suspending {
        /// When the suspend completes.
        done_at: u64,
    },
    /// Suspended to memory: state retained, no processing.
    Suspended,
    /// Being resumed; runnable again at the embedded virtual time.
    Resuming {
        /// When the resume completes.
        ready_at: u64,
    },
    /// Destroyed (slot retained for id stability).
    Destroyed,
}

/// One virtual machine.
pub struct Vm {
    /// Guest kind (drives timing and memory).
    pub kind: VmTimingKind,
    /// Lifecycle state.
    pub state: VmState,
    /// The Click instance running inside (ClickOS guests only).
    pub router: Option<Router>,
    /// Packets that arrived while booting/resuming, delivered when the VM
    /// becomes runnable (the switch controller buffers the first packets
    /// of a flow while its VM boots).
    pub pending: Vec<(u16, Packet)>,
}

/// Errors from host operations.
#[derive(Debug, PartialEq)]
pub enum HostError {
    /// Not enough free memory for another VM.
    OutOfMemory {
        /// MB needed.
        need_mb: u64,
        /// MB free.
        free_mb: u64,
    },
    /// The VM id does not exist or is destroyed.
    NoSuchVm(VmId),
    /// The operation is invalid in the VM's current state.
    BadState(VmId, &'static str),
    /// The guest configuration failed to instantiate.
    Router(RouterError),
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::OutOfMemory { need_mb, free_mb } => {
                write!(f, "out of memory: need {need_mb} MB, {free_mb} MB free")
            }
            HostError::NoSuchVm(id) => write!(f, "no such VM {id}"),
            HostError::BadState(id, what) => write!(f, "VM {id}: cannot {what} in this state"),
            HostError::Router(e) => write!(f, "guest configuration: {e}"),
        }
    }
}

impl std::error::Error for HostError {}

impl From<RouterError> for HostError {
    fn from(e: RouterError) -> Self {
        HostError::Router(e)
    }
}

/// The host's instruments in a shared [`innet_obs::Registry`]
/// (Prometheus namespace `innet_host_*`).
struct HostMetrics {
    boots: innet_obs::Counter,
    suspends: innet_obs::Counter,
    resumes: innet_obs::Counter,
    boot_ns: innet_obs::Histogram,
    suspend_ns: innet_obs::Histogram,
    resume_ns: innet_obs::Histogram,
    mem_used_mb: innet_obs::Gauge,
    live_vms: innet_obs::Gauge,
    running_vms: innet_obs::Gauge,
    delivered: innet_obs::Counter,
    buffered: innet_obs::Counter,
    drops: innet_obs::LabeledCounter,
}

impl HostMetrics {
    fn register(reg: &innet_obs::Registry) -> HostMetrics {
        HostMetrics {
            boots: reg.counter("innet_host_boots_total"),
            suspends: reg.counter("innet_host_suspends_total"),
            resumes: reg.counter("innet_host_resumes_total"),
            boot_ns: reg.histogram("innet_host_boot_latency_ns"),
            suspend_ns: reg.histogram("innet_host_suspend_latency_ns"),
            resume_ns: reg.histogram("innet_host_resume_latency_ns"),
            mem_used_mb: reg.gauge("innet_host_mem_used_mb"),
            live_vms: reg.gauge("innet_host_live_vms"),
            running_vms: reg.gauge("innet_host_running_vms"),
            delivered: reg.counter("innet_host_delivered_total"),
            buffered: reg.counter("innet_host_buffered_total"),
            drops: reg.labeled_counter("innet_host_drops_total", "reason"),
        }
    }
}

/// A physical platform host: memory pool plus a set of VMs.
pub struct Host {
    mem_mb: u64,
    mem_used_mb: u64,
    vms: Vec<Vm>,
    /// Ids of non-destroyed VMs, ascending. Destroyed slots stay in
    /// `vms` for id stability but are skipped by every scan, so flow
    /// churn cannot degrade [`Host::advance`] into an ever-growing
    /// dead-slot walk.
    active: Vec<VmId>,
    registry: Registry,
    obs: innet_obs::Registry,
    metrics: HostMetrics,
}

impl Host {
    /// Creates a host with the given physical memory and a private
    /// metrics registry (see [`Host::with_obs`] to share one).
    pub fn new(mem_mb: u64) -> Host {
        Host::with_obs(mem_mb, &innet_obs::Registry::new())
    }

    /// Creates a host publishing its metrics into `obs` (Prometheus
    /// namespace `innet_host_*`, plus `innet_click_*` for the routers
    /// inside its ClickOS guests). Sharing one registry between a host
    /// and its [`crate::SwitchController`] yields one unified snapshot.
    pub fn with_obs(mem_mb: u64, obs: &innet_obs::Registry) -> Host {
        Host {
            mem_mb,
            mem_used_mb: 0,
            vms: Vec::new(),
            active: Vec::new(),
            registry: Registry::standard(),
            obs: obs.clone(),
            metrics: HostMetrics::register(obs),
        }
    }

    /// The metrics registry this host publishes into.
    pub fn obs(&self) -> &innet_obs::Registry {
        &self.obs
    }

    /// Free memory in MB.
    pub fn free_mem_mb(&self) -> u64 {
        self.mem_mb - self.mem_used_mb
    }

    /// Number of VMs in any live state.
    pub fn live_vms(&self) -> usize {
        self.active.len()
    }

    /// Number of currently runnable VMs.
    pub fn running_vms(&self) -> usize {
        self.active
            .iter()
            .filter(|&&id| matches!(self.vms[id].state, VmState::Running))
            .count()
    }

    /// The earliest deadline among VMs in a timed transition (`Booting`,
    /// `Resuming`, `Suspending`), if any. Before that instant
    /// [`Host::advance`] returns nothing and changes nothing.
    pub fn next_due(&self) -> Option<u64> {
        let due = |&id: &VmId| match self.vms[id].state {
            VmState::Booting { ready_at } | VmState::Resuming { ready_at } => Some(ready_at),
            VmState::Suspending { done_at } => Some(done_at),
            _ => None,
        };
        self.active.iter().filter_map(due).min()
    }

    /// Refreshes the level gauges after a lifecycle change.
    fn refresh_gauges(&self) {
        self.metrics.mem_used_mb.set(self.mem_used_mb as i64);
        self.metrics.live_vms.set(self.live_vms() as i64);
        self.metrics.running_vms.set(self.running_vms() as i64);
    }

    /// Immutable access to a VM.
    pub fn vm(&self, id: VmId) -> Result<&Vm, HostError> {
        self.vms
            .get(id)
            .filter(|v| !matches!(v.state, VmState::Destroyed))
            .ok_or(HostError::NoSuchVm(id))
    }

    /// Mutable access to a VM.
    pub fn vm_mut(&mut self, id: VmId) -> Result<&mut Vm, HostError> {
        self.vms
            .get_mut(id)
            .filter(|v| !matches!(v.state, VmState::Destroyed))
            .ok_or(HostError::NoSuchVm(id))
    }

    /// Boots a ClickOS VM running `config`, charging the calibrated boot
    /// latency. Returns the VM id; the VM is `Booting` until
    /// [`Host::advance`] passes its deadline.
    pub fn boot_clickos(&mut self, config: &ClickConfig, now_ns: u64) -> Result<VmId, HostError> {
        self.boot(VmTimingKind::ClickOs, Some(config), now_ns)
    }

    /// Boots a (router-less) Linux VM — the expensive baseline.
    pub fn boot_linux(&mut self, now_ns: u64) -> Result<VmId, HostError> {
        self.boot(VmTimingKind::Linux, None, now_ns)
    }

    fn boot(
        &mut self,
        kind: VmTimingKind,
        config: Option<&ClickConfig>,
        now_ns: u64,
    ) -> Result<VmId, HostError> {
        let need = vm_mem_mb(kind);
        if self.free_mem_mb() < need {
            return Err(HostError::OutOfMemory {
                need_mb: need,
                free_mb: self.free_mem_mb(),
            });
        }
        let router = match config {
            Some(cfg) => {
                let mut r = Router::from_config(cfg, &self.registry)?;
                r.attach_metrics(&self.obs);
                Some(r)
            }
            None => None,
        };
        self.mem_used_mb += need;
        let boot_ns = boot_latency_ns(kind, self.live_vms());
        let ready_at = now_ns + boot_ns;
        self.vms.push(Vm {
            kind,
            state: VmState::Booting { ready_at },
            router,
            pending: Vec::new(),
        });
        let id = self.vms.len() - 1;
        self.active.push(id);
        self.metrics.boots.inc();
        self.metrics.boot_ns.observe(boot_ns);
        self.refresh_gauges();
        Ok(id)
    }

    /// Starts suspending a running VM.
    pub fn suspend(&mut self, id: VmId, now_ns: u64) -> Result<u64, HostError> {
        let existing = self.live_vms();
        let vm = self.vm_mut(id)?;
        if !matches!(vm.state, VmState::Running) {
            return Err(HostError::BadState(id, "suspend"));
        }
        let suspend_ns = suspend_latency_ns(existing.saturating_sub(1));
        let done_at = now_ns + suspend_ns;
        vm.state = VmState::Suspending { done_at };
        self.metrics.suspends.inc();
        self.metrics.suspend_ns.observe(suspend_ns);
        self.refresh_gauges();
        Ok(done_at)
    }

    /// Starts resuming a suspended VM.
    pub fn resume(&mut self, id: VmId, now_ns: u64) -> Result<u64, HostError> {
        let existing = self.live_vms();
        let vm = self.vm_mut(id)?;
        if !matches!(vm.state, VmState::Suspended) {
            return Err(HostError::BadState(id, "resume"));
        }
        let resume_ns = resume_latency_ns(existing.saturating_sub(1));
        let ready_at = now_ns + resume_ns;
        vm.state = VmState::Resuming { ready_at };
        self.metrics.resumes.inc();
        self.metrics.resume_ns.observe(resume_ns);
        self.refresh_gauges();
        Ok(ready_at)
    }

    /// Destroys a VM, releasing its memory. Stateful guests lose their
    /// state (which is why stateful modules are suspended instead — §5).
    pub fn destroy(&mut self, id: VmId) -> Result<(), HostError> {
        let kind = self.vm(id)?.kind;
        self.mem_used_mb -= vm_mem_mb(kind);
        let vm = &mut self.vms[id];
        vm.state = VmState::Destroyed;
        vm.router = None;
        vm.pending.clear();
        // `retain` keeps `active` sorted (ids are never reused), so
        // `advance` stays deterministic in boot order.
        self.active.retain(|&a| a != id);
        self.refresh_gauges();
        Ok(())
    }

    /// Removes a *suspended* VM from this host for live migration,
    /// returning it (router state, buffered packets and all) and
    /// releasing its memory. The migration protocol is
    /// suspend → extract → transfer → [`Host::implant`] on the
    /// destination; extracting a VM in any other state is a
    /// [`HostError::BadState`], which forces callers through the
    /// suspend path and so through its buffering invariant.
    pub fn extract(&mut self, id: VmId) -> Result<Vm, HostError> {
        let kind = {
            let vm = self.vm(id)?;
            if !matches!(vm.state, VmState::Suspended) {
                return Err(HostError::BadState(id, "extract"));
            }
            vm.kind
        };
        self.mem_used_mb -= vm_mem_mb(kind);
        let vm = std::mem::replace(
            &mut self.vms[id],
            Vm {
                kind: VmTimingKind::ClickOs,
                state: VmState::Destroyed,
                router: None,
                pending: Vec::new(),
            },
        );
        self.active.retain(|&a| a != id);
        self.refresh_gauges();
        Ok(vm)
    }

    /// Installs a VM extracted from another host, charging the calibrated
    /// resume latency (the destination end of a live migration). The VM
    /// is `Resuming` until [`Host::advance`] passes `ready_at`; packets
    /// delivered in the window are buffered, preserving the
    /// suspend-window invariant across hosts. Returns the new id and the
    /// ready time.
    pub fn implant(&mut self, mut vm: Vm, now_ns: u64) -> Result<(VmId, u64), HostError> {
        let need = vm_mem_mb(vm.kind);
        if self.free_mem_mb() < need {
            return Err(HostError::OutOfMemory {
                need_mb: need,
                free_mb: self.free_mem_mb(),
            });
        }
        self.mem_used_mb += need;
        let resume_ns = resume_latency_ns(self.live_vms());
        let ready_at = now_ns + resume_ns;
        vm.state = VmState::Resuming { ready_at };
        if let Some(router) = vm.router.as_mut() {
            router.attach_metrics(&self.obs);
        }
        self.vms.push(vm);
        let id = self.vms.len() - 1;
        self.active.push(id);
        self.metrics.resumes.inc();
        self.metrics.resume_ns.observe(resume_ns);
        self.refresh_gauges();
        Ok((id, ready_at))
    }

    /// Advances virtual time: completes lifecycle transitions whose
    /// deadlines have passed and flushes packets buffered for VMs that
    /// just became runnable. Returns packets transmitted by those VMs as
    /// `(vm, iface, packet)`.
    ///
    /// A VM whose suspend completes with packets buffered in its suspend
    /// window resumes immediately (§5 "Suspend and resume"): the resume
    /// starts at the suspend's completion instant, and — because
    /// transitions are re-examined until a fixed point — a single
    /// `advance` far enough into the future carries it all the way back
    /// to `Running` and flushes the buffer.
    pub fn advance(&mut self, now_ns: u64) -> Vec<(VmId, u16, Packet)> {
        let mut out = Vec::new();
        loop {
            let mut changed = false;
            let live = self.active.len();
            for i in 0..self.active.len() {
                let id = self.active[i];
                let vm = &mut self.vms[id];
                match vm.state {
                    VmState::Booting { ready_at } | VmState::Resuming { ready_at }
                        if now_ns >= ready_at =>
                    {
                        vm.state = VmState::Running;
                        changed = true;
                        if let Some(router) = vm.router.as_mut() {
                            for (iface, pkt) in vm.pending.drain(..) {
                                let _ = router.deliver(iface, pkt, now_ns);
                            }
                            for (iface, pkt) in router.take_tx() {
                                out.push((id, iface, pkt));
                            }
                        }
                    }
                    VmState::Suspending { done_at } if now_ns >= done_at => {
                        changed = true;
                        if vm.pending.is_empty() {
                            vm.state = VmState::Suspended;
                        } else {
                            // Packets arrived during the suspend window:
                            // schedule the resume the moment the suspend
                            // completes, mirroring the boot-buffering
                            // path, so nothing is dropped.
                            let resume_ns = resume_latency_ns(live.saturating_sub(1));
                            vm.state = VmState::Resuming {
                                ready_at: done_at + resume_ns,
                            };
                            self.metrics.resumes.inc();
                            self.metrics.resume_ns.observe(resume_ns);
                        }
                    }
                    _ => {}
                }
            }
            if !changed {
                break;
            }
        }
        self.refresh_gauges();
        out
    }

    /// Delivers a packet to a VM at virtual time `now_ns`.
    ///
    /// Running VMs process immediately (returning any transmissions);
    /// booting, resuming, and *suspending* VMs buffer (a suspend-window
    /// arrival triggers a resume when the suspend completes); suspended
    /// and router-less (Linux) VMs drop — and every drop increments the
    /// host's reason-labeled drop counter.
    pub fn deliver(
        &mut self,
        id: VmId,
        iface: u16,
        pkt: Packet,
        now_ns: u64,
    ) -> Result<Vec<(u16, Packet)>, HostError> {
        self.deliver_tracked(id, iface, pkt, now_ns)
            .map(|(_, out)| out)
    }

    /// Like [`Host::deliver`], but also reports what happened to the
    /// packet, so callers (the switch controller) can account and bill
    /// by outcome.
    pub fn deliver_tracked(
        &mut self,
        id: VmId,
        iface: u16,
        pkt: Packet,
        now_ns: u64,
    ) -> Result<(Delivery, Vec<(u16, Packet)>), HostError> {
        // Field-level access (rather than `vm_mut`) so `self.metrics`
        // stays borrowable alongside the VM.
        let vm = self
            .vms
            .get_mut(id)
            .filter(|v| !matches!(v.state, VmState::Destroyed))
            .ok_or(HostError::NoSuchVm(id))?;
        match vm.state {
            VmState::Running => match vm.router.as_mut() {
                Some(router) => {
                    self.metrics.delivered.inc();
                    let _ = router.deliver(iface, pkt, now_ns);
                    Ok((Delivery::Delivered, router.take_tx()))
                }
                None => {
                    self.metrics.drops.with(DropReason::NoRouter.as_str()).inc();
                    Ok((Delivery::Dropped(DropReason::NoRouter), Vec::new()))
                }
            },
            VmState::Booting { .. } | VmState::Resuming { .. } | VmState::Suspending { .. } => {
                vm.pending.push((iface, pkt));
                self.metrics.buffered.inc();
                Ok((Delivery::Buffered, Vec::new()))
            }
            VmState::Suspended => {
                self.metrics
                    .drops
                    .with(DropReason::Suspended.as_str())
                    .inc();
                Ok((Delivery::Dropped(DropReason::Suspended), Vec::new()))
            }
            VmState::Destroyed => Err(HostError::NoSuchVm(id)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use innet_packet::PacketBuilder;

    fn firewall_cfg() -> ClickConfig {
        ClickConfig::parse("FromNetfront() -> IPFilter(allow udp, allow icmp) -> ToNetfront();")
            .unwrap()
    }

    #[test]
    fn boot_buffers_then_processes() {
        let mut host = Host::new(16 * 1024);
        let vm = host.boot_clickos(&firewall_cfg(), 0).unwrap();
        // Packet arrives while booting: buffered.
        let out = host
            .deliver(vm, 0, PacketBuilder::udp().build(), 1_000_000)
            .unwrap();
        assert!(out.is_empty());
        // After the boot deadline the buffered packet flows out.
        let flushed = host.advance(60_000_000);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].0, vm);
        // Subsequent packets process synchronously.
        let out = host
            .deliver(vm, 0, PacketBuilder::udp().build(), 70_000_000)
            .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn memory_accounting_and_exhaustion() {
        // Host with room for exactly two ClickOS VMs.
        let mut host = Host::new(2 * vm_mem_mb(VmTimingKind::ClickOs));
        host.boot_clickos(&firewall_cfg(), 0).unwrap();
        host.boot_clickos(&firewall_cfg(), 0).unwrap();
        assert!(matches!(
            host.boot_clickos(&firewall_cfg(), 0),
            Err(HostError::OutOfMemory { .. })
        ));
        assert_eq!(host.free_mem_mb(), 0);
    }

    #[test]
    fn destroy_releases_memory() {
        let mut host = Host::new(16 * 1024);
        let vm = host.boot_clickos(&firewall_cfg(), 0).unwrap();
        let free_before = host.free_mem_mb();
        host.destroy(vm).unwrap();
        assert!(host.free_mem_mb() > free_before);
        assert!(matches!(
            host.deliver(vm, 0, PacketBuilder::udp().build(), 0),
            Err(HostError::NoSuchVm(_))
        ));
    }

    #[test]
    fn suspend_resume_cycle() {
        let mut host = Host::new(16 * 1024);
        let vm = host.boot_clickos(&firewall_cfg(), 0).unwrap();
        host.advance(100_000_000);
        assert_eq!(host.running_vms(), 1);

        let done = host.suspend(vm, 100_000_000).unwrap();
        assert!(done > 100_000_000);
        host.advance(done);
        assert!(matches!(host.vm(vm).unwrap().state, VmState::Suspended));
        // Suspended VMs drop traffic.
        let out = host
            .deliver(vm, 0, PacketBuilder::udp().build(), done + 1)
            .unwrap();
        assert!(out.is_empty());

        let ready = host.resume(vm, done + 1).unwrap();
        host.advance(ready);
        assert_eq!(host.running_vms(), 1);
        let out = host
            .deliver(vm, 0, PacketBuilder::udp().build(), ready + 1)
            .unwrap();
        assert_eq!(out.len(), 1, "state survived suspend/resume");
    }

    #[test]
    fn invalid_transitions_rejected() {
        let mut host = Host::new(16 * 1024);
        let vm = host.boot_clickos(&firewall_cfg(), 0).unwrap();
        // Cannot suspend a booting VM.
        assert!(matches!(
            host.suspend(vm, 0),
            Err(HostError::BadState(_, "suspend"))
        ));
        host.advance(100_000_000);
        // Cannot resume a running VM.
        assert!(matches!(
            host.resume(vm, 100_000_000),
            Err(HostError::BadState(_, "resume"))
        ));
    }

    #[test]
    fn linux_vm_has_no_router() {
        let mut host = Host::new(16 * 1024);
        let vm = host.boot_linux(0).unwrap();
        host.advance(1_000_000_000);
        let out = host
            .deliver(vm, 0, PacketBuilder::udp().build(), 1_000_000_001)
            .unwrap();
        assert!(out.is_empty());
    }
}
