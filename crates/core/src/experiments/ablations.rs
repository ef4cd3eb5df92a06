//! Ablations of the design choices the paper argues for (§2, §5):
//! consolidation, on-the-fly instantiation, and statically-gated
//! sandboxing. Each ablation removes one mechanism and quantifies what
//! it was buying.

use innet_click::ClickConfig;
use innet_controller::{table1_catalog, ClientRequest, Controller};
use innet_packet::{Packet, PacketBuilder};
use innet_platform::{
    calib::{boot_latency_ns, vm_mem_mb, VmTimingKind},
    consolidated_config, plain_firewall, sandboxed_firewall, ParallelRunner, RunnerConfig,
};
use innet_symnet::{RequesterClass, Verdict};
use std::net::Ipv4Addr;

// ---------------------------------------------------------------------------
// Ablation 1: consolidation off — one VM per tenant.
// ---------------------------------------------------------------------------

/// Consolidation ablation result.
#[derive(Debug, Clone, Copy)]
pub struct ConsolidationAblation {
    /// Tenants in the comparison.
    pub tenants: usize,
    /// Throughput with all tenants consolidated in one VM (pps).
    pub consolidated_pps: f64,
    /// Throughput with one VM per tenant, round-robined on the core (pps).
    pub per_vm_pps: f64,
    /// Packets the consolidated VM transmitted per round.
    pub consolidated_tx_per_round: u64,
    /// Packets the per-tenant VMs transmitted per round, all together.
    pub per_vm_tx_per_round: u64,
    /// Memory for the consolidated deployment (MB).
    pub consolidated_mem_mb: u64,
    /// Memory for the per-tenant deployment (MB).
    pub per_vm_mem_mb: u64,
}

fn tenant_addr(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 70, (i / 250) as u8, (1 + i % 250) as u8)
}

fn tenant_traffic(tenants: usize, frame: usize) -> Vec<Packet> {
    (0..256)
        .map(|i| {
            PacketBuilder::udp()
                .src(Ipv4Addr::new(8, 8, 8, 8), 1000 + (i % 512) as u16)
                .dst(tenant_addr(i % tenants), 80)
                .pad_to(frame)
                .build()
        })
        .collect()
}

/// Measures consolidation on vs off for `tenants` stateless tenants.
pub fn consolidation_ablation(tenants: usize, rounds: usize) -> ConsolidationAblation {
    let addrs: Vec<Ipv4Addr> = (0..tenants).map(tenant_addr).collect();
    let pkts = tenant_traffic(tenants, 512);

    // Consolidated: one VM, demux + per-tenant firewalls.
    let mut consolidated = RunnerConfig::new()
        .parallel(&consolidated_config(&addrs))
        .expect("valid");
    consolidated.run(&pkts, 1);
    let c_stats = consolidated.run(&pkts, rounds);

    // Per-tenant: one tiny VM each; the vswitch steers by address, so each
    // VM only sees (and pays for) its own packets.
    let mut per_vm: Vec<ParallelRunner> = addrs
        .iter()
        .map(|a| {
            let cfg = ClickConfig::parse(&format!(
                "FromNetfront() -> IPFilter(allow udp dst host {a}, allow tcp dst host {a}) \
                 -> ToNetfront();"
            ))
            .expect("valid");
            RunnerConfig::new().parallel(&cfg).expect("instantiates")
        })
        .collect();
    // Pre-split traffic per tenant (the vswitch demux, charged to the host).
    let mut per_tenant_pkts: Vec<Vec<Packet>> = vec![Vec::new(); tenants];
    for p in &pkts {
        let dst = p.ipv4().expect("built packets are IPv4").dst();
        let idx = addrs
            .iter()
            .position(|&a| a == dst)
            .expect("tenant traffic");
        per_tenant_pkts[idx].push(p.clone());
    }
    let start = std::time::Instant::now();
    let (mut packets, mut transmitted) = (0u64, 0u64);
    for _ in 0..rounds {
        for (r, pp) in per_vm.iter_mut().zip(per_tenant_pkts.iter()) {
            if pp.is_empty() {
                continue;
            }
            let s = r.run(pp, 1);
            packets += s.packets;
            transmitted += s.transmitted;
        }
    }
    let elapsed = start.elapsed().as_nanos().max(1) as f64;

    ConsolidationAblation {
        tenants,
        consolidated_pps: c_stats.offered_pps(),
        per_vm_pps: packets as f64 / (elapsed / 1e9),
        consolidated_tx_per_round: c_stats.transmitted / rounds as u64,
        per_vm_tx_per_round: transmitted / rounds as u64,
        consolidated_mem_mb: vm_mem_mb(VmTimingKind::ClickOs),
        per_vm_mem_mb: tenants as u64 * vm_mem_mb(VmTimingKind::ClickOs),
    }
}

// ---------------------------------------------------------------------------
// Ablation 2: on-the-fly off — pre-boot everything.
// ---------------------------------------------------------------------------

/// On-the-fly ablation result.
#[derive(Debug, Clone, Copy)]
pub struct OnTheFlyAblation {
    /// Registered tenants.
    pub registered: usize,
    /// Concurrently active tenants.
    pub active: usize,
    /// Memory if every registered tenant has a VM booted in advance (MB).
    pub preboot_mem_mb: u64,
    /// Memory with on-the-fly boot (VMs only for active tenants) (MB).
    pub onthefly_mem_mb: u64,
    /// First-packet latency penalty paid by on-the-fly boot (ms, at the
    /// current active count).
    pub first_packet_penalty_ms: f64,
}

/// Computes the memory/latency trade of on-the-fly instantiation (the
/// paper: "we only have to ensure that the platform copes with the
/// maximum number of concurrent clients at any given instant").
pub fn onthefly_ablation(registered: usize, active: usize) -> OnTheFlyAblation {
    OnTheFlyAblation {
        registered,
        active,
        preboot_mem_mb: registered as u64 * vm_mem_mb(VmTimingKind::ClickOs),
        onthefly_mem_mb: active as u64 * vm_mem_mb(VmTimingKind::ClickOs),
        first_packet_penalty_ms: boot_latency_ns(VmTimingKind::ClickOs, active) as f64 / 1e6,
    }
}

// ---------------------------------------------------------------------------
// Ablation 3: static checking off — sandbox everything.
// ---------------------------------------------------------------------------

/// Sandbox-gating ablation result.
#[derive(Debug, Clone, Copy)]
pub struct SandboxAblation {
    /// Catalog size (the Table 1 middleboxes).
    pub catalog: usize,
    /// Catalog entries a third party may deploy at all.
    pub deployable: usize,
    /// Modules that actually need a sandbox under static gating.
    pub need_sandbox: usize,
    /// Measured throughput ratio sandboxed/plain for a representative
    /// module at 64 B frames (the worst case of Figure 11).
    pub sandbox_throughput_ratio: f64,
}

/// Quantifies what static checking buys over the status quo of
/// sandboxing everything (paper §7.2: "sandboxing is not needed in the
/// first place since we can statically check whether the processing is
/// safe for most client configurations").
pub fn sandbox_ablation(rounds: usize) -> SandboxAblation {
    // How many Table-1 middleboxes a third party could deploy need a
    // sandbox when statically gated (rejected ones excluded — they run
    // nowhere under either regime).
    let assigned = Ipv4Addr::new(203, 0, 113, 10);
    let owner = Ipv4Addr::new(172, 16, 15, 133);
    let owner2 = Ipv4Addr::new(172, 16, 15, 134);
    let peer = Ipv4Addr::new(198, 51, 100, 1);
    let registry = innet_click::Registry::standard();
    let mut deployable = 0usize;
    let mut need_sandbox = 0usize;
    for (_name, cfg) in table1_catalog(assigned, owner, owner2, peer) {
        let verdict = innet_symnet::check_module(
            &cfg,
            &innet_symnet::SecurityContext {
                assigned_addr: assigned,
                registered: vec![owner, owner2, peer],
                class: RequesterClass::ThirdParty,
            },
            &registry,
        )
        .expect("catalog is modellable")
        .verdict;
        match verdict {
            Verdict::Safe => deployable += 1,
            Verdict::SafeWithSandbox => {
                deployable += 1;
                need_sandbox += 1;
            }
            Verdict::Reject => {}
        }
    }

    // The runtime cost a statically-proven module avoids (64 B frames).
    let module = Ipv4Addr::new(203, 0, 113, 10);
    let white = Ipv4Addr::new(198, 51, 100, 1);
    let pkts: Vec<Packet> = (0..256)
        .map(|i| {
            PacketBuilder::udp()
                .src(
                    Ipv4Addr::new(8, 8, (i / 250) as u8, (1 + i % 250) as u8),
                    40_000 + i as u16,
                )
                .dst(module, 1500)
                .pad_to(64)
                .build()
        })
        .collect();
    let runner = |cfg: &_| RunnerConfig::new().parallel(cfg).expect("valid");
    let mut plain = runner(&plain_firewall());
    let mut boxed = runner(&sandboxed_firewall(module, white));
    plain.run(&pkts, 2);
    boxed.run(&pkts, 2);
    let p = plain.run(&pkts, rounds);
    let b = boxed.run(&pkts, rounds);

    SandboxAblation {
        catalog: 12,
        deployable,
        need_sandbox,
        sandbox_throughput_ratio: b.offered_pps() / p.offered_pps(),
    }
}

/// End-to-end check that static gating really skips the sandbox for a
/// provably safe third-party module while applying it to an opaque one.
pub fn sandbox_gating_demo() -> (bool, bool) {
    let mut ctl = Controller::new(innet_topology::Topology::figure3());
    ctl.register_client(
        "t",
        RequesterClass::ThirdParty,
        vec![Ipv4Addr::new(198, 51, 100, 1)],
    );
    let safe = ctl
        .deploy(
            "t",
            ClientRequest::parse("stock a: reverse-proxy").expect("parses"),
        )
        .expect("deployable");
    let opaque = ctl
        .deploy(
            "t",
            ClientRequest::parse("stock b: x86-vm").expect("parses"),
        )
        .expect("deployable");
    (safe.sandboxed, opaque.sandboxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consolidation_saves_two_orders_of_memory() {
        let a = consolidation_ablation(64, 3);
        assert_eq!(a.per_vm_mem_mb, 64 * a.consolidated_mem_mb);
        // Both arms forward every packet of a round: consolidation changes
        // what the traffic costs, not what gets through. (The throughput
        // ratio is wall clock: `benches/ablations.rs` prints it.)
        assert_eq!(a.consolidated_tx_per_round, 256, "{a:?}");
        assert_eq!(a.per_vm_tx_per_round, a.consolidated_tx_per_round, "{a:?}");
    }

    #[test]
    fn onthefly_memory_scales_with_active_not_registered() {
        let a = onthefly_ablation(1000, 50);
        assert_eq!(a.preboot_mem_mb / a.onthefly_mem_mb, 20);
        // The penalty is a one-time ~tens-of-ms boot.
        assert!(a.first_packet_penalty_ms < 150.0, "{a:?}");
    }

    #[test]
    fn static_gating_avoids_most_sandboxes() {
        let a = sandbox_ablation(10);
        // Of the deployable third-party catalog, only the tunnel and the
        // x86 VM need runtime enforcement.
        assert_eq!(a.need_sandbox, 2, "{a:?}");
        assert_eq!(a.deployable, 8, "12 minus the 4 rejected transit boxes");
        // The throughput ratio is wall clock: `benches/ablations.rs`
        // measures it and checks its band.
    }

    #[test]
    fn gating_end_to_end() {
        let (safe_sandboxed, opaque_sandboxed) = sandbox_gating_demo();
        assert!(!safe_sandboxed);
        assert!(opaque_sandboxed);
    }
}
