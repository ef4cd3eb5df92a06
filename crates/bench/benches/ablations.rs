//! Ablations: what each In-Net mechanism buys (consolidation,
//! on-the-fly instantiation, statically-gated sandboxing).

use innet::experiments::ablations::{consolidation_ablation, onthefly_ablation, sandbox_ablation};
use innet_bench::{quick_mode, Report};

fn main() {
    let rounds = if quick_mode() { 10 } else { 100 };
    let mut r = Report::new("ablations", "Ablations of the In-Net design choices");

    r.line("== consolidation (one VM for all tenants) vs one VM per tenant ==");
    for tenants in [16usize, 64, 128] {
        let a = consolidation_ablation(tenants, rounds);
        r.line(&format!(
            "{:>4} tenants: consolidated {:>8.0} kpps / {:>6} MB, \
             per-VM {:>8.0} kpps / {:>6} MB  ({}x memory saved)",
            a.tenants,
            a.consolidated_pps / 1e3,
            a.consolidated_mem_mb,
            a.per_vm_pps / 1e3,
            a.per_vm_mem_mb,
            a.per_vm_mem_mb / a.consolidated_mem_mb
        ));
    }

    r.blank();
    r.line("== on-the-fly boot vs pre-booting every registered tenant ==");
    for (reg, act) in [(1000usize, 50usize), (1000, 200), (10_000, 500)] {
        let a = onthefly_ablation(reg, act);
        r.line(&format!(
            "{:>6} registered / {:>4} active: pre-boot {:>7} MB, \
             on-the-fly {:>6} MB, first-packet penalty {:>5.0} ms",
            a.registered, a.active, a.preboot_mem_mb, a.onthefly_mem_mb, a.first_packet_penalty_ms
        ));
    }

    r.blank();
    r.line("== sandbox everything (status quo) vs static gating ==");
    let a = sandbox_ablation(rounds);
    r.line(&format!(
        "Table-1 catalog: {} deployable by a third party, only {} need a sandbox",
        a.deployable, a.need_sandbox
    ));
    r.line(&format!(
        "64 B sandbox throughput ratio: {:.2} (cost avoided for the other {})",
        a.sandbox_throughput_ratio,
        a.deployable - a.need_sandbox
    ));
    // A sandbox costs throughput but not an order of magnitude of it;
    // checked here, in an optimised build, not under `cargo test`.
    assert!((0.2..=1.3).contains(&a.sandbox_throughput_ratio), "{a:?}");
    r.finish();
}
