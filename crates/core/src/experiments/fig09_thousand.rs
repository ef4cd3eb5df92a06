//! Figure 9: cumulative throughput as the platform scales to 1,000
//! clients at 8 Mb/s each, with 50/100/200 client configurations packed
//! per VM.
//!
//! Demand grows linearly (n × 8 Mb/s); the platform sustains it as long
//! as (a) memory admits the required VM count and (b) the measured
//! per-core packet rate of a consolidated VM covers the aggregate packet
//! load. Both constraints are evaluated: memory from the paper-calibrated
//! model, packet rate measured natively on this machine.

use innet_packet::PacketBuilder;
use innet_platform::{
    calib::{vm_mem_mb, VmTimingKind},
    consolidated_config, RunnerConfig,
};
use std::net::Ipv4Addr;

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    /// Active clients.
    pub clients: usize,
    /// VMs instantiated (⌈clients / per_vm⌉).
    pub vms: usize,
    /// Offered load in Gbit/s (clients × 8 Mb/s).
    pub offered_gbps: f64,
    /// Sustained throughput in Gbit/s.
    pub achieved_gbps: f64,
}

/// Parameters.
#[derive(Debug, Clone, Copy)]
pub struct ScaleParams {
    /// Clients per VM (the paper plots 50, 100, 200).
    pub per_vm: usize,
    /// Per-client rate (8 Mb/s).
    pub per_client_bps: f64,
    /// Host memory in MB (16 GB, the paper's cheap Xeon E3).
    pub host_mem_mb: u64,
    /// Frame size used for the packet-rate measurement.
    pub frame: usize,
}

impl Default for ScaleParams {
    fn default() -> Self {
        ScaleParams {
            per_vm: 100,
            per_client_bps: 8e6,
            host_mem_mb: 16 * 1024,
            frame: 1472,
        }
    }
}

/// Measures the single-core packet rate of one consolidated VM with
/// `per_vm` tenant configurations.
pub fn measure_core_pps(per_vm: usize, frame: usize) -> f64 {
    let clients: Vec<Ipv4Addr> = (0..per_vm)
        .map(|i| Ipv4Addr::new(10, 60, (i / 250) as u8, (1 + i % 250) as u8))
        .collect();
    let cfg = consolidated_config(&clients);
    let mut runner = RunnerConfig::new().parallel(&cfg).expect("valid config");
    let pkts: Vec<_> = clients
        .iter()
        .take(64)
        .map(|&c| PacketBuilder::tcp().dst(c, 80).pad_to(frame).build())
        .collect();
    runner.run(&pkts, 2);
    runner.run(&pkts, 20).offered_pps()
}

/// Sweeps client counts up to 1,000.
pub fn thousand_clients(params: &ScaleParams, steps: &[usize]) -> Vec<ScalePoint> {
    let core_pps = measure_core_pps(params.per_vm, params.frame);
    let per_client_pps = params.per_client_bps / (params.frame as f64 * 8.0);
    steps
        .iter()
        .map(|&clients| {
            let vms = clients.div_ceil(params.per_vm);
            let mem_ok = (vms as u64 * vm_mem_mb(VmTimingKind::ClickOs)) <= params.host_mem_mb;
            let offered_gbps = clients as f64 * params.per_client_bps / 1e9;
            // All VMs are pinned to a single core in the paper's run: the
            // measured core rate caps the aggregate.
            let capacity_gbps = core_pps * params.frame as f64 * 8.0 / 1e9;
            let achieved = if mem_ok {
                offered_gbps.min(capacity_gbps)
            } else {
                0.0
            };
            let _ = per_client_pps;
            ScalePoint {
                clients,
                vms,
                offered_gbps,
                achieved_gbps: achieved,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_linearly_to_eight_gbps() {
        let params = ScaleParams::default();
        let pts = thousand_clients(&params, &[100, 200, 400, 600, 800, 1000]);
        // Offered load is linear; with 1,000 clients it is 8 Gb/s.
        assert!((pts.last().expect("nonempty").offered_gbps - 8.0).abs() < 1e-9);
        for w in pts.windows(2) {
            assert!(w[1].offered_gbps > w[0].offered_gbps);
            assert!(w[1].achieved_gbps >= w[0].achieved_gbps * 0.99);
        }
    }

    #[test]
    fn memory_admits_all_group_sizes() {
        for per_vm in [50usize, 100, 200] {
            let pts = thousand_clients(
                &ScaleParams {
                    per_vm,
                    ..ScaleParams::default()
                },
                &[1000],
            );
            let p = pts[0];
            assert_eq!(p.vms, 1000usize.div_ceil(per_vm));
            assert!(
                p.achieved_gbps > 0.0,
                "16 GB hosts all configurations: {p:?}"
            );
        }
    }
}
