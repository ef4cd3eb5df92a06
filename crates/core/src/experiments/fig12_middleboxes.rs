//! Figure 12: aggregate throughput of 1–100 middlebox VMs of four kinds
//! (NAT, IP router, firewall, flow meter) sharing one core.
//!
//! Measured natively: `n` router instances round-robined on one thread
//! (time-sliced exactly like n ClickOS VMs pinned to one vCPU). The
//! paper's point is that aggregate throughput stays high and flat
//! regardless of middlebox count and type.

use innet_packet::{Packet, PacketBuilder};
use innet_platform::{middlebox_config, ParallelRunner, RunnerConfig};
use std::net::Ipv4Addr;
use std::time::Instant;

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct MiddleboxPoint {
    /// Number of VMs sharing the core.
    pub vms: usize,
    /// Aggregate input rate, Mpps.
    pub mpps: f64,
    /// Aggregate throughput in Gbit/s at the test frame size.
    pub gbps: f64,
}

fn traffic(kind: &str, frame: usize) -> Vec<Packet> {
    (0..256)
        .map(|i| {
            let b = PacketBuilder::udp()
                .src(Ipv4Addr::new(10, 0, 0, 2), 5000 + i as u16)
                .dst(Ipv4Addr::new(93, 184, 216, 34), 80)
                .ttl(64)
                .pad_to(frame);
            let _ = kind;
            b.build()
        })
        .collect()
}

/// Measures aggregate throughput for `kind` at each VM count on the
/// interpreted engine.
pub fn middlebox_sweep(kind: &str, vm_counts: &[usize], frame: usize) -> Vec<MiddleboxPoint> {
    middlebox_sweep_with(kind, vm_counts, frame, false)
}

/// Like [`middlebox_sweep`], with an explicit engine choice: `compiled`
/// runs each VM's configuration as a lowered flat plan
/// ([`RunnerConfig::compiled`]). The bench records both series so the
/// interpreted-vs-compiled trajectory is part of the committed snapshot.
pub fn middlebox_sweep_with(
    kind: &str,
    vm_counts: &[usize],
    frame: usize,
    compiled: bool,
) -> Vec<MiddleboxPoint> {
    vm_counts
        .iter()
        .map(|&n| {
            let mut runners: Vec<ParallelRunner> = (0..n)
                .map(|_| {
                    let cfg = middlebox_config(kind).expect("known middlebox kind");
                    RunnerConfig::new()
                        .compiled(compiled)
                        .parallel(&cfg)
                        .expect("valid config")
                })
                .collect();
            let pkts = traffic(kind, frame);
            // Warm-up.
            for r in &mut runners {
                r.run(&pkts, 1);
            }
            // Round-robin the VMs on this one thread, like a vCPU
            // scheduler would, and time the aggregate.
            let rounds = (256 / n).max(4);
            let start = Instant::now();
            let mut packets = 0u64;
            for _ in 0..rounds {
                for r in &mut runners {
                    let s = r.run(&pkts, 1);
                    packets += s.packets;
                }
            }
            let elapsed = start.elapsed().as_nanos().max(1) as f64;
            let pps = packets as f64 / (elapsed / 1e9);
            MiddleboxPoint {
                vms: n,
                mpps: pps / 1e6,
                gbps: pps * frame as f64 * 8.0 / 1e9,
            }
        })
        .collect()
}

/// The four middlebox kinds of the figure.
pub const KINDS: [&str; 4] = ["nat", "iprouter", "firewall", "flowmeter"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_stays_flat_with_vm_count() {
        // The defining shape: total throughput does not collapse as VM
        // count grows (each VM does less, the sum stays put).
        let pts = middlebox_sweep("firewall", &[1, 16], 1472);
        let ratio = pts[1].mpps / pts[0].mpps;
        assert!(
            ratio > 0.5,
            "16 VMs retain most aggregate throughput: {ratio}"
        );
    }

    #[test]
    fn all_kinds_run() {
        for kind in KINDS {
            let pts = middlebox_sweep(kind, &[2], 512);
            assert!(pts[0].mpps > 0.0, "{kind}");
        }
    }

    #[test]
    fn all_kinds_run_compiled() {
        for kind in KINDS {
            let pts = middlebox_sweep_with(kind, &[2], 512, true);
            assert!(pts[0].mpps > 0.0, "{kind} (compiled)");
        }
    }
}
