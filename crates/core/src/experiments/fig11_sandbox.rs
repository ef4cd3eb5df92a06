//! Figure 11: the data-plane cost of sandboxing, measured natively over a
//! packet-size sweep.
//!
//! A single VM receives traffic through a plain firewall versus the same
//! firewall behind a `ChangeEnforcer`. Small packets suffer most: the
//! enforcer's per-packet bookkeeping is a fixed cost, so it is a third of
//! the budget at 64 B and noise at 1472 B (paper: −1/3 at 64 B, −1/5 at
//! 128 B, unmeasurable above).

use innet_packet::{Packet, PacketBuilder};
use innet_platform::{plain_firewall, sandboxed_firewall, ParallelRunner, RunnerConfig};
use std::net::Ipv4Addr;

/// One packet-size point.
#[derive(Debug, Clone, Copy)]
pub struct SandboxPoint {
    /// Frame size in bytes.
    pub frame: usize,
    /// RX rate without the sandbox, Mpps.
    pub plain_mpps: f64,
    /// RX rate with the sandbox, Mpps.
    pub sandboxed_mpps: f64,
}

impl SandboxPoint {
    /// Relative throughput drop (0..1).
    pub fn drop_fraction(&self) -> f64 {
        1.0 - self.sandboxed_mpps / self.plain_mpps
    }
}

const MODULE: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 10);

fn traffic(frame: usize) -> Vec<Packet> {
    (0..256)
        .map(|i| {
            PacketBuilder::udp()
                .src(
                    Ipv4Addr::new(8, 8, (i / 250) as u8, (1 + i % 250) as u8),
                    40_000 + i as u16,
                )
                .dst(MODULE, 1500)
                .pad_to(frame)
                .build()
        })
        .collect()
}

/// The plain firewall and its sandboxed variant, one runner each.
fn runners() -> (ParallelRunner, ParallelRunner) {
    let boxed = sandboxed_firewall(MODULE, Ipv4Addr::new(198, 51, 100, 1));
    let build = |cfg| RunnerConfig::new().parallel(cfg).expect("valid config");
    (build(&plain_firewall()), build(&boxed))
}

/// Measures both variants across frame sizes (the paper sweeps 64–1472).
pub fn sandbox_cost(frames: &[usize], rounds: usize) -> Vec<SandboxPoint> {
    frames
        .iter()
        .map(|&frame| {
            let pkts = traffic(frame);
            let (mut plain, mut boxed) = runners();
            plain.run(&pkts, 2);
            boxed.run(&pkts, 2);
            // Interleave measurement halves to cancel drift.
            let p1 = plain.run(&pkts, rounds / 2);
            let b1 = boxed.run(&pkts, rounds / 2);
            let b2 = boxed.run(&pkts, rounds / 2);
            let p2 = plain.run(&pkts, rounds / 2);
            let plain_pps = (p1.offered_pps() + p2.offered_pps()) / 2.0;
            let boxed_pps = (b1.offered_pps() + b2.offered_pps()) / 2.0;
            SandboxPoint {
                frame,
                plain_mpps: plain_pps / 1e6,
                sandboxed_mpps: boxed_pps / 1e6,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_variants_forward_everything() {
        let pkts = traffic(64);
        let (mut plain, mut boxed) = runners();
        let p = plain.run(&pkts, 3);
        let b = boxed.run(&pkts, 3);
        assert_eq!(p.transmitted, p.packets);
        assert_eq!(b.transmitted, b.packets);
    }

    #[test]
    fn sweep_produces_points() {
        let pts = sandbox_cost(&[64, 512], 6);
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert!(p.plain_mpps > 0.0 && p.sandboxed_mpps > 0.0);
            // The drop can be noisy in debug builds but must not exceed
            // the whole budget.
            assert!(p.drop_fraction() < 0.9, "{p:?}");
        }
    }
}
