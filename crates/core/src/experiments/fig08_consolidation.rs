//! Figure 8: cumulative throughput when a single ClickOS VM handles the
//! consolidated configurations of many clients.
//!
//! Measured natively: one `IPClassifier` demultiplexer with a `dst host`
//! rule per client, per-client firewalls behind it, one thread (one
//! vCPU). The linear demux scan is why the curve eventually bends; the
//! netfront ring's fixed per-packet cost is why it stays flat at first.

use innet_packet::{Packet, PacketBuilder};
use innet_platform::{consolidated_config, RunnerConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::net::Ipv4Addr;

/// One sweep point: measured throughput at a tenant count.
#[derive(Debug, Clone, Copy)]
pub struct ConsolidationPoint {
    /// Number of client configurations sharing the VM.
    pub configs: usize,
    /// Measured input rate in packets/second.
    pub pps: f64,
    /// Measured throughput in Gbit/s at the test frame size.
    pub gbps: f64,
    /// Fraction of packets that matched a client and were forwarded.
    pub delivery: f64,
}

fn client_addrs(n: usize) -> Vec<Ipv4Addr> {
    (0..n)
        .map(|i| Ipv4Addr::new(10, 50, (i / 250) as u8, (1 + i % 250) as u8))
        .collect()
}

/// Builds a uniform traffic mix across the clients (HTTP-like frames).
fn traffic(clients: &[Ipv4Addr], frame: usize, seed: u64) -> Vec<Packet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..1024)
        .map(|_| {
            let dst = clients[rng.gen_range(0..clients.len())];
            PacketBuilder::tcp()
                .src(Ipv4Addr::new(198, 51, 100, 9), rng.gen())
                .dst(dst, 80)
                .pad_to(frame)
                .build()
        })
        .collect()
}

/// Measures throughput at each tenant count (the paper sweeps 24–252).
pub fn consolidation_sweep(
    counts: &[usize],
    frame: usize,
    rounds: usize,
) -> Vec<ConsolidationPoint> {
    counts
        .iter()
        .map(|&n| {
            let clients = client_addrs(n);
            let cfg = consolidated_config(&clients);
            let mut runner = RunnerConfig::new().parallel(&cfg).expect("valid config");
            let pkts = traffic(&clients, frame, n as u64);
            // Warm-up round.
            runner.run(&pkts, 1);
            let stats = runner.run(&pkts, rounds);
            ConsolidationPoint {
                configs: n,
                pps: stats.offered_pps(),
                gbps: stats.offered_gbps(frame),
                delivery: stats.transmitted as f64 / stats.packets as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_traffic_delivered() {
        // From a handful of tenants to the paper's 252 per VM. How the
        // *rate* droops across that range is wall-clock, so the fig08
        // bench reports it instead of this test asserting it.
        let pts = consolidation_sweep(&[4, 8, 32, 252], 512, 3);
        for p in &pts {
            assert!(
                (p.delivery - 1.0).abs() < 1e-9,
                "every packet targets a tenant: {p:?}"
            );
        }
    }
}
