//! Per-link fabric accounting and its report, for bandwidth audits.

use innet_sim::des::SimTime;
use innet_topology::NodeId;

use super::Fleet;

/// Per-link fabric accounting: what crossed, what was refused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkUsage {
    /// Packets accepted onto the link.
    pub packets: u64,
    /// Bytes accepted onto the link.
    pub bytes: u64,
    /// Packets tail-dropped because the queue exceeded the cap.
    pub drops: u64,
    /// Bytes of those dropped packets.
    pub dropped_bytes: u64,
}

/// One fabric link's capacity and accounting, for bandwidth audits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkReport {
    /// Sending platform.
    pub from: NodeId,
    /// Receiving platform.
    pub to: NodeId,
    /// The path's bottleneck capacity the link serializes at.
    pub bandwidth_bps: u64,
    /// When the link's FIFO queue drains (last accepted bit leaves).
    pub busy_until_ns: SimTime,
    /// Accepted/dropped packet and byte counts.
    pub usage: LinkUsage,
}

impl Fleet {
    /// Per-link capacity and usage, ascending by `(from, to)`. Only links
    /// that have carried (or refused) at least one packet appear.
    pub fn link_report(&self) -> Vec<LinkReport> {
        let mut out: Vec<LinkReport> = self
            .fabric
            .iter()
            .map(|(&(from, to), l)| LinkReport {
                from,
                to,
                bandwidth_bps: l.bandwidth_bps,
                busy_until_ns: l.link.busy_until(),
                usage: l.usage,
            })
            .collect();
        out.sort_unstable_by_key(|r| (r.from, r.to));
        out
    }
}
