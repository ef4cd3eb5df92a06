//! Measurement elements: `Counter` and the per-flow `FlowMeter`.

use std::collections::HashMap;

use innet_packet::{FlowTuple, Packet};

use crate::element::{Context, Element, PortCount, Sink};

/// `Counter()` — counts packets and bytes, passing everything through.
#[derive(Debug, Default)]
pub struct Counter {
    packets: u64,
    bytes: u64,
    first_ns: Option<u64>,
    last_ns: u64,
}

impl Counter {
    /// Creates a counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Packets seen.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Bytes seen.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Observed average rate in bits/second over the measurement window,
    /// or `None` before two packets have been seen.
    pub fn bit_rate(&self) -> Option<f64> {
        let first = self.first_ns?;
        let span = self.last_ns.checked_sub(first)?;
        if span == 0 {
            return None;
        }
        Some(self.bytes as f64 * 8.0 / (span as f64 / 1e9))
    }
}

impl Element for Counter {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, pkt: Packet, ctx: &Context, out: &mut dyn Sink) {
        self.packets += 1;
        self.bytes += pkt.len() as u64;
        self.first_ns.get_or_insert(ctx.now_ns);
        self.last_ns = ctx.now_ns;
        out.push(0, pkt);
    }
}

/// Per-flow statistics kept by [`FlowMeter`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Packets in this flow (both directions).
    pub packets: u64,
    /// Bytes in this flow (both directions).
    pub bytes: u64,
    /// Virtual time of the first packet.
    pub first_ns: u64,
    /// Virtual time of the most recent packet.
    pub last_ns: u64,
}

/// `FlowMeter()` — accounts packets and bytes per connection
/// (direction-insensitive 5-tuple), passing traffic through unchanged.
///
/// One of the middleboxes in the paper's Table 1 and Figure 12 throughput
/// sweep.
#[derive(Debug, Default)]
pub struct FlowMeter {
    flows: HashMap<FlowTuple, FlowStats>,
    non_ip: u64,
}

impl FlowMeter {
    /// Creates a flow meter.
    pub fn new() -> FlowMeter {
        FlowMeter::default()
    }

    /// Number of distinct connections observed.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Statistics for one connection, if observed.
    pub fn stats(&self, key: &FlowTuple) -> Option<&FlowStats> {
        self.flows.get(key)
    }

    /// Iterates over all (connection, statistics) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&FlowTuple, &FlowStats)> {
        self.flows.iter()
    }
}

impl Element for FlowMeter {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, pkt: Packet, ctx: &Context, out: &mut dyn Sink) {
        match innet_packet::FlowKey::of(&pkt) {
            Ok(key) => {
                let e = self.flows.entry(key.canonical()).or_insert(FlowStats {
                    first_ns: ctx.now_ns,
                    ..FlowStats::default()
                });
                e.packets += 1;
                e.bytes += pkt.len() as u64;
                e.last_ns = ctx.now_ns;
            }
            Err(_) => self.non_ip += 1,
        }
        out.push(0, pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::VecSink;
    use innet_packet::{FlowKey, PacketBuilder};
    use std::net::Ipv4Addr;

    #[test]
    fn counter_accumulates_and_rates() {
        let mut c = Counter::new();
        let mut s = VecSink::new();
        let pkt = PacketBuilder::udp().pad_to(100).build();
        c.push(0, pkt.clone(), &Context::at(0), &mut s);
        assert!(c.bit_rate().is_none(), "one packet has no rate yet");
        c.push(0, pkt, &Context::at(1_000_000_000), &mut s);
        assert_eq!(c.packets(), 2);
        assert_eq!(c.bytes(), 200);
        // 200 bytes over 1 s = 1600 bit/s.
        assert!((c.bit_rate().unwrap() - 1600.0).abs() < 1e-6);
    }

    #[test]
    fn flow_meter_merges_directions() {
        let mut m = FlowMeter::new();
        let mut s = VecSink::new();
        let fwd = PacketBuilder::tcp()
            .src(Ipv4Addr::new(1, 1, 1, 1), 100)
            .dst(Ipv4Addr::new(2, 2, 2, 2), 200)
            .build();
        let rev = PacketBuilder::tcp()
            .src(Ipv4Addr::new(2, 2, 2, 2), 200)
            .dst(Ipv4Addr::new(1, 1, 1, 1), 100)
            .build();
        let key = FlowKey::of(&fwd).unwrap().canonical();
        m.push(0, fwd, &Context::at(0), &mut s);
        m.push(0, rev, &Context::at(5), &mut s);
        assert_eq!(m.flow_count(), 1);
        let st = m.stats(&key).unwrap();
        assert_eq!(st.packets, 2);
        assert_eq!(st.last_ns, 5);
    }

    #[test]
    fn flow_meter_separates_flows() {
        let mut m = FlowMeter::new();
        let mut s = VecSink::new();
        for port in 0..10u16 {
            let p = PacketBuilder::udp()
                .src(Ipv4Addr::new(1, 1, 1, 1), 1000 + port)
                .dst(Ipv4Addr::new(2, 2, 2, 2), 53)
                .build();
            m.push(0, p, &Context::at(0), &mut s);
        }
        assert_eq!(m.flow_count(), 10);
        assert_eq!(s.pushed.len(), 10, "passthrough preserved");
    }
}
