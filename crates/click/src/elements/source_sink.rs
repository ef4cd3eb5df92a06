//! Packet entry and exit points: the netfront boundary, plus `Discard` and
//! `Idle`.

use std::any::Any;

use innet_packet::Packet;

use crate::{
    args::ConfigArgs,
    element::{Context, Element, ElementError, PortCount, Sink},
    netfront::NetfrontRing,
};

/// Parses the arguments of `FromNetfront([IFACE])` and `ToNetfront([IFACE])`:
/// one optional interface number, 0 when absent.
///
/// The constructors, the field-effect summaries and the symbolic models all
/// validate through this one parser. Validation therefore never builds the
/// element, whose constructor zero-fills a 128 KB [`NetfrontRing`].
pub fn netfront_iface(args: &ConfigArgs) -> Result<u16, ElementError> {
    args.expect_len_range(0, 1)?;
    args.parse_or(0, 0u16)
}

/// `FromNetfront([IFACE])` — receives packets from a numbered interface.
///
/// The router delivers external packets to input port 0; the element moves
/// each packet through a [`NetfrontRing`] (reproducing the per-packet copy +
/// checksum cost of the Xen netfront data path) and emits it on output 0
/// with the ingress annotation set.
#[derive(Debug)]
pub struct FromNetfront {
    iface: u16,
    ring: NetfrontRing,
}

impl FromNetfront {
    /// Creates a receiver for `iface`.
    pub fn new(iface: u16) -> FromNetfront {
        FromNetfront {
            iface,
            ring: NetfrontRing::default(),
        }
    }

    /// Parses `FromNetfront([IFACE])`.
    pub fn from_args(args: &ConfigArgs) -> Result<FromNetfront, ElementError> {
        Ok(FromNetfront::new(netfront_iface(args)?))
    }

    /// The interface this element receives from.
    pub fn iface(&self) -> u16 {
        self.iface
    }

    /// Packets received so far.
    pub fn rx_packets(&self) -> u64 {
        self.ring.packets
    }

    /// Mutable access to the underlying ring, for batched drains
    /// (`Router::push_batch` moves a whole same-ingress batch through
    /// the ring in one transfer).
    pub fn ring_mut(&mut self) -> &mut NetfrontRing {
        &mut self.ring
    }
}

impl Element for FromNetfront {
    fn class_name(&self) -> &'static str {
        "FromNetfront"
    }

    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, mut pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        self.ring.transfer(&pkt);
        pkt.meta.ingress = self.iface;
        out.push(0, pkt);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// `ToNetfront([IFACE])` — transmits packets out of the router on a
/// numbered interface, paying the netfront ring cost on the way out.
#[derive(Debug)]
pub struct ToNetfront {
    iface: u16,
    ring: NetfrontRing,
}

impl ToNetfront {
    /// Creates a transmitter for `iface`.
    pub fn new(iface: u16) -> ToNetfront {
        ToNetfront {
            iface,
            ring: NetfrontRing::default(),
        }
    }

    /// Parses `ToNetfront([IFACE])`.
    pub fn from_args(args: &ConfigArgs) -> Result<ToNetfront, ElementError> {
        Ok(ToNetfront::new(netfront_iface(args)?))
    }

    /// Packets transmitted so far.
    pub fn tx_packets(&self) -> u64 {
        self.ring.packets
    }

    /// The interface this element transmits on.
    pub fn iface(&self) -> u16 {
        self.iface
    }
}

impl Element for ToNetfront {
    fn class_name(&self) -> &'static str {
        "ToNetfront"
    }

    fn ports(&self) -> PortCount {
        PortCount::new(1, 0)
    }

    fn push(&mut self, _port: usize, pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        self.ring.transfer(&pkt);
        out.transmit(self.iface, pkt);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// `Discard()` — absorbs and counts every packet.
#[derive(Debug, Default)]
pub struct Discard {
    dropped: u64,
}

impl Discard {
    /// Creates a discard sink.
    pub fn new() -> Discard {
        Discard::default()
    }

    /// Packets absorbed so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Element for Discard {
    fn class_name(&self) -> &'static str {
        "Discard"
    }

    fn ports(&self) -> PortCount {
        PortCount::new(1, 0)
    }

    fn push(&mut self, _port: usize, _pkt: Packet, _ctx: &Context, _out: &mut dyn Sink) {
        self.dropped += 1;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// `Idle()` — never emits anything; useful to terminate unused ports.
#[derive(Debug, Default)]
pub struct Idle;

impl Element for Idle {
    fn class_name(&self) -> &'static str {
        "Idle"
    }

    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, _pkt: Packet, _ctx: &Context, _out: &mut dyn Sink) {}

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::VecSink;
    use innet_packet::PacketBuilder;

    #[test]
    fn from_netfront_sets_ingress_and_counts() {
        let mut el = FromNetfront::new(7);
        let mut s = VecSink::new();
        el.push(0, PacketBuilder::udp().build(), &Context::default(), &mut s);
        assert_eq!(el.rx_packets(), 1);
        let out = s.only(0).unwrap();
        assert_eq!(out.meta.ingress, 7);
    }

    #[test]
    fn to_netfront_transmits() {
        let mut el = ToNetfront::new(3);
        let mut s = VecSink::new();
        el.push(0, PacketBuilder::udp().build(), &Context::default(), &mut s);
        assert!(s.pushed.is_empty());
        assert_eq!(s.transmitted.len(), 1);
        assert_eq!(s.transmitted[0].0, 3);
        assert_eq!(el.tx_packets(), 1);
    }

    #[test]
    fn discard_counts() {
        let mut el = Discard::new();
        let mut s = VecSink::new();
        el.push(0, PacketBuilder::udp().build(), &Context::default(), &mut s);
        el.push(0, PacketBuilder::udp().build(), &Context::default(), &mut s);
        assert_eq!(el.dropped(), 2);
        assert!(s.pushed.is_empty());
    }

    #[test]
    fn bad_args_rejected() {
        let args = ConfigArgs::parse("FromNetfront", "1, 2");
        assert!(FromNetfront::from_args(&args).is_err());
        let args = ConfigArgs::parse("FromNetfront", "banana");
        assert!(FromNetfront::from_args(&args).is_err());
    }
}
