//! `ICMPPingResponder` — answers echo requests; the workhorse of the
//! paper's Figure 5 reaction-time experiment.

use innet_packet::{IcmpKind, Packet};

use crate::element::{Context, Element, PortCount, Sink};

/// `ICMPPingResponder()` — turns each ICMP echo request around: swaps
/// Ethernet and IP addresses, flips the ICMP type to echo-reply, and fixes
/// the checksum. Non-echo-request traffic is dropped.
#[derive(Debug, Default)]
pub struct IcmpPingResponder {
    answered: u64,
    ignored: u64,
}

impl IcmpPingResponder {
    /// Creates a responder.
    pub fn new() -> IcmpPingResponder {
        IcmpPingResponder::default()
    }

    /// Counters: (answered, ignored).
    pub fn counters(&self) -> (u64, u64) {
        (self.answered, self.ignored)
    }
}

impl Element for IcmpPingResponder {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, mut pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        let is_request = pkt
            .icmp()
            .map(|i| i.kind() == IcmpKind::EchoRequest)
            .unwrap_or(false);
        if !is_request {
            self.ignored += 1;
            return;
        }
        if let Ok(mut e) = pkt.ether_mut() {
            e.swap_addrs();
        }
        {
            let mut ip = pkt.ipv4_mut().expect("checked above");
            let (s, d) = (ip.src(), ip.dst());
            ip.set_src(d);
            ip.set_dst(s);
            ip.update_checksum();
        }
        pkt.icmp_mut()
            .expect("checked above")
            .set_kind(IcmpKind::EchoReply);
        self.answered += 1;
        out.push(0, pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::VecSink;
    use innet_packet::PacketBuilder;
    use std::net::Ipv4Addr;

    #[test]
    fn answers_echo_requests() {
        let mut r = IcmpPingResponder::new();
        let mut s = VecSink::new();
        let req = PacketBuilder::icmp_echo_request(42, 3)
            .src_addr(Ipv4Addr::new(1, 1, 1, 1))
            .dst_addr(Ipv4Addr::new(2, 2, 2, 2))
            .build();
        r.push(0, req, &Context::default(), &mut s);
        let reply = s.only(0).unwrap();
        let ip = reply.ipv4().unwrap();
        assert_eq!(ip.src(), Ipv4Addr::new(2, 2, 2, 2));
        assert_eq!(ip.dst(), Ipv4Addr::new(1, 1, 1, 1));
        assert!(ip.verify_checksum());
        let icmp = reply.icmp().unwrap();
        assert_eq!(icmp.kind(), IcmpKind::EchoReply);
        assert_eq!(icmp.ident(), 42);
        assert_eq!(icmp.seq(), 3);
    }

    #[test]
    fn ignores_other_traffic() {
        let mut r = IcmpPingResponder::new();
        let mut s = VecSink::new();
        r.push(0, PacketBuilder::udp().build(), &Context::default(), &mut s);
        r.push(
            0,
            PacketBuilder::icmp_echo_reply(1, 1).build(),
            &Context::default(),
            &mut s,
        );
        assert!(s.pushed.is_empty());
        assert_eq!(r.counters(), (0, 2));
    }
}
