//! Tunneling elements: UDP encapsulation/decapsulation and IP-in-IP.
//!
//! The protocol-tunneling use case (paper §8, Figure 14) runs SCTP over UDP
//! or TCP tunnels; Table 1 shows the tunnel as the interesting static-
//! analysis case — the inner destination is only known at decapsulation
//! time, so a third party's tunnel endpoint needs sandboxing.

use std::net::Ipv4Addr;

use innet_packet::{
    EtherType, IpProto, Ipv4View, MacAddr, Packet, ETHER_HDR_LEN, IPV4_HDR_LEN, UDP_HDR_LEN,
};

use crate::{
    args::ConfigArgs,
    element::{Context, Element, ElementError, PortCount, Sink},
};

fn fresh_ether_header(ethertype: EtherType) -> [u8; ETHER_HDR_LEN] {
    let mut hdr = [0u8; ETHER_HDR_LEN];
    hdr[0..6].copy_from_slice(&MacAddr::from_host_id(2).0);
    hdr[6..12].copy_from_slice(&MacAddr::from_host_id(1).0);
    hdr[12..14].copy_from_slice(&ethertype.0.to_be_bytes());
    hdr
}

fn build_outer(proto: IpProto, src: Ipv4Addr, dst: Ipv4Addr, l4: &[u8], inner: &[u8]) -> Packet {
    let total = ETHER_HDR_LEN + IPV4_HDR_LEN + l4.len() + inner.len();
    let mut buf = vec![0u8; total];
    buf[..ETHER_HDR_LEN].copy_from_slice(&fresh_ether_header(EtherType::IPV4));
    buf[ETHER_HDR_LEN] = 0x45;
    {
        let mut ip = Ipv4View::new_mut(&mut buf[ETHER_HDR_LEN..]).expect("sized buffer");
        ip.set_total_len((IPV4_HDR_LEN + l4.len() + inner.len()) as u16);
        ip.set_ttl(64);
        ip.set_proto(proto);
        ip.set_src(src);
        ip.set_dst(dst);
        ip.update_checksum();
    }
    let l4_off = ETHER_HDR_LEN + IPV4_HDR_LEN;
    buf[l4_off..l4_off + l4.len()].copy_from_slice(l4);
    buf[l4_off + l4.len()..].copy_from_slice(inner);
    Packet::from_bytes(buf)
}

/// `UDPTunnelEncap(SRC, SPORT, DST, DPORT)` — wraps each packet's IP
/// portion as the payload of a new UDP datagram.
#[derive(Debug)]
pub struct UdpTunnelEncap {
    src: Ipv4Addr,
    sport: u16,
    dst: Ipv4Addr,
    dport: u16,
}

impl UdpTunnelEncap {
    /// Parses `UDPTunnelEncap(SRC, SPORT, DST, DPORT)`.
    pub fn from_args(args: &ConfigArgs) -> Result<UdpTunnelEncap, ElementError> {
        args.expect_len(4)?;
        Ok(UdpTunnelEncap {
            src: args.addr_at(0)?,
            sport: args.parse_at(1)?,
            dst: args.addr_at(2)?,
            dport: args.parse_at(3)?,
        })
    }

    /// The configured outer header: (src, sport, dst, dport).
    pub fn params(&self) -> (Ipv4Addr, u16, Ipv4Addr, u16) {
        (self.src, self.sport, self.dst, self.dport)
    }
}

impl Element for UdpTunnelEncap {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        let inner = &pkt.bytes()[pkt.l3_offset()..];
        let mut udp = [0u8; UDP_HDR_LEN];
        udp[0..2].copy_from_slice(&self.sport.to_be_bytes());
        udp[2..4].copy_from_slice(&self.dport.to_be_bytes());
        udp[4..6].copy_from_slice(&((UDP_HDR_LEN + inner.len()) as u16).to_be_bytes());
        let outer = build_outer(IpProto::Udp, self.src, self.dst, &udp, inner);
        out.push(0, outer);
    }
}

/// `UDPTunnelDecap()` — extracts the IP packet carried in a UDP payload and
/// re-frames it with a fresh Ethernet header. Non-UDP or malformed packets
/// are dropped.
#[derive(Debug, Default)]
pub struct UdpTunnelDecap {
    dropped: u64,
}

impl UdpTunnelDecap {
    /// Creates a decapsulator.
    pub fn new() -> UdpTunnelDecap {
        UdpTunnelDecap::default()
    }

    /// Packets dropped as undecapsulatable.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Element for UdpTunnelDecap {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        let Ok(inner) = pkt.payload() else {
            self.dropped += 1;
            return;
        };
        if pkt.ip_proto() != Ok(IpProto::Udp) || Ipv4View::new(inner).is_err() {
            self.dropped += 1;
            return;
        }
        let mut buf = Vec::with_capacity(ETHER_HDR_LEN + inner.len());
        buf.extend_from_slice(&fresh_ether_header(EtherType::IPV4));
        buf.extend_from_slice(inner);
        out.push(0, Packet::from_bytes(buf));
    }
}

/// `IPEncap(SRC, DST)` — IP-in-IP encapsulation (protocol 4).
#[derive(Debug)]
pub struct IpEncap {
    src: Ipv4Addr,
    dst: Ipv4Addr,
}

impl IpEncap {
    /// Parses `IPEncap(SRC, DST)`.
    pub fn from_args(args: &ConfigArgs) -> Result<IpEncap, ElementError> {
        args.expect_len(2)?;
        Ok(IpEncap {
            src: args.addr_at(0)?,
            dst: args.addr_at(1)?,
        })
    }

    /// The configured outer endpoints: (src, dst).
    pub fn params(&self) -> (Ipv4Addr, Ipv4Addr) {
        (self.src, self.dst)
    }
}

impl Element for IpEncap {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        let inner = &pkt.bytes()[pkt.l3_offset()..];
        let outer = build_outer(IpProto::IpIp, self.src, self.dst, &[], inner);
        out.push(0, outer);
    }
}

/// `IPDecap()` — removes an IP-in-IP outer header.
#[derive(Debug, Default)]
pub struct IpDecap {
    dropped: u64,
}

impl IpDecap {
    /// Creates a decapsulator.
    pub fn new() -> IpDecap {
        IpDecap::default()
    }
}

impl Element for IpDecap {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        let ok = pkt.ip_proto() == Ok(IpProto::IpIp);
        let inner_off = pkt.l4_offset().ok().filter(|_| ok);
        match inner_off {
            Some(off) if Ipv4View::new(&pkt.bytes()[off..]).is_ok() => {
                let mut buf = Vec::with_capacity(ETHER_HDR_LEN + pkt.len() - off);
                buf.extend_from_slice(&fresh_ether_header(EtherType::IPV4));
                buf.extend_from_slice(&pkt.bytes()[off..]);
                out.push(0, Packet::from_bytes(buf));
            }
            _ => self.dropped += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::VecSink;
    use innet_packet::PacketBuilder;

    fn inner_pkt() -> Packet {
        PacketBuilder::raw(IpProto::Sctp)
            .src(Ipv4Addr::new(10, 1, 1, 1), 0)
            .dst(Ipv4Addr::new(10, 2, 2, 2), 0)
            .payload(b"sctp-chunk")
            .build()
    }

    fn encap() -> UdpTunnelEncap {
        UdpTunnelEncap::from_args(&ConfigArgs::parse(
            "UDPTunnelEncap",
            "1.1.1.1, 7000, 2.2.2.2, 7001",
        ))
        .unwrap()
    }

    #[test]
    fn udp_encap_wraps() {
        let mut e = encap();
        let mut s = VecSink::new();
        e.push(0, inner_pkt(), &Context::default(), &mut s);
        let outer = s.only(0).unwrap();
        let ip = outer.ipv4().unwrap();
        assert_eq!(ip.proto(), IpProto::Udp);
        assert_eq!(ip.src(), Ipv4Addr::new(1, 1, 1, 1));
        assert_eq!(ip.dst(), Ipv4Addr::new(2, 2, 2, 2));
        assert!(ip.verify_checksum());
        assert_eq!(outer.udp().unwrap().dst_port(), 7001);
    }

    #[test]
    fn encap_decap_roundtrip() {
        let original = inner_pkt();
        let mut e = encap();
        let mut d = UdpTunnelDecap::new();
        let mut s = VecSink::new();
        e.push(0, original.clone(), &Context::default(), &mut s);
        let outer = s.pushed.pop().unwrap().1;
        d.push(0, outer, &Context::default(), &mut s);
        let inner = s.pushed.pop().unwrap().1;
        // The IP-and-beyond bytes are identical to the original — the
        // paper's "payload travels unchanged" invariant.
        assert_eq!(
            &inner.bytes()[ETHER_HDR_LEN..],
            &original.bytes()[ETHER_HDR_LEN..]
        );
    }

    #[test]
    fn decap_rejects_garbage() {
        let mut d = UdpTunnelDecap::new();
        let mut s = VecSink::new();
        d.push(0, PacketBuilder::tcp().build(), &Context::default(), &mut s);
        d.push(
            0,
            PacketBuilder::udp().payload(b"ab").build(),
            &Context::default(),
            &mut s,
        );
        assert!(s.pushed.is_empty());
        assert_eq!(d.dropped(), 2);
    }

    #[test]
    fn ipip_roundtrip() {
        let original = inner_pkt();
        let mut e = IpEncap::from_args(&ConfigArgs::parse("IPEncap", "1.1.1.1, 2.2.2.2")).unwrap();
        let mut d = IpDecap::new();
        let mut s = VecSink::new();
        e.push(0, original.clone(), &Context::default(), &mut s);
        let outer = s.pushed.pop().unwrap().1;
        assert_eq!(outer.ip_proto().unwrap(), IpProto::IpIp);
        d.push(0, outer, &Context::default(), &mut s);
        let inner = s.pushed.pop().unwrap().1;
        assert_eq!(
            &inner.bytes()[ETHER_HDR_LEN..],
            &original.bytes()[ETHER_HDR_LEN..]
        );
    }
}
