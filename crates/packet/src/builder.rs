//! A builder that constructs well-formed Ethernet/IPv4/L4 packets.

use std::net::Ipv4Addr;

use bytes::BytesMut;

use crate::{
    ether::{EtherType, MacAddr, ETHER_HDR_LEN},
    icmp::{IcmpKind, ICMP_HDR_LEN},
    ip::{IpProto, Ipv4View, IPV4_HDR_LEN},
    tcp::{TcpFlags, TCP_HDR_LEN},
    udp::UDP_HDR_LEN,
    Packet,
};

/// Builds Ethernet/IPv4 packets with a chosen transport header.
///
/// All fields have sensible defaults so tests only set what they assert on.
/// The builder always emits a valid IPv4 header checksum and consistent
/// length fields.
///
/// # Examples
///
/// ```
/// use innet_packet::{PacketBuilder, TcpFlags};
/// use std::net::Ipv4Addr;
///
/// let syn = PacketBuilder::tcp()
///     .src(Ipv4Addr::new(10, 0, 0, 1), 43210)
///     .dst(Ipv4Addr::new(93, 184, 216, 34), 80)
///     .flags(TcpFlags::SYN)
///     .build();
/// assert!(syn.tcp().unwrap().flags().is_initial_syn());
/// ```
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    proto: IpProto,
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_addr: Ipv4Addr,
    dst_addr: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    ttl: u8,
    tos: u8,
    ident: u16,
    tcp_flags: TcpFlags,
    icmp_kind: IcmpKind,
    icmp_ident: u16,
    icmp_seq: u16,
    payload: Vec<u8>,
    pad_to: Option<usize>,
}

impl PacketBuilder {
    fn base(proto: IpProto) -> PacketBuilder {
        PacketBuilder {
            proto,
            src_mac: MacAddr::from_host_id(1),
            dst_mac: MacAddr::from_host_id(2),
            src_addr: Ipv4Addr::new(10, 0, 0, 1),
            dst_addr: Ipv4Addr::new(10, 0, 0, 2),
            src_port: 1024,
            dst_port: 80,
            ttl: 64,
            tos: 0,
            ident: 0,
            tcp_flags: TcpFlags::default(),
            icmp_kind: IcmpKind::EchoRequest,
            icmp_ident: 0,
            icmp_seq: 0,
            payload: Vec::new(),
            pad_to: None,
        }
    }

    /// Starts a UDP packet.
    pub fn udp() -> PacketBuilder {
        PacketBuilder::base(IpProto::Udp)
    }

    /// Starts a TCP packet.
    pub fn tcp() -> PacketBuilder {
        PacketBuilder::base(IpProto::Tcp)
    }

    /// Starts an ICMP echo request with the given identifier and sequence.
    pub fn icmp_echo_request(ident: u16, seq: u16) -> PacketBuilder {
        let mut b = PacketBuilder::base(IpProto::Icmp);
        b.icmp_kind = IcmpKind::EchoRequest;
        b.icmp_ident = ident;
        b.icmp_seq = seq;
        b
    }

    /// Starts an ICMP echo reply with the given identifier and sequence.
    pub fn icmp_echo_reply(ident: u16, seq: u16) -> PacketBuilder {
        let mut b = PacketBuilder::base(IpProto::Icmp);
        b.icmp_kind = IcmpKind::EchoReply;
        b.icmp_ident = ident;
        b.icmp_seq = seq;
        b
    }

    /// Starts a packet with an arbitrary transport protocol number and no
    /// L4 header (the payload directly follows the IP header).
    pub fn raw(proto: IpProto) -> PacketBuilder {
        PacketBuilder::base(proto)
    }

    /// Sets the source address and port.
    pub fn src(mut self, addr: Ipv4Addr, port: u16) -> Self {
        self.src_addr = addr;
        self.src_port = port;
        self
    }

    /// Sets the destination address and port.
    pub fn dst(mut self, addr: Ipv4Addr, port: u16) -> Self {
        self.dst_addr = addr;
        self.dst_port = port;
        self
    }

    /// Sets only the source address.
    pub fn src_addr(mut self, addr: Ipv4Addr) -> Self {
        self.src_addr = addr;
        self
    }

    /// Sets only the destination address.
    pub fn dst_addr(mut self, addr: Ipv4Addr) -> Self {
        self.dst_addr = addr;
        self
    }

    /// Sets the source MAC address.
    pub fn src_mac(mut self, mac: MacAddr) -> Self {
        self.src_mac = mac;
        self
    }

    /// Sets the destination MAC address.
    pub fn dst_mac(mut self, mac: MacAddr) -> Self {
        self.dst_mac = mac;
        self
    }

    /// Sets the IP TTL.
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the DSCP/ECN byte.
    pub fn tos(mut self, tos: u8) -> Self {
        self.tos = tos;
        self
    }

    /// Sets the IP identification field.
    pub fn ident(mut self, id: u16) -> Self {
        self.ident = id;
        self
    }

    /// Sets TCP flags (TCP packets only; ignored otherwise).
    pub fn flags(mut self, f: TcpFlags) -> Self {
        self.tcp_flags = f;
        self
    }

    /// Sets the L4 payload bytes.
    pub fn payload(mut self, p: &[u8]) -> Self {
        self.payload = p.to_vec();
        self
    }

    /// Pads the final frame (with zero bytes of payload) to exactly `len`
    /// bytes — useful for packet-size sweeps like the paper's Figure 11.
    ///
    /// Shorter targets than the header stack are ignored.
    pub fn pad_to(mut self, len: usize) -> Self {
        self.pad_to = Some(len);
        self
    }

    /// The length of the L4 header this builder will emit.
    fn l4_len(&self) -> usize {
        match self.proto {
            IpProto::Udp => UDP_HDR_LEN,
            IpProto::Tcp => TCP_HDR_LEN,
            IpProto::Icmp => ICMP_HDR_LEN,
            _ => 0,
        }
    }

    /// Builds the packet.
    pub fn build(mut self) -> Packet {
        let headers = ETHER_HDR_LEN + IPV4_HDR_LEN + self.l4_len();
        if let Some(target) = self.pad_to {
            if target > headers + self.payload.len() {
                self.payload.resize(target - headers, 0);
            }
        }
        let total = headers + self.payload.len();
        let mut buf = BytesMut::zeroed(total);

        // Ethernet header.
        buf[0..6].copy_from_slice(&self.dst_mac.0);
        buf[6..12].copy_from_slice(&self.src_mac.0);
        buf[12..14].copy_from_slice(&EtherType::IPV4.0.to_be_bytes());

        // IPv4 header.
        buf[ETHER_HDR_LEN] = 0x45;
        {
            let ip_buf = &mut buf[ETHER_HDR_LEN..];
            let mut ip = Ipv4View::new_mut(ip_buf).expect("builder sizes are valid");
            ip.set_tos(self.tos);
            ip.set_total_len((IPV4_HDR_LEN + self.l4_len() + self.payload.len()) as u16);
            ip.set_ident(self.ident);
            ip.set_ttl(self.ttl);
            ip.set_proto(self.proto);
            ip.set_src(self.src_addr);
            ip.set_dst(self.dst_addr);
            ip.update_checksum();
        }

        // L4 header.
        let l4 = ETHER_HDR_LEN + IPV4_HDR_LEN;
        match self.proto {
            IpProto::Udp => {
                buf[l4..l4 + 2].copy_from_slice(&self.src_port.to_be_bytes());
                buf[l4 + 2..l4 + 4].copy_from_slice(&self.dst_port.to_be_bytes());
                let ulen = (UDP_HDR_LEN + self.payload.len()) as u16;
                buf[l4 + 4..l4 + 6].copy_from_slice(&ulen.to_be_bytes());
            }
            IpProto::Tcp => {
                buf[l4..l4 + 2].copy_from_slice(&self.src_port.to_be_bytes());
                buf[l4 + 2..l4 + 4].copy_from_slice(&self.dst_port.to_be_bytes());
                // Sequence and acknowledgement numbers stay zero.
                buf[l4 + 12] = 5 << 4;
                buf[l4 + 13] = self.tcp_flags.0;
                buf[l4 + 14..l4 + 16].copy_from_slice(&0xffffu16.to_be_bytes());
            }
            IpProto::Icmp => {
                buf[l4] = self.icmp_kind.number();
                buf[l4 + 4..l4 + 6].copy_from_slice(&self.icmp_ident.to_be_bytes());
                buf[l4 + 6..l4 + 8].copy_from_slice(&self.icmp_seq.to_be_bytes());
            }
            _ => {}
        }

        // Payload.
        let pstart = l4 + self.l4_len();
        buf[pstart..].copy_from_slice(&self.payload);

        Packet::from_buf(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_lengths_consistent() {
        let pkt = PacketBuilder::udp().payload(b"xyz").build();
        let ip = pkt.ipv4().unwrap();
        assert_eq!(
            usize::from(ip.total_len()),
            pkt.len() - ETHER_HDR_LEN,
            "IP total length covers everything after Ethernet"
        );
        assert_eq!(pkt.udp().unwrap().len_field(), (UDP_HDR_LEN + 3) as u16);
    }

    #[test]
    fn pad_to_sets_frame_size() {
        for size in [64usize, 128, 512, 1472] {
            let pkt = PacketBuilder::udp().pad_to(size).build();
            assert_eq!(pkt.len(), size);
            assert!(pkt.ipv4().unwrap().verify_checksum());
        }
    }

    #[test]
    fn pad_to_smaller_than_headers_ignored() {
        let pkt = PacketBuilder::tcp().pad_to(10).build();
        assert_eq!(pkt.len(), ETHER_HDR_LEN + IPV4_HDR_LEN + TCP_HDR_LEN);
    }

    #[test]
    fn raw_proto_packet() {
        let pkt = PacketBuilder::raw(IpProto::Sctp).payload(b"chunk").build();
        assert_eq!(pkt.ip_proto().unwrap(), IpProto::Sctp);
        assert_eq!(pkt.payload().unwrap(), b"chunk");
    }

    #[test]
    fn icmp_reply_kind() {
        let pkt = PacketBuilder::icmp_echo_reply(1, 2).build();
        assert_eq!(pkt.icmp().unwrap().kind(), IcmpKind::EchoReply);
    }
}
