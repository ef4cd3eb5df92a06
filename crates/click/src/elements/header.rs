//! Header manipulation elements: validity checks, TTL, field setters,
//! stripping and Ethernet encapsulation.

use std::net::Ipv4Addr;

use innet_packet::{EtherType, MacAddr, Packet, ETHER_HDR_LEN};

use crate::{
    args::ConfigArgs,
    element::{Context, Element, ElementError, PortCount, Sink},
};

/// `CheckIPHeader()` — passes well-formed IPv4 packets (version, length,
/// checksum) and drops the rest.
#[derive(Debug, Default)]
pub struct CheckIPHeader {
    dropped: u64,
}

impl CheckIPHeader {
    /// Creates a checker.
    pub fn new() -> CheckIPHeader {
        CheckIPHeader::default()
    }

    /// Packets dropped as malformed.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Element for CheckIPHeader {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        let ok = pkt
            .ipv4()
            .map(|ip| ip.version() == 4 && ip.verify_checksum())
            .unwrap_or(false);
        if ok {
            out.push(0, pkt);
        } else {
            self.dropped += 1;
        }
    }
}

/// `MarkIPHeader([OFFSET])` — records where the IPv4 header starts
/// (default: immediately after Ethernet).
#[derive(Debug)]
pub struct MarkIPHeader {
    offset: usize,
}

impl MarkIPHeader {
    /// Parses `MarkIPHeader([OFFSET])`.
    pub fn from_args(args: &ConfigArgs) -> Result<MarkIPHeader, ElementError> {
        args.expect_len_range(0, 1)?;
        Ok(MarkIPHeader {
            offset: args.parse_or(0, ETHER_HDR_LEN)?,
        })
    }
}

impl Element for MarkIPHeader {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, mut pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        pkt.meta.l3_offset = Some(self.offset);
        out.push(0, pkt);
    }
}

/// `DecIPTTL()` — decrements the TTL, fixing the checksum; packets whose
/// TTL would reach zero are dropped (a router would emit ICMP time
/// exceeded; we count instead).
#[derive(Debug, Default)]
pub struct DecIPTTL {
    expired: u64,
}

impl DecIPTTL {
    /// Creates a TTL decrementer.
    pub fn new() -> DecIPTTL {
        DecIPTTL::default()
    }

    /// Packets dropped because the TTL expired.
    pub fn expired(&self) -> u64 {
        self.expired
    }
}

impl Element for DecIPTTL {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, mut pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        let Ok(mut ip) = pkt.ipv4_mut() else {
            self.expired += 1;
            return;
        };
        let ttl = ip.ttl();
        if ttl <= 1 {
            self.expired += 1;
            return;
        }
        ip.set_ttl(ttl - 1);
        ip.update_checksum();
        out.push(0, pkt);
    }
}

/// `SetIPSrc(ADDR)` — overwrites the IPv4 source address.
#[derive(Debug)]
pub struct SetIPSrc {
    addr: Ipv4Addr,
}

impl SetIPSrc {
    /// Parses `SetIPSrc(ADDR)`.
    pub fn from_args(args: &ConfigArgs) -> Result<SetIPSrc, ElementError> {
        args.expect_len(1)?;
        Ok(SetIPSrc {
            addr: args.addr_at(0)?,
        })
    }

    /// The configured address.
    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }
}

impl Element for SetIPSrc {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, mut pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        if let Ok(mut ip) = pkt.ipv4_mut() {
            ip.set_src(self.addr);
            ip.update_checksum();
        }
        out.push(0, pkt);
    }
}

/// `SetIPDst(ADDR)` — overwrites the IPv4 destination address.
#[derive(Debug)]
pub struct SetIPDst {
    addr: Ipv4Addr,
}

impl SetIPDst {
    /// Parses `SetIPDst(ADDR)`.
    pub fn from_args(args: &ConfigArgs) -> Result<SetIPDst, ElementError> {
        args.expect_len(1)?;
        Ok(SetIPDst {
            addr: args.addr_at(0)?,
        })
    }

    /// The configured address.
    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }
}

impl Element for SetIPDst {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, mut pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        if let Ok(mut ip) = pkt.ipv4_mut() {
            ip.set_dst(self.addr);
            ip.update_checksum();
        }
        out.push(0, pkt);
    }
}

/// `SetTOS(VALUE)` — overwrites the DSCP/ECN byte (used by traffic
/// prioritization configurations).
#[derive(Debug)]
pub struct SetTOS {
    tos: u8,
}

impl SetTOS {
    /// Parses `SetTOS(VALUE)`.
    pub fn from_args(args: &ConfigArgs) -> Result<SetTOS, ElementError> {
        args.expect_len(1)?;
        Ok(SetTOS {
            tos: args.parse_at(0)?,
        })
    }
}

impl Element for SetTOS {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, mut pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        if let Ok(mut ip) = pkt.ipv4_mut() {
            ip.set_tos(self.tos);
            ip.update_checksum();
        }
        out.push(0, pkt);
    }
}

/// `Strip(N)` — removes N bytes from the front of the frame.
#[derive(Debug)]
pub struct Strip {
    n: usize,
    underflow: u64,
}

impl Strip {
    /// Parses `Strip(N)`.
    pub fn from_args(args: &ConfigArgs) -> Result<Strip, ElementError> {
        args.expect_len(1)?;
        Ok(Strip {
            n: args.parse_at(0)?,
            underflow: 0,
        })
    }
}

impl Element for Strip {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, mut pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        if pkt.pop_front(self.n).is_ok() {
            out.push(0, pkt);
        } else {
            self.underflow += 1;
        }
    }
}

/// `EtherEncap(ETHERTYPE, SRC, DST)` — prepends an Ethernet header.
///
/// The ethertype may be decimal or `0x`-prefixed hex.
#[derive(Debug)]
pub struct EtherEncap {
    ethertype: EtherType,
    src: MacAddr,
    dst: MacAddr,
}

fn parse_mac(s: &str) -> Option<MacAddr> {
    let parts: Vec<&str> = s.split(':').collect();
    if parts.len() != 6 {
        return None;
    }
    let mut m = [0u8; 6];
    for (i, p) in parts.iter().enumerate() {
        m[i] = u8::from_str_radix(p, 16).ok()?;
    }
    Some(MacAddr(m))
}

impl EtherEncap {
    /// Parses `EtherEncap(ETHERTYPE, SRC, DST)`.
    pub fn from_args(args: &ConfigArgs) -> Result<EtherEncap, ElementError> {
        let bad = |message: String| ElementError::BadArgs {
            class: "EtherEncap",
            message,
        };
        args.expect_len(3)?;
        let et_s = args.str_at(0)?;
        let et = if let Some(hex) = et_s.strip_prefix("0x") {
            u16::from_str_radix(hex, 16).map_err(|_| bad(format!("bad ethertype '{et_s}'")))?
        } else {
            et_s.parse()
                .map_err(|_| bad(format!("bad ethertype '{et_s}'")))?
        };
        let src = parse_mac(args.str_at(1)?)
            .ok_or_else(|| bad(format!("bad MAC '{}'", args.str_at(1).unwrap_or(""))))?;
        let dst = parse_mac(args.str_at(2)?)
            .ok_or_else(|| bad(format!("bad MAC '{}'", args.str_at(2).unwrap_or(""))))?;
        Ok(EtherEncap {
            ethertype: EtherType(et),
            src,
            dst,
        })
    }
}

impl Element for EtherEncap {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, mut pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        let mut hdr = [0u8; ETHER_HDR_LEN];
        hdr[0..6].copy_from_slice(&self.dst.0);
        hdr[6..12].copy_from_slice(&self.src.0);
        hdr[12..14].copy_from_slice(&self.ethertype.0.to_be_bytes());
        pkt.push_front(&hdr);
        out.push(0, pkt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::VecSink;
    use innet_packet::PacketBuilder;

    #[test]
    fn check_ip_header_accepts_valid() {
        let mut el = CheckIPHeader::new();
        let mut s = VecSink::new();
        el.push(0, PacketBuilder::udp().build(), &Context::default(), &mut s);
        assert_eq!(s.pushed.len(), 1);
    }

    #[test]
    fn check_ip_header_drops_corrupt() {
        let mut pkt = PacketBuilder::udp().build();
        pkt.bytes_mut()[20] ^= 0xff; // Corrupt a header byte.
        let mut el = CheckIPHeader::new();
        let mut s = VecSink::new();
        el.push(0, pkt, &Context::default(), &mut s);
        assert!(s.pushed.is_empty());
        assert_eq!(el.dropped(), 1);
    }

    #[test]
    fn dec_ttl_decrements_and_fixes_checksum() {
        let mut el = DecIPTTL::new();
        let mut s = VecSink::new();
        el.push(
            0,
            PacketBuilder::udp().ttl(64).build(),
            &Context::default(),
            &mut s,
        );
        let out = s.only(0).unwrap();
        assert_eq!(out.ipv4().unwrap().ttl(), 63);
        assert!(out.ipv4().unwrap().verify_checksum());
    }

    #[test]
    fn dec_ttl_expires() {
        let mut el = DecIPTTL::new();
        let mut s = VecSink::new();
        el.push(
            0,
            PacketBuilder::udp().ttl(1).build(),
            &Context::default(),
            &mut s,
        );
        assert!(s.pushed.is_empty());
        assert_eq!(el.expired(), 1);
    }

    #[test]
    fn set_ip_dst_rewrites() {
        let args = ConfigArgs::parse("SetIPDst", "172.16.15.133");
        let mut el = SetIPDst::from_args(&args).unwrap();
        let mut s = VecSink::new();
        el.push(0, PacketBuilder::udp().build(), &Context::default(), &mut s);
        let out = s.only(0).unwrap();
        assert_eq!(out.ipv4().unwrap().dst(), Ipv4Addr::new(172, 16, 15, 133));
        assert!(out.ipv4().unwrap().verify_checksum());
    }

    #[test]
    fn strip_and_ether_encap_roundtrip() {
        let pkt = PacketBuilder::udp().payload(b"data").build();
        let original = pkt.bytes().to_vec();

        let mut strip = Strip::from_args(&ConfigArgs::parse("Strip", "14")).unwrap();
        let mut s = VecSink::new();
        strip.push(0, pkt, &Context::default(), &mut s);
        let stripped = s.pushed.pop().unwrap().1;
        assert_eq!(stripped.len(), original.len() - 14);

        let args = ConfigArgs::parse("EtherEncap", "0x0800, 02:00:00:00:00:01, 02:00:00:00:00:02");
        let mut encap = EtherEncap::from_args(&args).unwrap();
        let mut s2 = VecSink::new();
        encap.push(0, stripped, &Context::default(), &mut s2);
        let rebuilt = s2.pushed.pop().unwrap().1;
        assert_eq!(rebuilt.len(), original.len());
        assert!(rebuilt.is_ipv4());
        assert_eq!(&rebuilt.bytes()[14..], &original[14..]);
    }

    #[test]
    fn bad_macs_rejected() {
        let args = ConfigArgs::parse("EtherEncap", "0x0800, nope, 02:00:00:00:00:02");
        assert!(EtherEncap::from_args(&args).is_err());
    }
}
