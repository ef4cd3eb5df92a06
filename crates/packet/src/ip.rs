//! IPv4 header view and checksum arithmetic.

use std::net::Ipv4Addr;

use crate::{PacketError, Result};
use serde::{Deserialize, Serialize};

/// Length in bytes of an IPv4 header without options.
pub const IPV4_HDR_LEN: usize = 20;

/// An IP protocol number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum IpProto {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// SCTP (132) — used by the protocol-tunneling experiments.
    Sctp,
    /// IP-in-IP encapsulation (4) — used by tunnel elements.
    IpIp,
    /// Any other protocol number.
    Other(u8),
}

impl IpProto {
    /// The on-the-wire protocol number.
    pub fn number(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::IpIp => 4,
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Sctp => 132,
            IpProto::Other(n) => n,
        }
    }
}

impl From<u8> for IpProto {
    fn from(n: u8) -> Self {
        match n {
            1 => IpProto::Icmp,
            4 => IpProto::IpIp,
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            132 => IpProto::Sctp,
            other => IpProto::Other(other),
        }
    }
}

impl std::fmt::Display for IpProto {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IpProto::Icmp => write!(f, "icmp"),
            IpProto::IpIp => write!(f, "ipip"),
            IpProto::Tcp => write!(f, "tcp"),
            IpProto::Udp => write!(f, "udp"),
            IpProto::Sctp => write!(f, "sctp"),
            IpProto::Other(n) => write!(f, "proto-{n}"),
        }
    }
}

/// Computes the Internet checksum (RFC 1071) over `data`.
///
/// The caller zeroes the checksum field before computing. Odd-length inputs
/// are padded with a trailing zero byte, as the RFC requires.
pub fn internet_checksum(data: &[u8]) -> u16 {
    // The one's-complement sum does not depend on byte order (RFC 1071
    // §2(B)): summing the words as the machine reads them yields the
    // big-endian sum with its two bytes swapped, so the loop adds native
    // words and the result is swapped once, after the fold (`from_be`, a
    // no-op on a big-endian machine). A swap per word keeps the loop from
    // vectorising, and every netfront ring crossing pays this loop over
    // the whole frame.
    //
    // Summing 32-bit words is exact: each contributes `hi16 * 2^16 +
    // lo16`, and 2^16 ≡ 1 (mod 2^16-1), so the fold produces the same
    // sum as a 16-bit-word accumulation. A u64 accumulator cannot
    // overflow below 2^32 words (~16 GiB inputs); a u32 would wrap — a
    // debug-build panic — on ~128 KiB of 0xFF bytes.
    let mut sum: u64 = 0;
    let mut chunks = data.chunks_exact(4);
    for c in &mut chunks {
        sum += u64::from(u32::from_ne_bytes([c[0], c[1], c[2], c[3]]));
    }
    let mut rest = chunks.remainder().chunks_exact(2);
    for c in &mut rest {
        sum += u64::from(u16::from_ne_bytes([c[0], c[1]]));
    }
    if let [last] = rest.remainder() {
        sum += u64::from(u16::from_ne_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !u16::from_be(sum as u16)
}

/// A typed view of an IPv4 header over a byte buffer that begins at the
/// first byte of the IP header.
#[derive(Debug)]
pub struct Ipv4View<T> {
    buf: T,
    header_len: usize,
}

impl<T: AsRef<[u8]>> Ipv4View<T> {
    /// Validates version/IHL/length and wraps the buffer.
    pub fn new(buf: T) -> Result<Self> {
        let b = buf.as_ref();
        if b.len() < IPV4_HDR_LEN {
            return Err(PacketError::Truncated {
                what: "IPv4 header",
                need: IPV4_HDR_LEN,
                have: b.len(),
            });
        }
        let ihl = b[0] & 0x0f;
        if ihl < 5 {
            return Err(PacketError::BadHeaderLength(ihl));
        }
        let header_len = usize::from(ihl) * 4;
        if b.len() < header_len {
            return Err(PacketError::Truncated {
                what: "IPv4 options",
                need: header_len,
                have: b.len(),
            });
        }
        Ok(Ipv4View { buf, header_len })
    }

    fn b(&self) -> &[u8] {
        self.buf.as_ref()
    }

    /// Header length in bytes (IHL × 4).
    pub fn header_len(&self) -> usize {
        self.header_len
    }

    /// IP version field (4 for well-formed packets).
    pub fn version(&self) -> u8 {
        self.b()[0] >> 4
    }

    /// DSCP/ECN byte.
    pub fn tos(&self) -> u8 {
        self.b()[1]
    }

    /// Total length field (header + payload).
    pub fn total_len(&self) -> u16 {
        u16::from_be_bytes([self.b()[2], self.b()[3]])
    }

    /// Identification field.
    pub fn ident(&self) -> u16 {
        u16::from_be_bytes([self.b()[4], self.b()[5]])
    }

    /// Time-to-live field.
    pub fn ttl(&self) -> u8 {
        self.b()[8]
    }

    /// Transport protocol.
    pub fn proto(&self) -> IpProto {
        IpProto::from(self.b()[9])
    }

    /// Header checksum field as stored.
    pub fn checksum(&self) -> u16 {
        u16::from_be_bytes([self.b()[10], self.b()[11]])
    }

    /// Source address.
    pub fn src(&self) -> Ipv4Addr {
        let b = self.b();
        Ipv4Addr::new(b[12], b[13], b[14], b[15])
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv4Addr {
        let b = self.b();
        Ipv4Addr::new(b[16], b[17], b[18], b[19])
    }

    /// Recomputes the header checksum and compares it with the stored value.
    ///
    /// The header is copied to the stack (IHL ≤ 15, so at most 60 bytes)
    /// with its checksum field zeroed. A stored `0xFFFF` therefore fails
    /// where the recomputed value is `0x0000`, which a whole-header sum
    /// would accept.
    pub fn verify_checksum(&self) -> bool {
        let mut hdr = [0u8; 60];
        let hdr = &mut hdr[..self.header_len];
        hdr.copy_from_slice(&self.b()[..self.header_len]);
        hdr[10] = 0;
        hdr[11] = 0;
        internet_checksum(hdr) == self.checksum()
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Ipv4View<T> {
    /// Validates and wraps the buffer for mutation.
    pub fn new_mut(buf: T) -> Result<Self> {
        Ipv4View::new(buf)
    }

    fn bm(&mut self) -> &mut [u8] {
        self.buf.as_mut()
    }

    /// Sets the TTL field (checksum must be refreshed afterwards).
    pub fn set_ttl(&mut self, ttl: u8) {
        self.bm()[8] = ttl;
    }

    /// Sets the DSCP/ECN byte.
    pub fn set_tos(&mut self, tos: u8) {
        self.bm()[1] = tos;
    }

    /// Sets the transport protocol number.
    pub fn set_proto(&mut self, proto: IpProto) {
        self.bm()[9] = proto.number();
    }

    /// Sets the total length field.
    pub fn set_total_len(&mut self, len: u16) {
        self.bm()[2..4].copy_from_slice(&len.to_be_bytes());
    }

    /// Sets the identification field.
    pub fn set_ident(&mut self, id: u16) {
        self.bm()[4..6].copy_from_slice(&id.to_be_bytes());
    }

    /// Sets the source address.
    pub fn set_src(&mut self, a: Ipv4Addr) {
        self.bm()[12..16].copy_from_slice(&a.octets());
    }

    /// Sets the destination address.
    pub fn set_dst(&mut self, a: Ipv4Addr) {
        self.bm()[16..20].copy_from_slice(&a.octets());
    }

    /// Recomputes and stores the header checksum.
    pub fn update_checksum(&mut self) {
        let hl = self.header_len;
        let bm = self.bm();
        bm[10] = 0;
        bm[11] = 0;
        let sum = internet_checksum(&bm[..hl]);
        bm[10..12].copy_from_slice(&sum.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A canonical 20-byte header with valid fields.
    fn hdr() -> Vec<u8> {
        let mut h = vec![0u8; IPV4_HDR_LEN + 8];
        h[0] = 0x45;
        let mut v = Ipv4View::new_mut(&mut h[..]).unwrap();
        v.set_total_len(28);
        v.set_ttl(64);
        v.set_proto(IpProto::Udp);
        v.set_src(Ipv4Addr::new(1, 2, 3, 4));
        v.set_dst(Ipv4Addr::new(5, 6, 7, 8));
        v.update_checksum();
        h
    }

    #[test]
    fn fields_roundtrip() {
        let h = hdr();
        let v = Ipv4View::new(&h[..]).unwrap();
        assert_eq!(v.version(), 4);
        assert_eq!(v.ttl(), 64);
        assert_eq!(v.proto(), IpProto::Udp);
        assert_eq!(v.src(), Ipv4Addr::new(1, 2, 3, 4));
        assert_eq!(v.dst(), Ipv4Addr::new(5, 6, 7, 8));
        assert!(v.verify_checksum());
    }

    #[test]
    fn mutation_breaks_then_update_fixes_checksum() {
        let mut h = hdr();
        let mut v = Ipv4View::new_mut(&mut h[..]).unwrap();
        v.set_dst(Ipv4Addr::new(9, 9, 9, 9));
        assert!(!v.verify_checksum());
        v.update_checksum();
        assert!(v.verify_checksum());
    }

    #[test]
    fn bad_ihl_rejected() {
        let mut h = hdr();
        h[0] = 0x42; // IHL = 2 words, illegal.
        assert_eq!(
            Ipv4View::new(&h[..]).unwrap_err(),
            PacketError::BadHeaderLength(2)
        );
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(matches!(
            Ipv4View::new(&[0x45u8; 10][..]),
            Err(PacketError::Truncated { .. })
        ));
    }

    #[test]
    fn options_require_longer_buffer() {
        let mut h = [0u8; IPV4_HDR_LEN];
        h[0] = 0x46; // IHL 6 => 24 bytes, buffer only 20.
        assert!(matches!(
            Ipv4View::new(&h[..]),
            Err(PacketError::Truncated { .. })
        ));
    }

    #[test]
    fn checksum_known_vector() {
        // Example from RFC 1071 discussions: checksum of a classic header.
        let data: [u8; 20] = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        assert_eq!(internet_checksum(&data), 0xb861);
    }

    #[test]
    fn stored_ffff_is_not_a_zero_checksum() {
        // The other words sum to 0xFFFF (0x4500 + 0xBAFF), so the
        // recomputed checksum is 0x0000. A stored 0xFFFF is the other
        // one's-complement zero: the whole header would sum to zero, but
        // the field does not hold the value a sender computes.
        let mut h = [0u8; IPV4_HDR_LEN];
        h[0] = 0x45;
        h[2..4].copy_from_slice(&0xBAFFu16.to_be_bytes());
        h[10..12].copy_from_slice(&0xFFFFu16.to_be_bytes());
        assert!(!Ipv4View::new(&h[..]).unwrap().verify_checksum());
        h[10..12].copy_from_slice(&0x0000u16.to_be_bytes());
        assert!(Ipv4View::new(&h[..]).unwrap().verify_checksum());
    }

    #[test]
    fn proto_number_roundtrip() {
        for n in 0u8..=255 {
            assert_eq!(IpProto::from(n).number(), n);
        }
    }
}
