//! # innet-packet
//!
//! Packet buffers, protocol header views, and flow identification for the
//! In-Net stack.
//!
//! This crate is the lowest layer of the In-Net reproduction: everything that
//! touches concrete packet bytes — the Click-style element runtime, the
//! platform's native execution engine, and the discrete-event simulator —
//! builds on the types defined here.
//!
//! ## Design
//!
//! A [`Packet`] owns a contiguous byte buffer that starts at the Ethernet
//! header, plus a small metadata block (ingress port, virtual timestamp, and
//! a fixed-size annotation area mirroring Click's packet annotations).
//! Protocol headers are accessed through zero-copy *views* ([`EtherView`],
//! [`Ipv4View`], [`UdpView`], [`TcpView`], [`IcmpView`]) that validate
//! lengths once and then read/write big-endian fields at fixed offsets.
//!
//! [`PacketBuilder`] constructs well-formed packets for tests, workload
//! generators, and benchmarks; [`FlowKey`] extracts the canonical 5-tuple
//! used by stateful elements (firewalls, NATs) and by the platform's
//! on-the-fly VM instantiation logic.
//!
//! ## Example
//!
//! ```
//! use innet_packet::{PacketBuilder, IpProto, FlowKey};
//! use std::net::Ipv4Addr;
//!
//! let pkt = PacketBuilder::udp()
//!     .src(Ipv4Addr::new(10, 0, 0, 1), 5000)
//!     .dst(Ipv4Addr::new(192, 168, 1, 7), 1500)
//!     .payload(b"notify")
//!     .build();
//!
//! let ip = pkt.ipv4().unwrap();
//! assert_eq!(ip.proto(), IpProto::Udp);
//! assert!(ip.verify_checksum());
//!
//! let key = FlowKey::of(&pkt).unwrap();
//! assert_eq!(key.dst_port, 1500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buf;
mod builder;
mod ether;
mod flow;
mod icmp;
mod ip;
mod net;
pub mod pattern;
mod pool;
mod tcp;
mod udp;

pub use buf::{Packet, PacketMeta, ANNO_SIZE};
pub use builder::PacketBuilder;
pub use ether::{EtherType, EtherView, MacAddr, ETHER_HDR_LEN};
pub use flow::{fnv1a_64, FlowKey, FlowTuple};
pub use icmp::{IcmpKind, IcmpView, ICMP_HDR_LEN};
pub use ip::{internet_checksum, IpProto, Ipv4View, IPV4_HDR_LEN};
pub use net::{Cidr, CidrParseError};
pub use pool::{PacketPool, DEFAULT_POOL_BUFFERS};
pub use tcp::{TcpFlags, TcpView, TCP_HDR_LEN};
pub use udp::{UdpView, UDP_HDR_LEN};

/// Errors produced while interpreting packet bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PacketError {
    /// The buffer is shorter than the header that was requested.
    Truncated {
        /// Header family that could not be decoded.
        what: &'static str,
        /// Bytes required to decode the header.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The packet does not carry the protocol that was requested
    /// (e.g. asking for a UDP view of a TCP packet).
    WrongProtocol {
        /// Protocol that was expected.
        expected: &'static str,
    },
    /// An IPv4 header declared an invalid header length.
    BadHeaderLength(u8),
    /// The packet is not IPv4 (In-Net's dataplane is IPv4-only, as is the
    /// paper's prototype).
    NotIpv4,
}

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PacketError::Truncated { what, need, have } => {
                write!(f, "truncated {what}: need {need} bytes, have {have}")
            }
            PacketError::WrongProtocol { expected } => {
                write!(f, "packet does not carry {expected}")
            }
            PacketError::BadHeaderLength(ihl) => write!(f, "bad IPv4 IHL {ihl}"),
            PacketError::NotIpv4 => write!(f, "packet is not IPv4"),
        }
    }
}

impl std::error::Error for PacketError {}

/// Convenient result alias for packet operations.
pub type Result<T> = std::result::Result<T, PacketError>;
