//! Flow identification: the 5-tuple key used by stateful elements and by
//! the platform's flow-to-VM mapping.

use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

use crate::{ip::IpProto, Packet, Result};

/// A directed transport 5-tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlowKey {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Transport protocol.
    pub proto: IpProto,
    /// Source port (0 for port-less protocols; ICMP uses the echo ident).
    pub src_port: u16,
    /// Destination port (0 for port-less protocols).
    pub dst_port: u16,
}

impl FlowKey {
    /// Extracts the flow key from a packet.
    ///
    /// For ICMP echo packets the identifier doubles as both ports, so that a
    /// ping stream is a single flow in either direction (this is how the
    /// platform's on-the-fly instantiation treats "each ping is a flow" in
    /// the paper's Figure 5 experiment).
    pub fn of(pkt: &Packet) -> Result<FlowKey> {
        let ip = pkt.ipv4()?;
        let (src, dst, proto) = (ip.src(), ip.dst(), ip.proto());
        let (src_port, dst_port) = match proto {
            IpProto::Udp => {
                let u = pkt.udp()?;
                (u.src_port(), u.dst_port())
            }
            IpProto::Tcp => {
                let t = pkt.tcp()?;
                (t.src_port(), t.dst_port())
            }
            IpProto::Icmp => {
                let i = pkt.icmp()?;
                (i.ident(), i.ident())
            }
            _ => (0, 0),
        };
        Ok(FlowKey {
            src,
            dst,
            proto,
            src_port,
            dst_port,
        })
    }

    /// An RSS-style hash of the 5-tuple (FNV-1a over the canonical byte
    /// encoding).
    ///
    /// This is the dispatch key for flow-sharded execution: every packet
    /// of one directed flow hashes to the same value, so a dispatcher
    /// that routes on `shard_hash() % workers` pins each flow to exactly
    /// one worker and per-flow packet order is preserved end to end.
    /// The hash is deterministic across runs and platforms (no
    /// per-process seed), so shard assignments are reproducible.
    pub fn shard_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&self.src.octets());
        eat(&self.dst.octets());
        eat(&[self.proto.number()]);
        eat(&self.src_port.to_be_bytes());
        eat(&self.dst_port.to_be_bytes());
        h
    }

    /// The worker shard this flow is pinned to among `workers` workers.
    pub fn shard(&self, workers: usize) -> usize {
        if workers <= 1 {
            return 0;
        }
        (self.shard_hash() % workers as u64) as usize
    }

    /// The shard for an arbitrary packet: its flow-key shard when the
    /// packet carries a parseable 5-tuple, shard 0 otherwise (non-IP
    /// traffic is rare enough that pinning it to one worker preserves
    /// its relative order without hurting balance).
    pub fn shard_of(pkt: &Packet, workers: usize) -> usize {
        match FlowKey::of(pkt) {
            Ok(key) => key.shard(workers),
            Err(_) => 0,
        }
    }

    /// A direction-normalized connection hash for *symmetric* dispatch:
    /// a flow and its reverse hash identically, so both directions of a
    /// connection pin to the same flow-sharded worker.
    ///
    /// The hash covers only the connection's **remote** (outside-network)
    /// endpoint — the destination of an outbound packet, the source of an
    /// inbound one — plus the protocol. Hashing the canonical *sorted*
    /// endpoint pair would also be direction-insensitive, but it breaks
    /// under NAT: the reply to a translated flow is addressed to the
    /// public address, not the inside host, so the sorted tuples of the
    /// two directions differ. The remote endpoint is the one thing a
    /// source-NAT never rewrites, so it is the only per-packet key under
    /// which a NAT'd connection's forward packets, replies, and the
    /// translator's own state all land on one worker.
    ///
    /// For ICMP the "port" is the echo identifier, which is the one port a
    /// NAT *does* rewrite (it is the flow's external port on the way out
    /// and back), so echoes hash port 0: the remote address and protocol
    /// alone.
    ///
    /// `inbound` says which side the packet was seen on: `false` for
    /// inside → outside traffic (remote = destination), `true` for
    /// outside → inside (remote = source). Like [`FlowKey::shard_hash`],
    /// the hash is FNV-1a over a canonical byte encoding, deterministic
    /// across runs and platforms.
    pub fn symmetric_hash(&self, inbound: bool) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let (addr, port) = if inbound {
            (self.src, self.src_port)
        } else {
            (self.dst, self.dst_port)
        };
        let port = if self.proto == IpProto::Icmp { 0 } else { port };
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&addr.octets());
        eat(&[self.proto.number()]);
        eat(&port.to_be_bytes());
        h
    }

    /// The worker shard under symmetric dispatch (see
    /// [`FlowKey::symmetric_hash`]) among `workers` workers.
    pub fn symmetric_shard(&self, inbound: bool, workers: usize) -> usize {
        if workers <= 1 {
            return 0;
        }
        (self.symmetric_hash(inbound) % workers as u64) as usize
    }

    /// The symmetric-dispatch shard for an arbitrary packet.
    ///
    /// Direction is taken from the packet's ingress annotation using the
    /// two-sided middlebox convention: even interfaces face the inside
    /// network (their packets travel inside → outside), odd interfaces
    /// face the outside. Unparseable packets pin to shard 0, exactly as
    /// in [`FlowKey::shard_of`].
    pub fn symmetric_shard_of(pkt: &Packet, workers: usize) -> usize {
        match FlowKey::of(pkt) {
            Ok(key) => key.symmetric_shard(pkt.meta.ingress % 2 == 1, workers),
            Err(_) => 0,
        }
    }

    /// The key of traffic flowing in the opposite direction.
    pub fn reversed(&self) -> FlowKey {
        FlowKey {
            src: self.dst,
            dst: self.src,
            proto: self.proto,
            src_port: self.dst_port,
            dst_port: self.src_port,
        }
    }

    /// A direction-insensitive tuple: both directions of a connection map to
    /// the same value. Used for connection tracking.
    pub fn canonical(&self) -> FlowTuple {
        let a = (self.src, self.src_port);
        let b = (self.dst, self.dst_port);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        FlowTuple {
            lo_addr: lo.0,
            lo_port: lo.1,
            hi_addr: hi.0,
            hi_port: hi.1,
            proto: self.proto,
        }
    }
}

impl std::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}:{} -> {}:{}",
            self.proto, self.src, self.src_port, self.dst, self.dst_port
        )
    }
}

/// A direction-insensitive connection identifier (see
/// [`FlowKey::canonical`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlowTuple {
    /// The lexicographically smaller endpoint's address.
    pub lo_addr: Ipv4Addr,
    /// The lexicographically smaller endpoint's port.
    pub lo_port: u16,
    /// The lexicographically larger endpoint's address.
    pub hi_addr: Ipv4Addr,
    /// The lexicographically larger endpoint's port.
    pub hi_port: u16,
    /// Transport protocol.
    pub proto: IpProto,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PacketBuilder;

    #[test]
    fn udp_key() {
        let pkt = PacketBuilder::udp()
            .src(Ipv4Addr::new(1, 1, 1, 1), 100)
            .dst(Ipv4Addr::new(2, 2, 2, 2), 200)
            .build();
        let k = FlowKey::of(&pkt).unwrap();
        assert_eq!(k.proto, IpProto::Udp);
        assert_eq!((k.src_port, k.dst_port), (100, 200));
    }

    #[test]
    fn reversed_twice_is_identity() {
        let pkt = PacketBuilder::tcp()
            .src(Ipv4Addr::new(1, 1, 1, 1), 100)
            .dst(Ipv4Addr::new(2, 2, 2, 2), 200)
            .build();
        let k = FlowKey::of(&pkt).unwrap();
        assert_eq!(k.reversed().reversed(), k);
        assert_ne!(k.reversed(), k);
    }

    #[test]
    fn canonical_direction_insensitive() {
        let pkt = PacketBuilder::tcp()
            .src(Ipv4Addr::new(9, 1, 1, 1), 100)
            .dst(Ipv4Addr::new(2, 2, 2, 2), 200)
            .build();
        let k = FlowKey::of(&pkt).unwrap();
        assert_eq!(k.canonical(), k.reversed().canonical());
    }

    #[test]
    fn shard_hash_is_deterministic_and_direction_sensitive() {
        let pkt = PacketBuilder::udp()
            .src(Ipv4Addr::new(1, 1, 1, 1), 100)
            .dst(Ipv4Addr::new(2, 2, 2, 2), 200)
            .build();
        let k = FlowKey::of(&pkt).unwrap();
        assert_eq!(k.shard_hash(), k.shard_hash());
        // The reverse direction is a different directed flow and is free
        // to land on a different shard.
        assert_ne!(k.shard_hash(), k.reversed().shard_hash());
        // Shards are always in range, and one worker means shard 0.
        for workers in 1..=16 {
            assert!(k.shard(workers) < workers);
        }
        assert_eq!(k.shard(1), 0);
        assert_eq!(k.shard(0), 0);
    }

    #[test]
    fn shard_of_handles_unparseable_packets() {
        let pkt = PacketBuilder::udp()
            .src(Ipv4Addr::new(9, 9, 9, 9), 1)
            .dst(Ipv4Addr::new(8, 8, 8, 8), 2)
            .build();
        let key = FlowKey::of(&pkt).unwrap();
        assert_eq!(FlowKey::shard_of(&pkt, 8), key.shard(8));
        // A packet with no parseable 5-tuple pins to shard 0.
        let garbage = Packet::from_bytes([0u8; 10]);
        assert_eq!(FlowKey::shard_of(&garbage, 8), 0);
    }

    #[test]
    fn symmetric_hash_pins_both_directions_together() {
        let pkt = PacketBuilder::udp()
            .src(Ipv4Addr::new(10, 0, 0, 1), 5000)
            .dst(Ipv4Addr::new(198, 51, 100, 7), 53)
            .build();
        let k = FlowKey::of(&pkt).unwrap();
        // The outbound flow and its exact reverse agree for every
        // worker count: the remote endpoint is the same either way.
        assert_eq!(k.symmetric_hash(false), k.reversed().symmetric_hash(true));
        for workers in 1..=16 {
            let s = k.symmetric_shard(false, workers);
            assert!(s < workers);
            assert_eq!(s, k.reversed().symmetric_shard(true, workers));
        }
        assert_eq!(k.symmetric_shard(false, 1), 0);
        assert_eq!(k.symmetric_shard(false, 0), 0);
    }

    #[test]
    fn symmetric_hash_survives_source_nat() {
        // The inside flow 10.0.0.1:5000 -> R:53 is rewritten by a
        // source-NAT to public:eport -> R:53; the reply then arrives as
        // R:53 -> public:eport. The remote endpoint (R, 53) is untouched
        // by the rewrite, so the reply still hashes with the inside flow
        // — which a sorted-endpoint canonical hash would not guarantee.
        let inside = FlowKey {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(198, 51, 100, 7),
            proto: IpProto::Udp,
            src_port: 5000,
            dst_port: 53,
        };
        let reply = FlowKey {
            src: Ipv4Addr::new(198, 51, 100, 7),
            dst: Ipv4Addr::new(203, 0, 113, 1), // the NAT's public address
            proto: IpProto::Udp,
            src_port: 53,
            dst_port: 61234, // whatever external port the NAT allocated
        };
        assert_eq!(inside.symmetric_hash(false), reply.symmetric_hash(true));
    }

    #[test]
    fn symmetric_hash_ignores_the_echo_ident_a_nat_rewrites() {
        // A ping leaves with ident 7 and comes back carrying whatever
        // external ident the NAT gave it: both must reach one worker.
        let ping = PacketBuilder::icmp_echo_request(7, 1)
            .src_addr(Ipv4Addr::new(10, 0, 0, 1))
            .dst_addr(Ipv4Addr::new(198, 51, 100, 7))
            .build();
        let pong = PacketBuilder::icmp_echo_reply(61_234, 1)
            .src_addr(Ipv4Addr::new(198, 51, 100, 7))
            .dst_addr(Ipv4Addr::new(203, 0, 113, 1))
            .build();
        let (out, back) = (FlowKey::of(&ping).unwrap(), FlowKey::of(&pong).unwrap());
        assert_eq!(out.symmetric_hash(false), back.symmetric_hash(true));
        // Ports still count for everything else.
        let udp = |port| FlowKey {
            proto: IpProto::Udp,
            dst_port: port,
            ..out
        };
        assert_ne!(udp(7).symmetric_hash(false), udp(8).symmetric_hash(false));
    }

    #[test]
    fn symmetric_shard_of_uses_ingress_parity() {
        let out = PacketBuilder::udp()
            .src(Ipv4Addr::new(10, 0, 0, 1), 5000)
            .dst(Ipv4Addr::new(198, 51, 100, 7), 53)
            .build();
        let mut back = PacketBuilder::udp()
            .src(Ipv4Addr::new(198, 51, 100, 7), 53)
            .dst(Ipv4Addr::new(10, 0, 0, 1), 5000)
            .build();
        back.meta.ingress = 1; // arrived on the outside-facing interface
        let key = FlowKey::of(&out).unwrap();
        for workers in 1..=8 {
            assert_eq!(
                FlowKey::symmetric_shard_of(&out, workers),
                key.symmetric_shard(false, workers)
            );
            assert_eq!(
                FlowKey::symmetric_shard_of(&back, workers),
                FlowKey::symmetric_shard_of(&out, workers)
            );
        }
        let garbage = Packet::from_bytes([0u8; 10]);
        assert_eq!(FlowKey::symmetric_shard_of(&garbage, 8), 0);
    }

    #[test]
    fn icmp_uses_ident() {
        let pkt = PacketBuilder::icmp_echo_request(7, 1)
            .src_addr(Ipv4Addr::new(1, 1, 1, 1))
            .dst_addr(Ipv4Addr::new(2, 2, 2, 2))
            .build();
        let k = FlowKey::of(&pkt).unwrap();
        assert_eq!((k.src_port, k.dst_port), (7, 7));
    }
}
