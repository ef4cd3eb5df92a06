//! Property-based tests for the packet layer.

use std::net::Ipv4Addr;

use innet_packet::{
    internet_checksum, Cidr, FlowKey, IpProto, Ipv4View, Packet, PacketBuilder, TcpFlags,
};
use proptest::prelude::*;

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

proptest! {
    /// Any packet the builder emits decodes back to the fields it was
    /// built from, and carries a valid IP checksum.
    #[test]
    fn builder_decode_roundtrip(
        src in arb_addr(),
        dst in arb_addr(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        ttl in 1u8..=255,
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        is_tcp in any::<bool>(),
    ) {
        let b = if is_tcp { PacketBuilder::tcp().flags(TcpFlags::SYN) } else { PacketBuilder::udp() };
        let pkt = b.src(src, sport).dst(dst, dport).ttl(ttl).payload(&payload).build();

        let ip = pkt.ipv4().unwrap();
        prop_assert_eq!(ip.src(), src);
        prop_assert_eq!(ip.dst(), dst);
        prop_assert_eq!(ip.ttl(), ttl);
        prop_assert!(ip.verify_checksum());

        let key = FlowKey::of(&pkt).unwrap();
        prop_assert_eq!(key.src_port, sport);
        prop_assert_eq!(key.dst_port, dport);
        prop_assert_eq!(key.proto, if is_tcp { IpProto::Tcp } else { IpProto::Udp });
        prop_assert_eq!(pkt.payload().unwrap(), &payload[..]);
    }

    /// The checksum update is a fixed point: updating twice equals once,
    /// and verification holds after any field mutation + update.
    #[test]
    fn checksum_update_fixed_point(
        src in arb_addr(),
        dst in arb_addr(),
        new_dst in arb_addr(),
    ) {
        let mut pkt = PacketBuilder::udp().src(src, 1).dst(dst, 2).build();
        {
            let mut ip = pkt.ipv4_mut().unwrap();
            ip.set_dst(new_dst);
            ip.update_checksum();
        }
        prop_assert!(pkt.ipv4().unwrap().verify_checksum());
        let before = pkt.bytes().to_vec();
        pkt.ipv4_mut().unwrap().update_checksum();
        prop_assert_eq!(pkt.bytes(), &before[..]);
    }

    /// Canonical flow tuples are direction-insensitive for all inputs.
    #[test]
    fn canonical_flow_symmetry(
        src in arb_addr(),
        dst in arb_addr(),
        sport in any::<u16>(),
        dport in any::<u16>(),
    ) {
        let pkt = PacketBuilder::tcp().src(src, sport).dst(dst, dport).build();
        let k = FlowKey::of(&pkt).unwrap();
        prop_assert_eq!(k.canonical(), k.reversed().canonical());
    }

    /// CIDR parse/display round-trips and containment is consistent with
    /// the numeric range.
    #[test]
    fn cidr_roundtrip_and_range(addr in arb_addr(), len in 0u8..=32, probe in arb_addr()) {
        let c = Cidr::new(addr, len).unwrap();
        let reparsed: Cidr = c.to_string().parse().unwrap();
        prop_assert_eq!(c, reparsed);
        let inside = (c.first_u32()..=c.last_u32()).contains(&u32::from(probe));
        prop_assert_eq!(c.contains(probe), inside);
    }

    /// Raw-buffer packets never panic on header access, whatever the bytes.
    #[test]
    fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let pkt = Packet::from_bytes(data);
        let _ = pkt.ether().map(|e| e.ethertype());
        let _ = pkt.ipv4().map(|ip| (ip.src(), ip.dst(), ip.proto(), ip.verify_checksum()));
        let _ = pkt.udp().map(|u| u.dst_port());
        let _ = pkt.tcp().map(|t| t.flags());
        let _ = pkt.icmp().map(|i| i.kind());
        let _ = pkt.payload();
        let _ = FlowKey::of(&pkt);
    }

    /// RFC 1071 invariant: appending the computed checksum to (even-length)
    /// data makes the whole buffer sum to zero.
    #[test]
    fn checksum_self_consistent(half in proptest::collection::vec(any::<u16>(), 1..32)) {
        let mut data: Vec<u8> = half.iter().flat_map(|w| w.to_be_bytes()).collect();
        let c = internet_checksum(&data);
        data.extend_from_slice(&c.to_be_bytes());
        prop_assert_eq!(internet_checksum(&data), 0);
    }

    /// Differential test against the bit-at-a-time reference: arbitrary
    /// buffers, including odd lengths (tail padding).
    #[test]
    fn checksum_matches_reference(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert_eq!(internet_checksum(&data), reference_checksum(&data));
    }

    /// Differential test on carry-heavy inputs: runs of 0xFF interleaved
    /// with arbitrary words force the multi-carry folding paths.
    #[test]
    fn checksum_matches_reference_carry_heavy(
        ff_run in 1usize..2048,
        words in proptest::collection::vec(any::<u16>(), 0..16),
        odd_tail in any::<bool>(),
    ) {
        let mut data = vec![0xFFu8; ff_run];
        for w in &words {
            data.extend_from_slice(&w.to_be_bytes());
        }
        if odd_tail {
            data.push(0xAB);
        }
        prop_assert_eq!(internet_checksum(&data), reference_checksum(&data));
    }
}

proptest! {
    /// `Ipv4View::verify_checksum` agrees with the formula it replaced
    /// (copy the header to the heap, zero the field, recompute, compare
    /// with the stored value) on random headers with IHL 5-15, half of
    /// them carrying the correct checksum.
    #[test]
    fn verify_checksum_matches_the_heap_copy_formula(
        bytes in proptest::collection::vec(any::<u8>(), 60),
        ihl in 5u8..=15,
        store_correct in any::<bool>(),
    ) {
        let mut bytes = bytes;
        let hl = usize::from(ihl) * 4;
        bytes[0] = 0x40 | ihl;
        let heap_copy = |b: &[u8]| {
            let mut hdr = b[..hl].to_vec();
            hdr[10] = 0;
            hdr[11] = 0;
            reference_checksum(&hdr)
        };
        if store_correct {
            let sum = heap_copy(&bytes);
            bytes[10..12].copy_from_slice(&sum.to_be_bytes());
        }
        let stored = u16::from_be_bytes([bytes[10], bytes[11]]);
        let view = Ipv4View::new(&bytes[..]).unwrap();
        prop_assert_eq!(view.header_len(), hl);
        prop_assert_eq!(view.verify_checksum(), heap_copy(&bytes) == stored);
    }
}

/// RFC 1071 computed the slow, obviously-correct way: each 16-bit word is
/// added with an immediate end-around carry, one word at a time. The
/// production implementation defers carry folding; this reference is the
/// differential oracle for it.
fn reference_checksum(data: &[u8]) -> u16 {
    let mut sum: u16 = 0;
    let mut add = |word: u16| {
        let (s, carried) = sum.overflowing_add(word);
        sum = s + u16::from(carried);
    };
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        add(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        add(u16::from_be_bytes([*last, 0]));
    }
    !sum
}

/// Deterministic edge cases the random strategies may not always land on.
#[test]
fn checksum_edge_cases() {
    // Empty buffer: sum 0, complemented.
    assert_eq!(internet_checksum(&[]), 0xFFFF);
    // Single odd byte pads to a zero low byte.
    assert_eq!(internet_checksum(&[0x12]), !0x1200);
    // All-0xFF buffers of every parity up to a few KiB: each word sums to
    // 0xFFFF (one's-complement zero), the maximal-carry pattern. An odd
    // tail adds 0xFF00.
    for len in [1usize, 2, 3, 1499, 1500, 65535, 65536, 131072, 131073] {
        let data = vec![0xFFu8; len];
        assert_eq!(
            internet_checksum(&data),
            reference_checksum(&data),
            "all-0xFF len {len}"
        );
    }
    // The all-0xFF lengths again, at every start offset 0-7 of a larger
    // buffer, so the unaligned subslices a ring slot never sees are covered.
    for len in [1usize, 2, 3, 1499, 1500, 65535, 65536, 131072, 131073] {
        let data = vec![0xFFu8; len + 8];
        for off in 0..8 {
            let s = &data[off..off + len];
            assert_eq!(
                internet_checksum(s),
                reference_checksum(s),
                "all-0xFF len {len} at {off}"
            );
        }
    }
    // RFC 1071 §3 worked example: 00 01 f2 03 f4 f5 f6 f7 sums to ddf2
    // (before complement).
    let rfc = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
    assert_eq!(internet_checksum(&rfc), !0xddf2);
    assert_eq!(reference_checksum(&rfc), !0xddf2);
}

/// Deterministic differential at frame sizes: every length from 0 to one
/// past a netfront ring slot (2,048 B), at every start offset 0-7 into a
/// larger seeded-random buffer, against the bit-at-a-time reference.
#[test]
fn checksum_matches_reference_at_every_frame_size_and_offset() {
    const MAX_LEN: usize = 2049;
    // SplitMix64, so the buffer is the same on every run.
    let mut state: u64 = 0x1071_2015;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let buf: Vec<u8> = (0..MAX_LEN + 8).map(|_| next() as u8).collect();
    for off in 0..8 {
        for len in 0..=MAX_LEN {
            let s = &buf[off..off + len];
            assert_eq!(
                internet_checksum(s),
                reference_checksum(s),
                "len {len} at {off}"
            );
        }
    }
}
