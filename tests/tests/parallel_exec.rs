//! Differential tests for flow-sharded parallel execution: at every
//! worker count from two up, on either engine, the `ParallelRunner` must
//! produce, per flow, exactly the byte sequence its one-worker in-thread
//! path produces on the interpreter — sharding is an implementation
//! detail, not a semantic change.
//!
//! That contract now covers *stateful* (flow-partitionable)
//! configurations too: a NAT gateway and a stateful firewall are driven
//! with interleaved forward and reverse traffic, where correctness
//! depends on the symmetric partition hash pinning both directions of
//! every connection to the same replica.
//!
//! Also property-checks the partition invariants the guarantees rest on:
//! the directed flow hash never splits one 5-tuple across workers, and
//! the symmetric hash maps a flow and its reverse to the same shard.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use innet::click::elements::IpNat;
use innet::platform::{consolidated_config, nat_gateway_config, stateful_firewall_config};
use innet::prelude::*;
use proptest::prelude::*;

/// A reproducible multi-flow trace: `flows` distinct UDP 5-tuples,
/// `n` packets round-robined across them, payload lengths varied so
/// byte-level comparison is meaningful.
fn multi_flow_trace(n: usize, flows: usize, clients: &[Ipv4Addr]) -> Vec<Packet> {
    (0..n)
        .map(|i| {
            let f = i % flows;
            PacketBuilder::udp()
                .src(
                    Ipv4Addr::new(8, 8, (f / 200) as u8, (f % 200) as u8 + 1),
                    (4000 + f % 1000) as u16,
                )
                .dst(clients[f % clients.len()], 80)
                .pad_to(64 + (i % 7) * 16)
                .build()
        })
        .collect()
}

/// Groups transmitted packets per flow, preserving relative order. The
/// configurations used here never rewrite the 5-tuple, so the output
/// flow key is the input flow key.
fn by_flow(out: &[(u16, Packet)]) -> BTreeMap<String, Vec<(u16, Vec<u8>)>> {
    let mut groups: BTreeMap<String, Vec<(u16, Vec<u8>)>> = BTreeMap::new();
    for (egress, pkt) in out {
        let key = FlowKey::of(pkt)
            .expect("udp traffic has a flow key")
            .to_string();
        groups
            .entry(key)
            .or_default()
            .push((*egress, pkt.bytes().to_vec()));
    }
    groups
}

/// The differential contract: the runner must report `verdict`, fan
/// out to the requested worker count, and — at 2/4/8 workers on both
/// engines — produce per-flow byte- and order-identical output to the
/// one-worker reference, which runs the interpreter in the calling
/// thread over the whole trace, unpartitioned.
fn assert_sharded_matches_one_worker(
    cfg: &ClickConfig,
    trace: &[Packet],
    batch: usize,
    verdict: Shardability,
) {
    let mut one = RunnerConfig::new().parallel(cfg).unwrap();
    assert_eq!(one.effective_workers(), 1);
    let (one_stats, one_out) = one.run_collect(trace, 1);
    assert_eq!(
        one_stats.transmitted,
        trace.len() as u64,
        "reference forwards the whole trace"
    );
    let reference = by_flow(&one_out);

    for compiled in [false, true] {
        for workers in [2usize, 4, 8] {
            let mut sharded = RunnerConfig::new()
                .workers(workers)
                .batch(batch)
                .compiled(compiled)
                .parallel(cfg)
                .unwrap();
            let what = format!("{workers} workers, compiled {compiled}");
            assert_eq!(sharded.shardability(), verdict, "{what}");
            assert_eq!(sharded.effective_workers(), workers, "{what}");
            let (stats, out) = sharded.run_collect(trace, 1);
            assert_eq!(stats.transmitted, one_stats.transmitted, "{what}");
            assert_eq!(stats.dropped, 0, "{what}");
            // Per flow: byte-identical packets, in identical order, out
            // the identical egress ports.
            assert_eq!(by_flow(&out), reference, "{what}");
        }
    }
}

#[test]
fn sharded_output_matches_one_worker_per_flow() {
    let clients: Vec<Ipv4Addr> = (0..16).map(|i| Ipv4Addr::new(203, 0, 113, 1 + i)).collect();
    let cfg = consolidated_config(&clients);
    let trace = multi_flow_trace(10_000, 64, &clients);
    assert_sharded_matches_one_worker(&cfg, &trace, 32, Shardability::Stateless);
}

/// The public address the NAT gateway hides the inside network behind.
const PUBLIC: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);

/// One bidirectional UDP connection: an inside host behind interface 0
/// talking to an outside server behind interface 1.
#[derive(Clone, Copy)]
struct Conn {
    inside: Ipv4Addr,
    sport: u16,
    remote: Ipv4Addr,
    rport: u16,
}

fn forward_key(conn: &Conn) -> FlowKey {
    FlowKey {
        src: conn.inside,
        dst: conn.remote,
        proto: IpProto::Udp,
        src_port: conn.sport,
        dst_port: conn.rport,
    }
}

/// Generates `n` distinct connections whose NAT preferred ports do not
/// collide. The NAT allocates public ports as a pure hash of the flow
/// key, so a collision-free corpus gets identical allocations from the
/// one NAT (one-worker reference) and from the per-replica NATs
/// (sharded run) — which is what makes byte-level comparison valid.
fn connections(n: usize) -> Vec<Conn> {
    let mut conns: Vec<Conn> = Vec::new();
    let mut used_ports = std::collections::BTreeSet::new();
    let mut c = 0usize;
    while conns.len() < n {
        let conn = Conn {
            inside: Ipv4Addr::new(10, 0, (c / 200) as u8, (c % 200) as u8 + 1),
            sport: 5000 + (c % 20000) as u16,
            remote: Ipv4Addr::new(198, 51, (100 + c / 250) as u8, (c % 250) as u8 + 1),
            rport: 53 + (c % 5) as u16,
        };
        c += 1;
        if used_ports.insert(IpNat::preferred_port(&forward_key(&conn))) {
            conns.push(conn);
        }
    }
    conns
}

/// An interleaved bidirectional trace over `conns`: round 0 opens every
/// connection outbound (ingress 0), later rounds mix forward packets
/// with replies arriving on the outside interface (ingress 1). For the
/// NAT gateway (`nat = true`), replies target the public address at the
/// connection's deterministic mapped port; for the firewall they target
/// the inside host directly.
fn stateful_trace(conns: &[Conn], rounds: usize, nat: bool) -> Vec<Packet> {
    let mut trace = Vec::new();
    for r in 0..rounds {
        for (c, conn) in conns.iter().enumerate() {
            let reverse = r > 0 && (r + c) % 2 == 1;
            let pad = 64 + ((r + c) % 7) * 16;
            if !reverse {
                trace.push(
                    PacketBuilder::udp()
                        .src(conn.inside, conn.sport)
                        .dst(conn.remote, conn.rport)
                        .pad_to(pad)
                        .build(),
                );
            } else {
                let (dst, dport) = if nat {
                    (PUBLIC, IpNat::preferred_port(&forward_key(conn)))
                } else {
                    (conn.inside, conn.sport)
                };
                let mut pkt = PacketBuilder::udp()
                    .src(conn.remote, conn.rport)
                    .dst(dst, dport)
                    .pad_to(pad)
                    .build();
                pkt.meta.ingress = 1;
                trace.push(pkt);
            }
        }
    }
    trace
}

#[test]
fn sharded_nat_matches_one_worker_per_flow() {
    // Replies enter on the outside interface addressed to the public IP;
    // only the symmetric hash lands them on the replica holding the
    // mapping. Output keys are the *rewritten* flows, identical on both
    // sides because port allocation is a pure function of the flow key.
    let conns = connections(48);
    let trace = stateful_trace(&conns, 8, true);
    let cfg = nat_gateway_config(PUBLIC);
    assert_sharded_matches_one_worker(&cfg, &trace, 16, Shardability::FlowPartitionable);
}

#[test]
fn sharded_nat_pings_match_one_worker_per_flow() {
    // An echo's identifier is the "port" the NAT rewrites, both ways:
    // the ping leaves with the external ident and the reply carries it
    // back, so the partition must pin the pair by remote address alone.
    // The reference forwarding the whole trace is the proof that every
    // reply found its mapping.
    let mut used_idents = std::collections::BTreeSet::new();
    let pings: Vec<(Ipv4Addr, u16, Ipv4Addr)> = (0..200usize)
        .map(|c| {
            let inside = Ipv4Addr::new(10, 0, 1, c as u8 + 1);
            let remote = Ipv4Addr::new(198, 51, 100, (c % 250) as u8 + 1);
            (inside, 7 + c as u16, remote)
        })
        .filter(|&(inside, ident, remote)| used_idents.insert(ext_ident(inside, ident, remote)))
        .take(48)
        .collect();
    let mut trace = Vec::new();
    for seq in 0..6u16 {
        for (c, &(inside, ident, remote)) in pings.iter().enumerate() {
            let pad = 64 + ((seq as usize + c) % 5) * 16;
            if seq > 0 && (seq as usize + c) % 2 == 1 {
                let mut pong =
                    PacketBuilder::icmp_echo_reply(ext_ident(inside, ident, remote), seq)
                        .src_addr(remote)
                        .dst_addr(PUBLIC)
                        .pad_to(pad)
                        .build();
                pong.meta.ingress = 1;
                trace.push(pong);
            } else {
                trace.push(
                    PacketBuilder::icmp_echo_request(ident, seq)
                        .src_addr(inside)
                        .dst_addr(remote)
                        .pad_to(pad)
                        .build(),
                );
            }
        }
    }
    let cfg = nat_gateway_config(PUBLIC);
    assert_sharded_matches_one_worker(&cfg, &trace, 16, Shardability::FlowPartitionable);
}

/// The external identifier the NAT gives the echo flow `inside → remote`.
fn ext_ident(inside: Ipv4Addr, ident: u16, remote: Ipv4Addr) -> u16 {
    IpNat::preferred_port(&FlowKey {
        src: inside,
        dst: remote,
        proto: IpProto::Icmp,
        src_port: ident,
        dst_port: ident,
    })
}

#[test]
fn sharded_stateful_firewall_matches_one_worker_per_flow() {
    // Unrelated inbound drops and related inbound passes — both facts
    // must survive sharding, which they only do when each connection's
    // conntrack entry lives on the replica its replies hash to.
    let conns = connections(48);
    let trace = stateful_trace(&conns, 8, false);
    let cfg = stateful_firewall_config();
    assert_sharded_matches_one_worker(&cfg, &trace, 16, Shardability::FlowPartitionable);
}

#[test]
fn global_config_runs_single_worker() {
    // A queue shares timing and occupancy state across every flow:
    // replicating it would change drop and ordering behavior, so the
    // registry verdict is Global and the runner degrades to one worker.
    let cfg = ClickConfig::parse("FromNetfront() -> Queue(16) -> ToNetfront();").unwrap();
    let runner = RunnerConfig::new().workers(8).parallel(&cfg).unwrap();
    assert_eq!(runner.shardability(), Shardability::Global);
    assert_eq!(runner.effective_workers(), 1);
    assert_eq!(runner.requested_workers(), 8);

    // A round-robin switch schedules across flows: also Global, and it
    // still forwards correctly on its single worker.
    let rr = ClickConfig::parse(
        "FromNetfront() -> rr :: RoundRobinSwitch(2); \
         rr[0] -> ToNetfront(); rr[1] -> ToNetfront(1);",
    )
    .unwrap();
    let mut runner = RunnerConfig::new().workers(8).parallel(&rr).unwrap();
    assert_eq!(runner.shardability(), Shardability::Global);
    assert_eq!(runner.effective_workers(), 1);
    let pkts: Vec<Packet> = (0..100)
        .map(|i| {
            PacketBuilder::udp()
                .src(Ipv4Addr::new(10, 0, 0, (i % 9) as u8 + 1), 5000 + i as u16)
                .dst(Ipv4Addr::new(198, 51, 100, 7), 53)
                .build()
        })
        .collect();
    let (stats, out) = runner.run_collect(&pkts, 1);
    assert_eq!(stats.workers, 1);
    assert_eq!(stats.transmitted, 100);

    // Degrading to one worker means *being* the one-worker runner: no
    // partition splits the trace into shares, so the output is
    // byte- and order-identical, not merely per flow.
    let mut one = RunnerConfig::new().parallel(&rr).unwrap();
    let (_, want) = one.run_collect(&pkts, 1);
    let bytes = |out: &[(u16, Packet)]| -> Vec<(u16, Vec<u8>)> {
        out.iter().map(|(e, p)| (*e, p.bytes().to_vec())).collect()
    };
    assert_eq!(bytes(&out), bytes(&want));
}

#[test]
fn batch_size_does_not_change_results() {
    let clients: Vec<Ipv4Addr> = (0..4).map(|i| Ipv4Addr::new(203, 0, 113, 1 + i)).collect();
    let cfg = consolidated_config(&clients);
    let trace = multi_flow_trace(1_000, 17, &clients);
    let mut reference = RunnerConfig::new().parallel(&cfg).unwrap();
    let (_, one_out) = reference.run_collect(&trace, 1);
    let want = by_flow(&one_out);
    for batch in [1usize, 32, 256] {
        let mut runner = RunnerConfig::new()
            .workers(4)
            .batch(batch)
            .parallel(&cfg)
            .unwrap();
        let (_, out) = runner.run_collect(&trace, 1);
        assert_eq!(by_flow(&out), want, "batch {batch}");
    }
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        any::<bool>(),
    )
        .prop_map(|(src, dst, sport, dport, is_tcp)| {
            let b = if is_tcp {
                PacketBuilder::tcp()
            } else {
                PacketBuilder::udp()
            };
            b.src(Ipv4Addr::from(src), sport)
                .dst(Ipv4Addr::from(dst), dport)
                .build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The partition invariant behind the ordering guarantee: for any
    /// packet and worker count, every packet of one directed 5-tuple
    /// lands on exactly one worker.
    #[test]
    fn dispatcher_never_splits_a_flow(
        pkt in arb_packet(),
        workers in 1usize..=16,
    ) {
        let key = FlowKey::of(&pkt).unwrap();
        let shard = FlowKey::shard_of(&pkt, workers);
        prop_assert!(shard < workers);
        // Same 5-tuple, different packet contents: same shard.
        let sibling = PacketBuilder::udp()
            .src(key.src, key.src_port)
            .dst(key.dst, key.dst_port)
            .pad_to(900)
            .build();
        if key.proto == IpProto::Udp {
            prop_assert_eq!(FlowKey::shard_of(&sibling, workers), shard);
        }
        // The shard is a pure function of the key.
        prop_assert_eq!(key.shard(workers), shard);
        prop_assert_eq!(key.shard(workers), key.shard(workers));
    }

    /// The symmetric-partition invariant behind stateful sharding: a flow
    /// sent outbound and its reply arriving inbound land on the same
    /// shard — even when NAT has rewritten the reply's destination to
    /// an arbitrary public endpoint, because the hash keys only on the
    /// remote endpoint, which source NAT never touches.
    #[test]
    fn symmetric_hash_pins_flow_and_reverse(
        pkt in arb_packet(),
        nat_addr in any::<u32>(),
        nat_port in any::<u16>(),
        workers in 1usize..=16,
    ) {
        let key = FlowKey::of(&pkt).unwrap();
        let fwd = FlowKey::symmetric_shard_of(&pkt, workers);
        prop_assert!(fwd < workers);
        // Pure function of key + direction (the packet enters on the
        // inside interface, ingress 0 = outbound).
        prop_assert_eq!(key.symmetric_shard(false, workers), fwd);
        if key.proto == IpProto::Udp {
            // The un-NATted reply simply reverses the tuple.
            let mut reply = PacketBuilder::udp()
                .src(key.dst, key.dst_port)
                .dst(key.src, key.src_port)
                .build();
            reply.meta.ingress = 1;
            prop_assert_eq!(FlowKey::symmetric_shard_of(&reply, workers), fwd);
            // The NATted reply targets whatever public endpoint the
            // translator picked; the shard must not change.
            let mut natted = PacketBuilder::udp()
                .src(key.dst, key.dst_port)
                .dst(Ipv4Addr::from(nat_addr), nat_port)
                .build();
            natted.meta.ingress = 1;
            prop_assert_eq!(FlowKey::symmetric_shard_of(&natted, workers), fwd);
        }
        // A ping's "port" is its identifier, which the NAT *does*
        // rewrite: the reply carries the external ident, and must still
        // land where the request did.
        let ping = PacketBuilder::icmp_echo_request(key.src_port, 1)
            .src_addr(key.src)
            .dst_addr(key.dst)
            .build();
        let mut pong = PacketBuilder::icmp_echo_reply(nat_port, 1)
            .src_addr(key.dst)
            .dst_addr(Ipv4Addr::from(nat_addr))
            .build();
        pong.meta.ingress = 1;
        prop_assert_eq!(
            FlowKey::symmetric_shard_of(&pong, workers),
            FlowKey::symmetric_shard_of(&ping, workers)
        );
    }
}
