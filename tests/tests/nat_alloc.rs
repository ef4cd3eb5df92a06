//! Black-box differential test of `IPNAT` against the two-map NAT it
//! replaced.
//!
//! The element keeps its mappings in one table (dense entries behind a
//! by-flow and a by-port index) and finds a free external port by
//! reading a port-occupancy bitmap. `RefNat` below is the element as it
//! was before either: a flow → mapping map, a port → flow map, and the
//! bounded probe loop — the flow's preferred port when free, else the
//! first free port among 64 consecutive candidates (wrapping
//! `u16::MAX → 1024`), else evict the preferred port's owner. Every
//! packet and every tick goes to both: the emitted `(iface, bytes)`,
//! `mappings()`, `evictions()` and `counters()` must agree after every
//! step, and at every phase boundary each live mapping is audited from
//! outside — a reply to its port must reach its owner, a reply to a free
//! port must not reach anyone.
//!
//! The element's private table cannot be seen from here (and `IpNat`
//! gains no accessor for it): the structural half of the invariant —
//! the bitmap's population equals the entry count and the occupied
//! slots of each index, and every entry is found from both of its keys
//! at its id — is asserted by the unit tests in
//! `crates/click/src/elements/nat.rs` and, in this debug-profile run, by
//! the `debug_assert`s in `bind`/`unbind`/`alloc_port` on every step.
//!
//! The `PINNED` constants were recorded from the commit *before* the
//! bitmap existed (c79ea1e), so those sequences are pinned to the old
//! allocator's output, not merely to the reference's. The generated
//! traces print their seed; their size is a count of operations.
//!
//! Seeded, virtual time only: no wall clock.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use innet::click::elements::IpNat;
use innet::click::{ConfigArgs, Context, Element, VecSink};
use innet::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const PUBLIC: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
const PORT_BASE: u16 = 1024;
const PORT_RANGE: u32 = u16::MAX as u32 - PORT_BASE as u32 + 1;
const PROBE_LIMIT: u32 = 64;
const TIMEOUT_NS: u64 = 60_000_000_000;

/// `(digest of everything emitted, mappings(), evictions(), counters())`.
type Pinned = (u64, usize, u64, (u64, u64, u64));

/// `IPNAT` over two plain maps and the probe loop, as it was before the
/// bitmap and the one-table rewrite.
#[derive(Default)]
struct RefNat {
    /// Inside flow → (external port, last packet's time).
    forward: HashMap<FlowKey, (u16, u64)>,
    /// External port → inside flow.
    reverse: HashMap<u16, FlowKey>,
    counters: (u64, u64, u64),
    evicted: u64,
}

impl RefNat {
    fn alloc_port(&mut self, key: &FlowKey) -> u16 {
        let preferred = IpNat::preferred_port(key);
        let mut p = preferred;
        for _ in 0..PROBE_LIMIT {
            if !self.reverse.contains_key(&p) {
                return p;
            }
            p = if p == u16::MAX { PORT_BASE } else { p + 1 };
        }
        let victim = self.reverse.remove(&preferred).expect("window is full");
        self.forward.remove(&victim);
        self.evicted += 1;
        preferred
    }

    fn set_l4_ports(pkt: &mut Packet, src: Option<u16>, dst: Option<u16>) {
        match pkt.ip_proto() {
            Ok(IpProto::Udp) => {
                if let Ok(mut u) = pkt.udp_mut() {
                    if let Some(s) = src {
                        u.set_src_port(s);
                    }
                    if let Some(d) = dst {
                        u.set_dst_port(d);
                    }
                }
            }
            Ok(IpProto::Tcp) => {
                if let Ok(mut t) = pkt.tcp_mut() {
                    if let Some(s) = src {
                        t.set_src_port(s);
                    }
                    if let Some(d) = dst {
                        t.set_dst_port(d);
                    }
                }
            }
            Ok(IpProto::Icmp) => {
                if let (Ok(mut i), Some(ident)) = (pkt.icmp_mut(), src.or(dst)) {
                    i.set_ident(ident);
                }
            }
            _ => {}
        }
    }

    /// What the element emits for `pkt` arriving on `iface` at `now`.
    fn push(&mut self, iface: usize, mut pkt: Packet, now: u64) -> Option<(usize, Packet)> {
        let Ok(key) = FlowKey::of(&pkt) else {
            self.counters.2 += 1;
            return None;
        };
        if iface == 0 {
            let port = match self.forward.get_mut(&key) {
                Some(m) => {
                    m.1 = now;
                    m.0
                }
                None => {
                    let p = self.alloc_port(&key);
                    self.forward.insert(key, (p, now));
                    self.reverse.insert(p, key);
                    p
                }
            };
            if let Ok(mut ip) = pkt.ipv4_mut() {
                ip.set_src(PUBLIC);
                ip.update_checksum();
            }
            RefNat::set_l4_ports(&mut pkt, Some(port), None);
            self.counters.0 += 1;
            return Some((0, pkt));
        }
        if pkt.ipv4().map(|ip| ip.dst()) != Ok(PUBLIC) {
            self.counters.2 += 1;
            return None;
        }
        let internal = self.reverse.get(&key.dst_port).copied().filter(|f| {
            (f.dst, f.proto) == (key.src, key.proto)
                && (f.dst_port == key.src_port || key.proto == IpProto::Icmp)
        });
        let Some(flow) = internal else {
            self.counters.2 += 1;
            return None;
        };
        self.forward.get_mut(&flow).expect("maps in lockstep").1 = now;
        if let Ok(mut ip) = pkt.ipv4_mut() {
            ip.set_dst(flow.src);
            ip.update_checksum();
        }
        RefNat::set_l4_ports(&mut pkt, None, Some(flow.src_port));
        self.counters.1 += 1;
        Some((1, pkt))
    }

    fn tick(&mut self, now: u64) {
        let reverse = &mut self.reverse;
        self.forward.retain(|_, m| {
            let live = now.saturating_sub(m.1) <= TIMEOUT_NS;
            if !live {
                reverse.remove(&m.0);
            }
            live
        });
    }
}

/// The element under test beside its reference, with a running digest
/// of everything the element emitted.
struct Harness {
    nat: IpNat,
    reference: RefNat,
    sink: VecSink,
    now: u64,
    digest: u64,
}

/// FNV-1a, continued over `bytes`.
fn fold(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest = (*digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn builder(proto: IpProto) -> PacketBuilder {
    match proto {
        IpProto::Tcp => PacketBuilder::tcp(),
        _ => PacketBuilder::udp(),
    }
}

/// A packet of `flow` as sent by its source: an echo request for ICMP
/// (whose ident is both of its "ports").
fn packet_of(flow: &FlowKey) -> Packet {
    match flow.proto {
        IpProto::Icmp => PacketBuilder::icmp_echo_request(flow.src_port, 1)
            .src_addr(flow.src)
            .dst_addr(flow.dst)
            .build(),
        IpProto::Tcp | IpProto::Udp => builder(flow.proto)
            .src(flow.src, flow.src_port)
            .dst(flow.dst, flow.dst_port)
            .build(),
        other => PacketBuilder::raw(other)
            .src_addr(flow.src)
            .dst_addr(flow.dst)
            .build(),
    }
}

/// A packet from `remote` to `PUBLIC:ext`: an echo reply carrying the
/// external ident for ICMP.
fn inbound_packet(proto: IpProto, remote: (Ipv4Addr, u16), ext: u16) -> Packet {
    let mut pkt = match proto {
        IpProto::Icmp => PacketBuilder::icmp_echo_reply(ext, 1)
            .src_addr(remote.0)
            .dst_addr(PUBLIC)
            .build(),
        _ => builder(proto)
            .src(remote.0, remote.1)
            .dst(PUBLIC, ext)
            .build(),
    };
    pkt.meta.ingress = 1;
    pkt
}

impl Harness {
    fn new() -> Harness {
        let args = ConfigArgs::parse("IPNAT", "203.0.113.1, timeout 60");
        Harness {
            nat: IpNat::from_args(&args).expect("valid IPNAT arguments"),
            reference: RefNat::default(),
            sink: VecSink::new(),
            now: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Folds what the element just emitted into the digest and returns
    /// it (at most one packet per push).
    fn emitted(&mut self) -> Option<(usize, Packet)> {
        assert!(self.sink.pushed.len() <= 1);
        let got = self.sink.pushed.pop();
        match &got {
            Some((port, pkt)) => {
                fold(&mut self.digest, &[*port as u8]);
                fold(&mut self.digest, pkt.bytes());
            }
            None => fold(&mut self.digest, &[0xff]),
        }
        got
    }

    /// What can be seen from outside must agree after every step.
    fn agree(&self) {
        assert_eq!(self.nat.mappings(), self.reference.forward.len());
        assert_eq!(self.nat.mappings(), self.reference.reverse.len());
        assert_eq!(self.nat.evictions(), self.reference.evicted);
        assert_eq!(self.nat.counters(), self.reference.counters);
    }

    /// Pushes `pkt` into both NATs on `iface`; their outputs must be
    /// the same interface and the same bytes.
    fn step(&mut self, iface: usize, pkt: Packet, step_ns: u64) -> Option<(usize, Packet)> {
        self.now += step_ns;
        let want = self.reference.push(iface, pkt.clone(), self.now);
        self.nat
            .push(iface, pkt, &Context::at(self.now), &mut self.sink);
        let got = self.emitted();
        let view = |o: &Option<(usize, Packet)>| o.as_ref().map(|(i, p)| (*i, p.bytes().to_vec()));
        assert_eq!(view(&got), view(&want), "push on {iface} at {}", self.now);
        self.agree();
        got
    }

    fn outbound(&mut self, key: FlowKey, step_ns: u64) -> u16 {
        let (port, out) = self
            .step(0, packet_of(&key), step_ns)
            .expect("outbound is always translated");
        let got = FlowKey::of(&out).expect("translated packet parses");
        let want = self.reference.forward[&key].0;
        assert_eq!(port, 0);
        assert_eq!((got.src, got.src_port), (PUBLIC, want), "{key}");
        if key.proto != IpProto::Icmp {
            assert_eq!((got.dst, got.dst_port), (key.dst, key.dst_port));
        }
        want
    }

    fn inbound(&mut self, proto: IpProto, remote: (Ipv4Addr, u16), ext: u16, step_ns: u64) {
        let owner = self.reference.reverse.get(&ext).copied();
        let got = self
            .step(1, inbound_packet(proto, remote, ext), step_ns)
            .map(|(port, out)| {
                assert_eq!(port, 1);
                let k = FlowKey::of(&out).expect("translated packet parses");
                (k.dst, k.dst_port)
            });
        if let Some((addr, port)) = got {
            let owner = owner.expect("only a mapped port is translated");
            assert_eq!((addr, port), (owner.src, owner.src_port), "reply to {ext}");
        }
    }

    /// A reply to a live flow from its own remote endpoint.
    fn reply(&mut self, flow: FlowKey, step_ns: u64) {
        // The flow may have been evicted or reaped since: then the reply
        // goes to whatever port it last held, and both sides must drop
        // or deliver it alike.
        let ext = self
            .reference
            .forward
            .get(&flow)
            .map_or_else(|| IpNat::preferred_port(&flow), |m| m.0);
        self.inbound(flow.proto, (flow.dst, flow.dst_port), ext, step_ns);
    }

    fn tick(&mut self, at: u64) {
        self.now = self.now.max(at);
        self.nat.tick(&Context::at(self.now), &mut self.sink);
        assert!(self.sink.pushed.is_empty(), "tick emits nothing");
        self.reference.tick(self.now);
        self.agree();
    }

    /// Every live mapping's port is owned by that flow, and a port the
    /// reference holds free is free in the element too.
    fn audit(&mut self) {
        let mut live: Vec<(u16, FlowKey)> = self
            .reference
            .reverse
            .iter()
            .map(|(p, f)| (*p, *f))
            .collect();
        live.sort_unstable_by_key(|(p, _)| *p);
        let before = self.reference.counters.1;
        for (port, flow) in &live {
            assert_eq!(self.reference.forward[flow].0, *port);
            self.inbound(flow.proto, (flow.dst, flow.dst_port), *port, 0);
        }
        // An SCTP mapping has no port a reply could carry.
        let answerable = live.iter().filter(|(_, f)| f.proto != IpProto::Sctp);
        assert_eq!(
            self.reference.counters.1 - before,
            answerable.count() as u64
        );
        let before = self.reference.counters.2;
        let free: Vec<u16> = (PORT_BASE..=u16::MAX)
            .filter(|p| !self.reference.reverse.contains_key(p))
            .step_by(17)
            .take(512)
            .collect();
        for port in &free {
            self.inbound(IpProto::Udp, (Ipv4Addr::new(198, 51, 100, 1), 53), *port, 0);
        }
        assert_eq!(self.reference.counters.2 - before, free.len() as u64);
    }

    fn pinned(&self) -> Pinned {
        (
            self.digest,
            self.nat.mappings(),
            self.nat.evictions(),
            self.nat.counters(),
        )
    }
}

/// The `i`-th distinct flow: the counter is spread over the source
/// address, everything else is drawn.
fn fresh_flow(rng: &mut StdRng, i: usize) -> FlowKey {
    FlowKey {
        src: Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8),
        dst: Ipv4Addr::new(198, 51, 100, rng.gen_range(1..=250)),
        proto: if rng.gen_bool(0.25) {
            IpProto::Tcp
        } else {
            IpProto::Udp
        },
        src_port: rng.gen_range(1024..=u16::MAX),
        dst_port: [53, 80, 443][rng.gen_range(0..3usize)],
    }
}

/// `n` distinct flows whose preferred ports all fall in the 64-port
/// window starting at `base`.
fn crowd(rng: &mut StdRng, base: u16, n: usize) -> Vec<FlowKey> {
    let mut found = Vec::new();
    let mut i = 0;
    while found.len() < n {
        let flow = fresh_flow(rng, i);
        i += 1;
        let p = IpNat::preferred_port(&flow);
        if (u32::from(p) + PORT_RANGE - u32::from(base)) % PORT_RANGE < PROBE_LIMIT {
            found.push(flow);
        }
    }
    found
}

#[test]
fn port_space_fills_evicts_and_expires_like_the_probe_loop() {
    const PINNED: Pinned = (
        13_682_868_935_968_696_486,
        24_996,
        9_384,
        (121_010, 128_468, 2_493),
    );
    let mut rng = StdRng::seed_from_u64(20);
    let mut h = Harness::new();
    let mut flows: Vec<FlowKey> = Vec::new();
    // 72,000 distinct flows in 36 virtual seconds (inside the 60 s
    // timeout): the 64,512 ports fill and the tail evicts. One step in
    // four is a reply or a repeat packet of a recent flow.
    for i in 0..72_000 {
        let flow = fresh_flow(&mut rng, i);
        h.outbound(flow, 500_000);
        flows.push(flow);
        if i % 4 == 3 {
            let recent = flows[flows.len() - 1 - rng.gen_range(0..flows.len().min(4_096))];
            if rng.gen_bool(0.5) {
                h.reply(recent, 0);
            } else {
                h.outbound(recent, 0);
            }
        }
    }
    assert!(h.nat.evictions() > 1_000, "the port space must overflow");
    assert!(h.nat.mappings() > 64_000, "the port space must fill");
    h.audit();
    // The audit refreshed every mapping at t = 36 s. Touch a third of
    // the flows over the next 36 s, then reap at t = 100 s: what was
    // last touched before t = 40 s goes, the rest stays.
    for (i, flow) in flows.iter().enumerate().filter(|(i, _)| i % 3 == 0) {
        if i % 2 == 0 {
            h.outbound(*flow, 1_500_000);
        } else {
            h.reply(*flow, 1_500_000);
        }
    }
    h.tick(100_000_000_000);
    let survivors = h.nat.mappings();
    assert!(survivors > 10_000 && survivors < 40_000, "{survivors}");
    h.audit();
    // Freed ports are handed out again: new flows over 28 s, with ticks
    // that reap the survivors as their minute runs out, then one that
    // reaps every remaining survivor and the oldest of the new flows.
    for i in 72_000..100_000 {
        let flow = fresh_flow(&mut rng, i);
        h.outbound(flow, 1_000_000);
        if i % 8_192 == 0 {
            h.tick(0);
        }
    }
    h.tick(h.now + 35_000_000_000);
    h.audit();
    assert_eq!(h.pinned(), PINNED);
}

#[test]
fn crowded_window_evicts_its_preferred_owners() {
    const PINNED: Pinned = (4_066_894_150_285_061_470, 116, 164, (400, 331, 1_547));
    let mut rng = StdRng::seed_from_u64(21);
    let mut h = Harness::new();
    // 200 flows that all prefer a port in 30000..30064: the first ones
    // fill the window (and spill at most 63 ports past it), later ones
    // find their own 64 candidates taken and evict.
    let flows = crowd(&mut rng, 30_000, 200);
    for (i, flow) in flows.iter().enumerate() {
        h.outbound(*flow, 1_000_000);
        if i % 3 == 2 {
            h.reply(flows[rng.gen_range(0..=i)], 1_000);
        }
        if i % 50 == 49 {
            h.tick(0);
        }
    }
    assert!(h.nat.evictions() > 0, "a crowded window must evict");
    h.audit();
    // Let the first half idle out, then crowd the same window again.
    for flow in &flows[100..] {
        h.outbound(*flow, 100_000_000);
    }
    h.tick(h.now + 55_000_000_000);
    h.audit();
    for flow in &flows[..100] {
        h.outbound(*flow, 1_000_000);
    }
    h.audit();
    assert_eq!(h.pinned(), PINNED);
}

#[test]
fn window_that_wraps_past_port_max_matches_the_probe_loop() {
    const PINNED: Pinned = (18_287_783_066_163_992_196, 112, 98, (320, 408, 1_568));
    let mut rng = StdRng::seed_from_u64(22);
    let mut h = Harness::new();
    // Preferred ports within 40 of u16::MAX: most of each flow's window
    // lies on the far side of the u16::MAX → 1024 wrap.
    let flows = crowd(&mut rng, u16::MAX - 39, 160);
    let mut wrapped = 0;
    for (i, flow) in flows.iter().enumerate() {
        let port = h.outbound(*flow, 1_000_000);
        wrapped += usize::from(port < IpNat::preferred_port(flow));
        if i % 2 == 1 {
            h.reply(flows[rng.gen_range(0..=i)], 1_000);
        }
    }
    assert!(wrapped > 20, "allocations must land past the wrap");
    assert!(h.nat.evictions() > 0);
    h.audit();
    h.tick(h.now + 30_000_000_000);
    for flow in flows.iter().step_by(2) {
        h.reply(*flow, 1_000_000);
    }
    h.tick(h.now + 31_000_000_000);
    h.audit();
    for flow in flows.iter().rev() {
        h.outbound(*flow, 1_000_000);
    }
    h.audit();
    assert_eq!(h.pinned(), PINNED);
}

/// The shape of a generated trace: of a hundred operations, `open`
/// open a connection (`crowd` in a hundred of those with a flow of the
/// crowd) and `tick` reap, up to 45 s ahead or just as a flow times
/// out; every operation but a tick first advances time by up to
/// `step_ns`.
struct Mix {
    open: u32,
    crowd: u32,
    tick: u32,
    step_ns: u64,
}

/// Generated traces: a flow pool of UDP, TCP and ICMP echo flows, a
/// crowd of them preferring one 64-port window so that it evicts, and a
/// mix of every kind of packet the NAT must treat alike to the reference.
struct Generator {
    rng: StdRng,
    flows: Vec<FlowKey>,
    crowd: Vec<FlowKey>,
    opened: usize,
}

impl Generator {
    fn new(seed: u64) -> Generator {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = rng.gen_range(PORT_BASE..=u16::MAX);
        let mut crowd = Vec::new();
        for i in 1_000_000.. {
            let flow = Generator::any_flow(&mut rng, i);
            let at = (u32::from(IpNat::preferred_port(&flow)) + PORT_RANGE - u32::from(base))
                % PORT_RANGE;
            if at < PROBE_LIMIT {
                crowd.push(flow);
            }
            if crowd.len() == 160 {
                break;
            }
        }
        Generator {
            rng,
            flows: Vec::new(),
            crowd,
            opened: 0,
        }
    }

    /// The `i`-th distinct flow, one in five an echo (whose ident is
    /// both of its ports).
    fn any_flow(rng: &mut StdRng, i: usize) -> FlowKey {
        let mut flow = fresh_flow(rng, i);
        if rng.gen_bool(0.2) {
            flow.proto = IpProto::Icmp;
            flow.dst_port = flow.src_port;
        }
        flow
    }

    /// One of the 4,096 most recently opened flows.
    fn recent(&mut self) -> FlowKey {
        let n = self.flows.len();
        self.flows[n - 1 - self.rng.gen_range(0..n.min(4_096))]
    }

    /// A UDP packet to a drawn public port, made unreadable to
    /// `FlowKey::of` by a non-IPv4 ethertype or a UDP header cut short.
    fn garbage(&mut self) -> Packet {
        let mut pkt = PacketBuilder::udp()
            .src(Ipv4Addr::new(198, 51, 100, 7), 53)
            .dst(PUBLIC, self.rng.gen_range(PORT_BASE..=u16::MAX))
            .build();
        if self.rng.gen_bool(0.5) {
            pkt.bytes_mut()[12..14].copy_from_slice(&[0x08, 0x06]); // ARP
            pkt
        } else {
            Packet::from_bytes(&pkt.bytes()[..14 + 20 + 4])
        }
    }

    /// Runs `ops` generated operations through `h`, shaped by `mix`.
    /// Those that neither open nor tick repeat a recent flow, answer it
    /// from its remote or from a wrong one, come from strangers, are
    /// addressed to someone else, are not IPv4 flows, or carry no ports
    /// (SCTP).
    fn run(&mut self, h: &mut Harness, ops: usize, mix: &Mix) {
        for _ in 0..ops {
            let dt = self.rng.gen_range(0..=mix.step_ns);
            let r = self.rng.gen_range(0..100u32);
            if r < mix.open || self.flows.is_empty() {
                let flow = if self.rng.gen_range(0..100u32) < mix.crowd {
                    self.crowd[self.opened % self.crowd.len()]
                } else {
                    Generator::any_flow(&mut self.rng, self.opened)
                };
                self.opened += 1;
                h.outbound(flow, dt);
                self.flows.push(flow);
                continue;
            }
            if r < mix.open + mix.tick {
                // A third of the ticks land on the instant a recent flow's
                // idle time reaches the timeout, or 1 ns past it.
                let flow = self.recent();
                let at = match h.reference.forward.get(&flow) {
                    Some(m) if self.rng.gen_range(0..3) == 0 => {
                        m.1 + TIMEOUT_NS + self.rng.gen_range(0..=1u64)
                    }
                    _ => h.now + self.rng.gen_range(0..=45_000_000_000u64),
                };
                h.tick(at);
                continue;
            }
            match self.rng.gen_range(0..10) {
                0 | 1 => {
                    let flow = self.recent();
                    h.outbound(flow, dt);
                }
                2..=4 => {
                    let flow = self.recent();
                    h.reply(flow, dt);
                }
                5 => {
                    // The right port, answered by someone else: another
                    // address, another port, or another protocol.
                    let flow = self.recent();
                    let ext = h
                        .reference
                        .forward
                        .get(&flow)
                        .map_or_else(|| IpNat::preferred_port(&flow), |m| m.0);
                    let (mut proto, mut remote) = (flow.proto, (flow.dst, flow.dst_port));
                    match self.rng.gen_range(0..3) {
                        0 => remote.0 = Ipv4Addr::new(192, 0, 2, self.rng.gen()),
                        1 => remote.1 = remote.1.wrapping_add(self.rng.gen_range(1..=u16::MAX)),
                        _ => {
                            proto = [IpProto::Udp, IpProto::Tcp, IpProto::Icmp]
                                [self.rng.gen_range(0..3usize)]
                        }
                    }
                    h.inbound(proto, remote, ext, dt);
                }
                6 => {
                    let remote = (Ipv4Addr::new(192, 0, 2, self.rng.gen()), 53);
                    let ext = self.rng.gen_range(0..=u16::MAX);
                    h.inbound(IpProto::Udp, remote, ext, dt);
                }
                7 => {
                    let mut pkt = PacketBuilder::udp()
                        .src(Ipv4Addr::new(198, 51, 100, 9), 53)
                        .dst(Ipv4Addr::new(203, 0, 113, 2), self.rng.gen())
                        .build();
                    pkt.meta.ingress = 1;
                    h.step(1, pkt, dt);
                }
                8 => {
                    let pkt = self.garbage();
                    h.step(self.rng.gen_range(0..2), pkt, dt);
                }
                _ => {
                    // SCTP: a flow without ports, translated by address
                    // alone outbound and never matched inbound.
                    let mut flow = self.recent();
                    flow.proto = IpProto::Sctp;
                    let (iface, pkt) = if self.rng.gen_bool(0.5) {
                        (0, packet_of(&flow))
                    } else {
                        let reply = PacketBuilder::raw(IpProto::Sctp)
                            .src_addr(flow.dst)
                            .dst_addr(PUBLIC)
                            .build();
                        (1, reply)
                    };
                    h.step(iface, pkt, dt);
                }
            }
        }
    }
}

#[test]
fn generated_traces_match_the_two_map_nat() {
    for seed in 100..106 {
        println!("nat_alloc generated trace: seed {seed}");
        let mut h = Harness::new();
        let mut gen = Generator::new(seed);
        // No tick while the crowd fills its window past evicting...
        let crowding = Mix {
            open: 40,
            crowd: 50,
            tick: 0,
            step_ns: 2_000_000,
        };
        gen.run(&mut h, 3_000, &crowding);
        assert!(h.nat.evictions() > 0, "seed {seed}: the crowd must evict");
        h.audit();
        // ...then ticks at generated instants reap what idles.
        let ageing = Mix {
            open: 30,
            crowd: 10,
            tick: 1,
            step_ns: 2_000_000,
        };
        gen.run(&mut h, 3_000, &ageing);
        h.audit();
        println!(
            "  6,000 operations: {} live, {} evictions",
            h.nat.mappings(),
            h.nat.evictions()
        );
    }
}

#[test]
fn generated_trace_through_a_full_port_space() {
    let seed = 200;
    println!("nat_alloc generated trace: seed {seed}");
    let mut h = Harness::new();
    let mut gen = Generator::new(seed);
    // 100,000 operations in about 30 virtual seconds, 85 in a hundred
    // of them openers and no tick: the 64,512 ports fill and openers
    // evict.
    let filling = Mix {
        open: 85,
        crowd: 10,
        tick: 0,
        step_ns: 600_000,
    };
    gen.run(&mut h, 100_000, &filling);
    println!(
        "  100,000 operations: {} live, {} evictions",
        h.nat.mappings(),
        h.nat.evictions()
    );
    assert!(h.nat.mappings() > 64_000, "the port space must fill");
    assert!(h.nat.evictions() > 1_000, "the port space must overflow");
    h.audit();
    // Then ticks at generated instants reap the full table as it ages.
    let ageing = Mix {
        open: 30,
        crowd: 10,
        tick: 2,
        step_ns: 2_000_000,
    };
    gen.run(&mut h, 10_000, &ageing);
    h.audit();
}
