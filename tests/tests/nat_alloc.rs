//! Black-box differential test of `IPNAT`'s port allocator.
//!
//! The element finds a free external port by reading a port-occupancy
//! bitmap; the rule it must implement is the bounded probe it replaced:
//! the flow's preferred port when free, else the first free port among
//! 64 consecutive candidates (wrapping `u16::MAX → 1024`), else evict
//! the preferred port's owner. `Shadow` below *is* that rule, written
//! over two plain maps, and every packet pushed through the element is
//! also pushed through the shadow: the emitted bytes, `mappings()`,
//! `evictions()` and `counters()` must agree after every step, and at
//! every phase boundary each live mapping is audited from outside — a
//! reply to its port must reach its owner, a reply to a free port must
//! not reach anyone.
//!
//! The element's private tables cannot be seen from here (and `IpNat`
//! gains no accessor for them): the structural half of the invariant —
//! `popcount(used) == forward.len() == reverse.len()`, every `forward`
//! port a set bit owned by that flow — is asserted by the unit tests in
//! `crates/click/src/elements/nat.rs` and, in this debug-profile run, by
//! the `debug_assert`s in `bind`/`release`/`alloc_port` on every step.
//!
//! The `PINNED` constants were recorded from the commit *before* the
//! bitmap existed (c79ea1e), so the sequence is pinned to the old
//! allocator's output, not merely to the shadow's.
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

/// The allocator the element replaced, over two plain maps.
#[derive(Default)]
struct Shadow {
    forward: HashMap<FlowKey, (u16, u64)>,
    reverse: HashMap<u16, FlowKey>,
    counters: (u64, u64, u64),
    evicted: u64,
}

impl Shadow {
    fn outbound(&mut self, key: FlowKey, now: u64) -> u16 {
        self.counters.0 += 1;
        if let Some(m) = self.forward.get_mut(&key) {
            m.1 = now;
            return m.0;
        }
        let preferred = IpNat::preferred_port(&key);
        let mut p = preferred;
        let mut free = None;
        for _ in 0..PROBE_LIMIT {
            if !self.reverse.contains_key(&p) {
                free = Some(p);
                break;
            }
            p = if p == u16::MAX { PORT_BASE } else { p + 1 };
        }
        let port = free.unwrap_or_else(|| {
            let victim = self.reverse.remove(&preferred).expect("window is full");
            self.forward.remove(&victim);
            self.evicted += 1;
            preferred
        });
        self.forward.insert(key, (port, now));
        self.reverse.insert(port, key);
        port
    }

    /// The internal flow a reply `remote:rport → PUBLIC:ext` reaches.
    fn inbound(
        &mut self,
        proto: IpProto,
        remote: (Ipv4Addr, u16),
        ext: u16,
        now: u64,
    ) -> Option<FlowKey> {
        let owner = self
            .reverse
            .get(&ext)
            .copied()
            .filter(|f| (f.dst, f.dst_port) == remote && f.proto == proto);
        match owner {
            Some(flow) => {
                self.forward.get_mut(&flow).expect("tables in lockstep").1 = now;
                self.counters.1 += 1;
            }
            None => self.counters.2 += 1,
        }
        owner
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

/// The element under test beside its shadow, with a running digest of
/// everything the element emitted.
struct Harness {
    nat: IpNat,
    shadow: Shadow,
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

impl Harness {
    fn new() -> Harness {
        let args = ConfigArgs::parse("IPNAT", "203.0.113.1, timeout 60");
        Harness {
            nat: IpNat::from_args(&args).expect("valid IPNAT arguments"),
            shadow: Shadow::default(),
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
        assert_eq!(self.nat.mappings(), self.shadow.forward.len());
        assert_eq!(self.nat.mappings(), self.shadow.reverse.len());
        assert_eq!(self.nat.evictions(), self.shadow.evicted);
        assert_eq!(self.nat.counters(), self.shadow.counters);
    }

    fn outbound(&mut self, key: FlowKey, step_ns: u64) -> u16 {
        self.now += step_ns;
        let pkt = builder(key.proto)
            .src(key.src, key.src_port)
            .dst(key.dst, key.dst_port)
            .build();
        self.nat
            .push(0, pkt, &Context::at(self.now), &mut self.sink);
        let want = self.shadow.outbound(key, self.now);
        let (port, out) = self.emitted().expect("outbound is always translated");
        let got = FlowKey::of(&out).expect("translated packet parses");
        assert_eq!(port, 0);
        assert_eq!((got.src, got.src_port), (PUBLIC, want), "{key}");
        assert_eq!((got.dst, got.dst_port), (key.dst, key.dst_port));
        self.agree();
        want
    }

    fn inbound(&mut self, proto: IpProto, remote: (Ipv4Addr, u16), ext: u16, step_ns: u64) {
        self.now += step_ns;
        let mut pkt = builder(proto)
            .src(remote.0, remote.1)
            .dst(PUBLIC, ext)
            .build();
        pkt.meta.ingress = 1;
        self.nat
            .push(1, pkt, &Context::at(self.now), &mut self.sink);
        let want = self.shadow.inbound(proto, remote, ext, self.now);
        let got = self.emitted().map(|(port, out)| {
            assert_eq!(port, 1);
            let k = FlowKey::of(&out).expect("translated packet parses");
            (k.dst, k.dst_port)
        });
        assert_eq!(got, want.map(|f| (f.src, f.src_port)), "reply to {ext}");
        self.agree();
    }

    /// A reply to a live flow from its own remote endpoint.
    fn reply(&mut self, flow: FlowKey, step_ns: u64) {
        // The flow may have been evicted or reaped since: then the reply
        // goes to whatever port it last held, and both sides must drop
        // or deliver it alike.
        let ext = self
            .shadow
            .forward
            .get(&flow)
            .map_or_else(|| IpNat::preferred_port(&flow), |m| m.0);
        self.inbound(flow.proto, (flow.dst, flow.dst_port), ext, step_ns);
    }

    fn tick(&mut self, at: u64) {
        self.now = self.now.max(at);
        self.nat.tick(&Context::at(self.now), &mut self.sink);
        assert!(self.sink.pushed.is_empty(), "tick emits nothing");
        self.shadow.tick(self.now);
        self.agree();
    }

    /// Every live mapping's port is owned by that flow, and a port the
    /// shadow holds free is free in the element too.
    fn audit(&mut self) {
        let mut live: Vec<(u16, FlowKey)> =
            self.shadow.reverse.iter().map(|(p, f)| (*p, *f)).collect();
        live.sort_unstable_by_key(|(p, _)| *p);
        for (port, flow) in &live {
            assert_eq!(self.shadow.forward[flow].0, *port);
            self.inbound(flow.proto, (flow.dst, flow.dst_port), *port, 0);
        }
        let before = self.shadow.counters.2;
        let free: Vec<u16> = (PORT_BASE..=u16::MAX)
            .filter(|p| !self.shadow.reverse.contains_key(p))
            .step_by(17)
            .take(512)
            .collect();
        for port in &free {
            self.inbound(IpProto::Udp, (Ipv4Addr::new(198, 51, 100, 1), 53), *port, 0);
        }
        assert_eq!(self.shadow.counters.2 - before, free.len() as u64);
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
