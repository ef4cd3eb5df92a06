//! `IPNAT` — network address and port translation (NAPT).

use std::any::Any;
use std::collections::HashMap;
use std::net::Ipv4Addr;

use innet_packet::{FlowKey, IpProto, Packet};

use crate::{
    args::ConfigArgs,
    canonical::fnv1a_64,
    element::{Context, Element, ElementError, PortCount, Sink},
};

/// First external port handed out by the allocator.
const PORT_BASE: u16 = 1024;

/// Size of the allocatable external-port space (`PORT_BASE..=u16::MAX`).
const PORT_RANGE: u32 = u16::MAX as u32 - PORT_BASE as u32 + 1;

/// How many consecutive candidate ports the allocator probes past a
/// flow's preferred port before reclaiming the preferred port itself.
const PROBE_LIMIT: u16 = 64;

/// Words in the port-occupancy bitmap; a probe window spans two of them.
const WORDS: usize = (PORT_RANGE / 64) as usize;
const _: () = assert!(WORDS as u32 * 64 == PORT_RANGE && PROBE_LIMIT == 64);

/// Default idle timeout for translation entries (5 minutes, matching
/// [`StatefulFirewall`](crate::elements::StatefulFirewall)).
pub const DEFAULT_NAT_TIMEOUT_S: f64 = 300.0;

/// One live translation: the allocated external port plus the virtual
/// time the mapping last carried a packet (either direction).
#[derive(Debug, Clone, Copy)]
struct Mapping {
    port: u16,
    last_ns: u64,
}

/// `IPNAT(PUBLIC_ADDR [, timeout SECS])` — source NAT with deterministic
/// per-flow port allocation and idle expiry.
///
/// * Input 0 / output 0: inside → outside. The source address becomes
///   `PUBLIC_ADDR`, the source port (an echo's ident) an allocated port.
/// * Input 1 / output 1: outside → inside. Packets addressed to
///   `PUBLIC_ADDR` on an allocated port *from the mapped remote endpoint*
///   are rewritten back to the internal endpoint; everything else is
///   dropped.
///
/// The external port is a pure function of the flow key (a hash-preferred
/// port with a bounded linear probe past live mappings), so allocation
/// does not depend on arrival interleaving across *other* connections.
/// That determinism is what lets flow-sharded execution replicate a NAT:
/// each worker owns a disjoint slice of connections, and every worker
/// would assign any given connection the same external port. Mappings
/// idle longer than the timeout are reaped — both directions atomically —
/// on `tick`, freeing their ports for reuse.
///
/// One of Table 1's middleboxes: safe only when the *operator* runs it
/// (it rewrites source addresses, which the anti-spoofing rule forbids for
/// tenants).
#[derive(Debug)]
pub struct IpNat {
    public: Ipv4Addr,
    /// internal flow (directed, inside->out) -> its live mapping.
    forward: HashMap<FlowKey, Mapping>,
    /// external port -> internal flow. Entry lifetime mirrors `forward`
    /// exactly: every insert/remove updates both tables.
    reverse: HashMap<u16, FlowKey>,
    /// Bit `p - PORT_BASE` is set iff `reverse` holds `p`. 8 KB, allocated by
    /// the first mapping: models build a NAT just to read `public_addr()`.
    used: Vec<u64>,
    timeout_ns: u64,
    translated_out: u64,
    translated_in: u64,
    dropped: u64,
    evicted: u64,
}

impl IpNat {
    /// Creates a NAT advertising `public` with the given idle timeout.
    pub fn new(public: Ipv4Addr, timeout_ns: u64) -> IpNat {
        IpNat {
            public,
            forward: HashMap::new(),
            reverse: HashMap::new(),
            used: Vec::new(),
            timeout_ns: timeout_ns.max(1),
            translated_out: 0,
            translated_in: 0,
            dropped: 0,
            evicted: 0,
        }
    }

    /// Parses `IPNAT(PUBLIC_ADDR [, timeout SECS])`.
    pub fn from_args(args: &ConfigArgs) -> Result<IpNat, ElementError> {
        let bad = |message: String| ElementError::BadArgs {
            class: "IPNAT",
            message,
        };
        let mut timeout_s = DEFAULT_NAT_TIMEOUT_S;
        for (i, arg) in args.all().enumerate() {
            if i == 0 {
                continue; // the public address, parsed below
            }
            if let Some(rest) = arg.strip_prefix("timeout") {
                timeout_s = rest
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("bad timeout '{arg}'")))?;
            } else {
                return Err(bad(format!("unexpected argument '{arg}'")));
            }
        }
        // The explicit NaN check matters: `x <= 0` waves NaN through.
        if timeout_s.is_nan() || timeout_s <= 0.0 {
            return Err(bad("timeout must be positive".to_string()));
        }
        Ok(IpNat::new(args.addr_at(0)?, (timeout_s * 1e9) as u64))
    }

    /// Number of active translations.
    pub fn mappings(&self) -> usize {
        self.forward.len()
    }

    /// Counters: (outbound translated, inbound translated, dropped).
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.translated_out, self.translated_in, self.dropped)
    }

    /// How many live mappings were evicted to reclaim their port.
    pub fn evictions(&self) -> u64 {
        self.evicted
    }

    /// The advertised public address.
    pub fn public_addr(&self) -> Ipv4Addr {
        self.public
    }

    /// The external port this flow's mapping starts probing from: a hash
    /// of the flow key, so the choice is a pure function of the flow and
    /// identical no matter which packets preceded it.
    pub fn preferred_port(key: &FlowKey) -> u16 {
        let mut bytes = [0u8; 13];
        bytes[..4].copy_from_slice(&key.src.octets());
        bytes[4..8].copy_from_slice(&key.dst.octets());
        bytes[8] = key.proto.number();
        bytes[9..11].copy_from_slice(&key.src_port.to_be_bytes());
        bytes[11..13].copy_from_slice(&key.dst_port.to_be_bytes());
        PORT_BASE + (fnv1a_64(&bytes) % PORT_RANGE as u64) as u16
    }

    /// Allocates an external port for `key`: the preferred port when
    /// free, else the first free port within [`PROBE_LIMIT`] candidates
    /// (wrapping). If the whole probe window is occupied, the *preferred*
    /// port's current owner is evicted — both its directions removed —
    /// and the port reassigned; under that much pressure someone must
    /// lose, and choosing the preferred-port victim keeps the choice a
    /// deterministic function of the table contents.
    fn alloc_port(&mut self, key: &FlowKey) -> u16 {
        let preferred = IpNat::preferred_port(key);
        self.used.resize(WORDS, 0); // allocates once, then a no-op
        let at = u32::from(preferred - PORT_BASE);
        let word = (at / 64) as usize;
        // The 64 candidates as one word, bit 0 the preferred port: its
        // word and the next (word 0 after the last *is* the port wrap).
        let pair = u128::from(self.used[word]) | u128::from(self.used[(word + 1) % WORDS]) << 64;
        let free = (!((pair >> (at % 64)) as u64)).trailing_zeros();
        let port = PORT_BASE + ((at + free % 64) % PORT_RANGE) as u16; // none free: preferred
        #[cfg(debug_assertions)]
        assert_eq!(self.probe_alloc(preferred), (port, free == 64));
        if free == 64 {
            // Probe window exhausted: reclaim the preferred port, evicting
            // its owner from both tables so no stale forward entry leaks.
            if let Some(victim) = self.release(port) {
                self.forward.remove(&victim);
                self.evicted += 1;
            }
        }
        port
    }

    /// Gives `port` to `flow`. Only this and `release` write `reverse`
    /// and the bitmap, so the two cannot drift.
    fn bind(&mut self, port: u16, flow: FlowKey) {
        let bit = usize::from(port - PORT_BASE);
        self.used[bit / 64] |= 1 << (bit % 64);
        self.reverse.insert(port, flow);
        #[cfg(debug_assertions)]
        assert!(self.bit_is_owner(port));
    }

    /// Frees `port`, returning the flow that held it.
    fn release(&mut self, port: u16) -> Option<FlowKey> {
        let bit = usize::from(port - PORT_BASE);
        self.used[bit / 64] &= !(1 << (bit % 64));
        let flow = self.reverse.remove(&port);
        #[cfg(debug_assertions)]
        assert!(self.bit_is_owner(port));
        flow
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
}

/// The probe loop the bitmap replaced: its oracle in every debug build.
#[cfg(any(test, debug_assertions))]
impl IpNat {
    /// The next candidate after `p`, wrapping from `u16::MAX` back to
    /// `PORT_BASE`.
    fn next_candidate(p: u16) -> u16 {
        if p == u16::MAX {
            PORT_BASE
        } else {
            p + 1
        }
    }

    /// The port the probe loop hands out, and whether by evicting its owner.
    fn probe_alloc(&self, preferred: u16) -> (u16, bool) {
        let mut p = preferred;
        for _ in 0..PROBE_LIMIT {
            if !self.reverse.contains_key(&p) {
                return (p, false);
            }
            p = IpNat::next_candidate(p);
        }
        (preferred, true)
    }

    fn bit_is_owner(&self, port: u16) -> bool {
        let bit = usize::from(port - PORT_BASE);
        (self.used[bit / 64] >> (bit % 64) & 1 == 1) == self.reverse.contains_key(&port)
    }
}

impl Element for IpNat {
    fn class_name(&self) -> &'static str {
        "IPNAT"
    }

    fn ports(&self) -> PortCount {
        PortCount::new(2, 2)
    }

    fn push(&mut self, port: usize, mut pkt: Packet, ctx: &Context, out: &mut dyn Sink) {
        let Ok(key) = FlowKey::of(&pkt) else {
            self.dropped += 1;
            return;
        };
        match port {
            0 => {
                let ext_port = match self.forward.get_mut(&key) {
                    Some(m) => {
                        m.last_ns = ctx.now_ns;
                        m.port
                    }
                    None => {
                        let p = self.alloc_port(&key);
                        self.forward.insert(
                            key,
                            Mapping {
                                port: p,
                                last_ns: ctx.now_ns,
                            },
                        );
                        self.bind(p, key);
                        p
                    }
                };
                if let Ok(mut ip) = pkt.ipv4_mut() {
                    ip.set_src(self.public);
                    ip.update_checksum();
                }
                IpNat::set_l4_ports(&mut pkt, Some(ext_port), None);
                self.translated_out += 1;
                out.push(0, pkt);
            }
            _ => {
                let Ok(ip) = pkt.ipv4() else {
                    self.dropped += 1;
                    return;
                };
                if ip.dst() != self.public {
                    self.dropped += 1;
                    return;
                }
                // The mapping only matches traffic from the remote
                // endpoint the inside host contacted (symmetric-NAT
                // filtering, same policy as the old remote-keyed table).
                // An echo's one "port" is its ident, the external one here.
                let internal = self.reverse.get(&key.dst_port).copied().filter(|flow| {
                    (flow.dst, flow.proto) == (key.src, key.proto)
                        && (flow.dst_port == key.src_port || key.proto == IpProto::Icmp)
                });
                match internal {
                    Some(internal) => {
                        if let Some(m) = self.forward.get_mut(&internal) {
                            m.last_ns = ctx.now_ns;
                        }
                        if let Ok(mut ip) = pkt.ipv4_mut() {
                            ip.set_dst(internal.src);
                            ip.update_checksum();
                        }
                        IpNat::set_l4_ports(&mut pkt, None, Some(internal.src_port));
                        self.translated_in += 1;
                        out.push(1, pkt);
                    }
                    None => self.dropped += 1,
                }
            }
        }
    }

    fn tick(&mut self, ctx: &Context, _out: &mut dyn Sink) {
        let (timeout, now) = (self.timeout_ns, ctx.now_ns);
        // Both directions of an expired mapping go together, so a reaped
        // port is immediately reusable and no table entry outlives the
        // other. (`forward` steps aside so the closure can borrow `self`.)
        let mut forward = std::mem::take(&mut self.forward);
        forward.retain(|_, m| {
            let live = now.saturating_sub(m.last_ns) <= timeout;
            if !live {
                self.release(m.port);
            }
            live
        });
        self.forward = forward;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::VecSink;
    use innet_packet::PacketBuilder;

    const PUB: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);
    const INSIDE: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);
    const SERVER: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);

    fn nat() -> IpNat {
        IpNat::from_args(&ConfigArgs::parse("IPNAT", "203.0.113.1")).unwrap()
    }

    fn out_key(sport: u16) -> FlowKey {
        FlowKey {
            src: INSIDE,
            dst: SERVER,
            proto: IpProto::Udp,
            src_port: sport,
            dst_port: 53,
        }
    }

    /// Seeds a live mapping by hand: `forward` directly, `reverse` and
    /// the bitmap through `bind`, as the datapath does.
    fn occupy(n: &mut IpNat, port: u16, flow: FlowKey) {
        n.used.resize(WORDS, 0);
        n.forward.insert(flow, Mapping { port, last_ns: 0 });
        n.bind(port, flow);
    }

    /// Seeds occupants on `count` consecutive candidates from `first`.
    fn occupy_run(n: &mut IpNat, first: u16, count: u16, sport_base: u16) {
        let mut p = first;
        for i in 0..count {
            occupy(n, p, out_key(sport_base + i));
            p = IpNat::next_candidate(p);
        }
    }

    /// How many ports the bitmap holds taken.
    fn population(n: &IpNat) -> usize {
        n.used.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The three tables describe the same set of mappings.
    fn assert_in_lockstep(n: &IpNat) {
        assert_eq!(population(n), n.mappings());
        assert_eq!(n.reverse.len(), n.mappings());
        for (flow, m) in &n.forward {
            assert!(n.bit_is_owner(m.port));
            assert_eq!(n.reverse.get(&m.port), Some(flow));
        }
    }

    /// A flow whose preferred port sits at `bit` of its bitmap word,
    /// away from the ends of the port space.
    fn key_at_bit(bit: u16) -> FlowKey {
        (1..=u16::MAX)
            .map(out_key)
            .find(|k| {
                let at = IpNat::preferred_port(k) - PORT_BASE;
                at % 64 == bit && (64..PORT_RANGE as u16 - 128).contains(&at)
            })
            .expect("some flow prefers that bit")
    }

    #[test]
    fn outbound_rewrites_source() {
        let mut n = nat();
        let mut s = VecSink::new();
        let pkt = PacketBuilder::udp()
            .src(INSIDE, 5555)
            .dst(SERVER, 53)
            .build();
        n.push(0, pkt, &Context::default(), &mut s);
        let out = s.only(0).unwrap();
        let ip = out.ipv4().unwrap();
        assert_eq!(ip.src(), PUB);
        assert!(ip.verify_checksum());
        assert_eq!(
            out.udp().unwrap().src_port(),
            IpNat::preferred_port(&out_key(5555))
        );
        assert_eq!(out.udp().unwrap().dst_port(), 53);
    }

    #[test]
    fn reply_translated_back() {
        let mut n = nat();
        let mut s = VecSink::new();
        n.push(
            0,
            PacketBuilder::udp()
                .src(INSIDE, 5555)
                .dst(SERVER, 53)
                .build(),
            &Context::default(),
            &mut s,
        );
        let ext_port = s.pushed[0].1.udp().unwrap().src_port();
        let reply = PacketBuilder::udp()
            .src(SERVER, 53)
            .dst(PUB, ext_port)
            .build();
        n.push(1, reply, &Context::default(), &mut s);
        assert_eq!(s.pushed.len(), 2);
        let back = &s.pushed[1].1;
        assert_eq!(back.ipv4().unwrap().dst(), INSIDE);
        assert_eq!(back.udp().unwrap().dst_port(), 5555);
    }

    #[test]
    fn same_flow_keeps_mapping() {
        let mut n = nat();
        let mut s = VecSink::new();
        for _ in 0..3 {
            n.push(
                0,
                PacketBuilder::udp()
                    .src(INSIDE, 5555)
                    .dst(SERVER, 53)
                    .build(),
                &Context::default(),
                &mut s,
            );
        }
        assert_eq!(n.mappings(), 1);
        let ports: Vec<u16> = s
            .pushed
            .iter()
            .map(|(_, p)| p.udp().unwrap().src_port())
            .collect();
        assert!(ports.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn distinct_flows_get_distinct_ports() {
        let mut n = nat();
        let mut s = VecSink::new();
        for sport in [100u16, 200, 300] {
            n.push(
                0,
                PacketBuilder::udp()
                    .src(INSIDE, sport)
                    .dst(SERVER, 53)
                    .build(),
                &Context::default(),
                &mut s,
            );
        }
        let mut ports: Vec<u16> = s
            .pushed
            .iter()
            .map(|(_, p)| p.udp().unwrap().src_port())
            .collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 3);
    }

    #[test]
    fn unsolicited_inbound_dropped() {
        let mut n = nat();
        let mut s = VecSink::new();
        let pkt = PacketBuilder::udp().src(SERVER, 53).dst(PUB, 2000).build();
        n.push(1, pkt, &Context::default(), &mut s);
        assert!(s.pushed.is_empty());
        assert_eq!(n.counters().2, 1);
    }

    #[test]
    fn inbound_to_other_address_dropped() {
        let mut n = nat();
        let mut s = VecSink::new();
        let pkt = PacketBuilder::udp()
            .src(SERVER, 53)
            .dst(Ipv4Addr::new(9, 9, 9, 9), PORT_BASE)
            .build();
        n.push(1, pkt, &Context::default(), &mut s);
        assert!(s.pushed.is_empty());
    }

    #[test]
    fn inbound_from_wrong_remote_dropped() {
        // Symmetric-NAT filtering: the mapping only admits the remote
        // endpoint the inside host actually contacted.
        let mut n = nat();
        let mut s = VecSink::new();
        n.push(
            0,
            PacketBuilder::udp()
                .src(INSIDE, 5555)
                .dst(SERVER, 53)
                .build(),
            &Context::default(),
            &mut s,
        );
        let ext_port = s.pushed[0].1.udp().unwrap().src_port();
        let stranger = PacketBuilder::udp()
            .src(Ipv4Addr::new(6, 6, 6, 6), 53)
            .dst(PUB, ext_port)
            .build();
        n.push(1, stranger, &Context::default(), &mut s);
        assert_eq!(s.pushed.len(), 1, "stranger must not reach the inside");
        assert_eq!(n.counters().2, 1);
    }

    #[test]
    fn port_allocation_is_flow_deterministic() {
        // The same flow gets the same external port no matter what other
        // traffic preceded it — the property sharded replicas rely on.
        let mut quiet = nat();
        let mut busy = nat();
        let mut s = VecSink::new();
        for sport in 1000..1050u16 {
            busy.push(
                0,
                PacketBuilder::udp()
                    .src(Ipv4Addr::new(10, 0, 7, 7), sport)
                    .dst(SERVER, 53)
                    .build(),
                &Context::default(),
                &mut s,
            );
        }
        s.pushed.clear();
        let probe = || {
            PacketBuilder::udp()
                .src(INSIDE, 4242)
                .dst(SERVER, 443)
                .build()
        };
        quiet.push(0, probe(), &Context::default(), &mut s);
        busy.push(0, probe(), &Context::default(), &mut s);
        let p_quiet = s.pushed[0].1.udp().unwrap().src_port();
        let p_busy = s.pushed[1].1.udp().unwrap().src_port();
        assert_eq!(p_quiet, p_busy);
    }

    /// Finds `n` distinct source ports whose flows all prefer external
    /// ports inside the `PROBE_LIMIT`-wide window starting at the
    /// preferred port of `out_key(seed_sport)`.
    fn colliding_sports(seed_sport: u16, n: usize) -> Vec<u16> {
        let base = IpNat::preferred_port(&out_key(seed_sport));
        let in_window = |p: u16| {
            let off = (p as u32 + PORT_RANGE - base as u32) % PORT_RANGE;
            off < PROBE_LIMIT as u32
        };
        let mut found = vec![seed_sport];
        for sport in 1..=u16::MAX {
            if found.len() >= n {
                break;
            }
            if sport != seed_sport && in_window(IpNat::preferred_port(&out_key(sport))) {
                found.push(sport);
            }
        }
        assert!(
            found.len() >= n,
            "need {n} colliding flows, search space too small"
        );
        found
    }

    #[test]
    fn colliding_preferred_ports_do_not_clobber() {
        // Regression for the wrapping cursor allocator: when a second
        // flow wants an external port that is still owned by a live
        // mapping, the old allocator overwrote the reverse entry
        // (misdelivering the first flow's replies to the second flow's
        // host) and leaked the first flow's forward entry forever. The
        // probing allocator must keep both mappings live and intact.
        let sports = colliding_sports(5555, 2);
        let mut n = nat();
        let mut s = VecSink::new();
        for &sport in &sports {
            n.push(
                0,
                PacketBuilder::udp()
                    .src(INSIDE, sport)
                    .dst(SERVER, 53)
                    .build(),
                &Context::default(),
                &mut s,
            );
        }
        let eports: Vec<u16> = s
            .pushed
            .iter()
            .map(|(_, p)| p.udp().unwrap().src_port())
            .collect();
        assert_ne!(eports[0], eports[1], "live mapping's port re-issued");
        // No leak: both tables track exactly the two live mappings.
        assert_eq!(n.forward.len(), 2);
        assert_eq!(n.reverse.len(), 2);
        // Both flows' replies still reach the right internal port.
        for (i, &sport) in sports.iter().enumerate() {
            let reply = PacketBuilder::udp()
                .src(SERVER, 53)
                .dst(PUB, eports[i])
                .build();
            n.push(1, reply, &Context::default(), &mut s);
            let back = s.pushed.last().unwrap();
            assert_eq!(back.0, 1);
            assert_eq!(back.1.udp().unwrap().dst_port(), sport, "flow {i}");
        }
        assert_eq!(n.counters().2, 0, "nothing dropped");
    }

    #[test]
    fn probe_wraps_from_port_max_to_base() {
        // Occupy a flow's preferred port when that port is near u16::MAX,
        // plus PORT_BASE: the probe must walk off the end of the port
        // space and continue from PORT_BASE (the old allocator's wrap
        // re-issued the live PORT_BASE mapping here).
        let sport = (1..=u16::MAX)
            .find(|&sp| IpNat::preferred_port(&out_key(sp)) >= u16::MAX - (PROBE_LIMIT - 3))
            .expect("some flow prefers a port near u16::MAX");
        let key = out_key(sport);
        let preferred = IpNat::preferred_port(&key);
        let mut n = nat();
        // Pin synthetic occupants onto every port from `preferred` up to
        // and including u16::MAX, plus PORT_BASE, leaving PORT_BASE + 1
        // as the first free candidate (all within the probe window).
        occupy_run(&mut n, preferred, u16::MAX - preferred + 2, 60_000);
        assert!(n.reverse.contains_key(&u16::MAX) && n.reverse.contains_key(&PORT_BASE));
        let got = n.alloc_port(&key);
        assert_eq!(got, PORT_BASE + 1, "probe must wrap past u16::MAX");
        assert_eq!(n.evictions(), 0);
        assert_in_lockstep(&n);
    }

    #[test]
    fn exhausted_probe_window_evicts_preferred_atomically() {
        let mut n = nat();
        let key = out_key(9999);
        let preferred = IpNat::preferred_port(&key);
        // Fill the entire probe window with live occupants.
        occupy_run(&mut n, preferred, PROBE_LIMIT, 40_000);
        let victim = n.reverse[&preferred];
        let got = n.alloc_port(&key);
        assert_eq!(got, preferred, "eviction reclaims the preferred port");
        assert_eq!(n.evictions(), 1);
        // The victim vanished from *both* tables — no forward leak.
        assert!(!n.forward.contains_key(&victim));
        assert_eq!(n.forward.len(), PROBE_LIMIT as usize - 1);
        assert_eq!(n.reverse.len(), PROBE_LIMIT as usize - 1);
        assert_in_lockstep(&n);
    }

    #[test]
    fn window_starting_at_bit_0_is_one_word() {
        // Preferred port at bit 0: the 64 candidates are exactly one
        // bitmap word, and the next word's first port is candidate 65.
        let key = key_at_bit(0);
        let preferred = IpNat::preferred_port(&key);
        let mut n = nat();
        occupy_run(&mut n, preferred, PROBE_LIMIT - 1, 40_000);
        assert_eq!(n.alloc_port(&key), preferred + 63, "last bit of the word");
        assert_eq!(n.evictions(), 0);
        // With that one taken too the word is full: the free port just
        // past it is out of reach and the preferred port's owner goes.
        occupy(&mut n, preferred + 63, out_key(39_999));
        assert!(!n.reverse.contains_key(&(preferred + 64)));
        let victim = n.reverse[&preferred];
        assert_eq!(n.alloc_port(&key), preferred);
        assert_eq!(n.evictions(), 1);
        assert!(!n.forward.contains_key(&victim));
        assert_in_lockstep(&n);
    }

    #[test]
    fn window_starting_at_bit_63_continues_in_the_next_word() {
        // Preferred port at bit 63: one candidate in its own word, the
        // other 63 in the neighbour.
        let key = key_at_bit(63);
        let preferred = IpNat::preferred_port(&key);
        let mut n = nat();
        // Everything *below* the preferred port in its word is taken and
        // must not matter; nor must bit 63 of the next word (candidate 65).
        occupy_run(&mut n, preferred - 63, 63, 30_000);
        assert_eq!(n.alloc_port(&key), preferred);
        occupy(&mut n, preferred, out_key(39_998));
        assert_eq!(n.alloc_port(&key), preferred + 1, "bit 0 of the next word");
        occupy_run(&mut n, preferred + 1, PROBE_LIMIT - 2, 40_000);
        assert_eq!(
            n.alloc_port(&key),
            preferred + 63,
            "bit 62 of the next word"
        );
        occupy(&mut n, preferred + 63, out_key(39_999));
        assert!(!n.reverse.contains_key(&(preferred + 64)));
        assert_eq!(n.evictions(), 0);
        let victim = n.reverse[&preferred];
        assert_eq!(n.alloc_port(&key), preferred);
        assert_eq!(n.evictions(), 1);
        assert!(!n.forward.contains_key(&victim));
        assert_in_lockstep(&n);
    }

    #[test]
    fn eviction_under_pressure_keeps_tables_in_lockstep() {
        // Fill a flow's whole probe window with live occupants, then push
        // the flow through the real datapath: the preferred-port victim
        // must vanish from *both* tables (the old allocator diverged:
        // reverse overwritten, forward retained forever) and replies on
        // the contested port must reach the *new* owner.
        let key = out_key(9_123);
        let preferred = IpNat::preferred_port(&key);
        let mut n = nat();
        occupy_run(&mut n, preferred, PROBE_LIMIT, 50_000);
        let victim = n.reverse[&preferred];
        let mut s = VecSink::new();
        n.push(
            0,
            PacketBuilder::udp()
                .src(INSIDE, key.src_port)
                .dst(SERVER, 53)
                .build(),
            &Context::default(),
            &mut s,
        );
        assert_eq!(s.pushed[0].1.udp().unwrap().src_port(), preferred);
        assert_eq!(n.evictions(), 1);
        assert_eq!(n.forward.len(), n.reverse.len(), "tables diverged");
        assert!(!n.forward.contains_key(&victim), "victim's forward leaked");
        // A reply to the contested port now belongs to the new owner.
        let reply = PacketBuilder::udp()
            .src(SERVER, 53)
            .dst(PUB, preferred)
            .build();
        n.push(1, reply, &Context::default(), &mut s);
        let back = s.pushed.last().unwrap();
        assert_eq!(back.1.udp().unwrap().dst_port(), key.src_port);
        // Every reverse entry points at a live forward entry with the
        // same port.
        for (&port, flow) in &n.reverse {
            assert_eq!(n.forward[flow].port, port);
        }
        assert_in_lockstep(&n);
    }

    #[test]
    fn tables_stay_in_lockstep_through_fill_eviction_and_expiry() {
        // 72,000 distinct flows in 36 virtual seconds overflow the 64,512
        // ports; the bitmap's population must track both maps at every
        // step (tests/tests/nat_alloc.rs pins what this run emits).
        let mut n =
            IpNat::from_args(&ConfigArgs::parse("IPNAT", "203.0.113.1, timeout 60")).unwrap();
        let mut s = VecSink::new();
        for i in 0..72_000u32 {
            let pkt = PacketBuilder::udp()
                .src(Ipv4Addr::from(0x0a00_0000 | i), 1024 + (i % 60_000) as u16)
                .dst(SERVER, 53)
                .build();
            n.push(0, pkt, &Context::at(u64::from(i) * 500_000), &mut s);
            s.pushed.clear();
            assert_eq!(population(&n), n.forward.len());
            assert_eq!(population(&n), n.reverse.len());
            if i % 8_192 == 0 {
                assert_in_lockstep(&n);
            }
        }
        assert!(n.evictions() > 1_000 && n.mappings() > 64_000);
        assert_eq!(n.mappings() as u64 + n.evictions(), 72_000);
        assert_in_lockstep(&n);
        // Reap at t = 70 s: what was opened in the first 10 s goes.
        n.tick(&Context::at(70_000_000_000), &mut s);
        assert!(n.mappings() < 50_000, "{}", n.mappings());
        assert_in_lockstep(&n);
    }

    #[test]
    fn idle_nat_allocates_no_bitmap() {
        // Models and summaries build a NAT only to read its address, and
        // a gateway that sees no inside host has nothing to track.
        let mut n = nat();
        let mut s = VecSink::new();
        for dport in [PORT_BASE, 2000, u16::MAX] {
            let pkt = PacketBuilder::udp().src(SERVER, 53).dst(PUB, dport).build();
            n.push(1, pkt, &Context::default(), &mut s);
        }
        n.tick(&Context::at(1_000_000_000_000), &mut s);
        assert_eq!(n.counters(), (0, 0, 3));
        assert_eq!(
            n.used.capacity(),
            0,
            "inbound-only traffic allocates nothing"
        );
        // The first mapping pays for the whole bitmap, once: 1,008 words.
        let pkt = PacketBuilder::udp()
            .src(INSIDE, 5555)
            .dst(SERVER, 53)
            .build();
        n.push(0, pkt, &Context::default(), &mut s);
        assert_eq!((n.used.len(), n.used.capacity()), (1_008, 1_008));
        assert_in_lockstep(&n);
    }

    #[test]
    fn ping_through_nat_comes_back() {
        // An echo's only "port" is its identifier: outbound it becomes
        // the external port, and the reply — which carries that external
        // ident, not the original — is matched on it and restored.
        let mut n = nat();
        let mut s = VecSink::new();
        let ping = PacketBuilder::icmp_echo_request(7, 1)
            .src_addr(INSIDE)
            .dst_addr(SERVER)
            .build();
        let ext = IpNat::preferred_port(&FlowKey::of(&ping).unwrap());
        n.push(0, ping, &Context::default(), &mut s);
        let out = &s.pushed[0].1;
        assert_eq!(out.ipv4().unwrap().src(), PUB);
        assert_eq!(out.icmp().unwrap().ident(), ext);
        assert_eq!(out.icmp().unwrap().seq(), 1);

        let pong = |from: Ipv4Addr| {
            PacketBuilder::icmp_echo_reply(ext, 1)
                .src_addr(from)
                .dst_addr(PUB)
                .build()
        };
        n.push(1, pong(SERVER), &Context::default(), &mut s);
        let back = &s.pushed[1];
        assert_eq!(back.0, 1);
        assert_eq!(back.1.ipv4().unwrap().dst(), INSIDE);
        assert_eq!(back.1.icmp().unwrap().ident(), 7);
        assert_eq!(n.counters(), (1, 1, 0));
        assert_eq!(n.mappings(), 1);

        // Still only the pinged host may answer, and only with an echo.
        n.push(
            1,
            pong(Ipv4Addr::new(6, 6, 6, 6)),
            &Context::default(),
            &mut s,
        );
        let udp = PacketBuilder::udp().src(SERVER, ext).dst(PUB, ext).build();
        n.push(1, udp, &Context::default(), &mut s);
        assert_eq!(s.pushed.len(), 2);
        assert_eq!(n.counters().2, 2);
    }

    #[test]
    fn idle_mappings_expire_and_free_ports() {
        let mut n =
            IpNat::from_args(&ConfigArgs::parse("IPNAT", "203.0.113.1, timeout 60")).unwrap();
        let mut s = VecSink::new();
        n.push(
            0,
            PacketBuilder::udp()
                .src(INSIDE, 5555)
                .dst(SERVER, 53)
                .build(),
            &Context::at(0),
            &mut s,
        );
        let ext_port = s.pushed[0].1.udp().unwrap().src_port();
        assert_eq!(n.mappings(), 1);

        // 61 virtual seconds idle: the reaper removes both directions.
        n.tick(&Context::at(61_000_000_000), &mut s);
        assert_eq!(n.mappings(), 0);
        assert!(n.reverse.is_empty(), "port must be freed with the mapping");
        assert_in_lockstep(&n);

        // The stale reply no longer routes inside.
        let reply = PacketBuilder::udp()
            .src(SERVER, 53)
            .dst(PUB, ext_port)
            .build();
        n.push(1, reply, &Context::at(61_000_000_001), &mut s);
        assert_eq!(s.pushed.len(), 1);

        // And a fresh flow can claim the freed port again.
        n.push(
            0,
            PacketBuilder::udp()
                .src(INSIDE, 5555)
                .dst(SERVER, 53)
                .build(),
            &Context::at(62_000_000_000),
            &mut s,
        );
        assert_eq!(
            s.pushed.last().unwrap().1.udp().unwrap().src_port(),
            ext_port
        );
    }

    #[test]
    fn traffic_refreshes_idle_timer_in_both_directions() {
        let mut n =
            IpNat::from_args(&ConfigArgs::parse("IPNAT", "203.0.113.1, timeout 60")).unwrap();
        let mut s = VecSink::new();
        n.push(
            0,
            PacketBuilder::udp()
                .src(INSIDE, 5555)
                .dst(SERVER, 53)
                .build(),
            &Context::at(0),
            &mut s,
        );
        let ext_port = s.pushed[0].1.udp().unwrap().src_port();
        // A reply at t=50s refreshes the mapping…
        let reply = PacketBuilder::udp()
            .src(SERVER, 53)
            .dst(PUB, ext_port)
            .build();
        n.push(1, reply, &Context::at(50_000_000_000), &mut s);
        // …so a reap at t=100s (50s idle) keeps it.
        n.tick(&Context::at(100_000_000_000), &mut s);
        assert_eq!(n.mappings(), 1);
        // Another 61 idle seconds and it goes.
        n.tick(&Context::at(161_000_000_000), &mut s);
        assert_eq!(n.mappings(), 0);
    }

    #[test]
    fn bad_args_rejected() {
        assert!(IpNat::from_args(&ConfigArgs::parse("IPNAT", "")).is_err());
        assert!(IpNat::from_args(&ConfigArgs::parse("IPNAT", "not-an-ip")).is_err());
        assert!(IpNat::from_args(&ConfigArgs::parse("IPNAT", "203.0.113.1, timeout 0")).is_err());
        assert!(IpNat::from_args(&ConfigArgs::parse("IPNAT", "203.0.113.1, timeout -5")).is_err());
        assert!(IpNat::from_args(&ConfigArgs::parse("IPNAT", "203.0.113.1, timeout nan")).is_err());
        assert!(IpNat::from_args(&ConfigArgs::parse("IPNAT", "203.0.113.1, bogus")).is_err());
    }
}
