//! Differential suite for the compiled flat plan: with
//! `RunnerConfig::compiled(true)`, every corpus must produce byte- and
//! order-identical output to the interpreted `Router` — the interpreter
//! stays the semantic oracle, the compiled plan is only allowed to be
//! faster.
//!
//! Covered: the consolidated multi-tenant firewall, every Figure 12
//! middlebox kind, and the bidirectional stateful corpus (NAT gateway +
//! stateful firewall), each single-threaded and flow-sharded at
//! 1/2/4/8 workers. A property test then drives randomly wired
//! configurations from the standard element registry through both
//! engines directly.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use innet::click::elements::IpNat;
use innet::click::CompiledRouter;
use innet::platform::{
    consolidated_config, middlebox_config, nat_gateway_config, stateful_firewall_config,
};
use innet::prelude::*;
use proptest::prelude::*;

/// A mixed trace: UDP and TCP to a spread of destinations (some matching
/// no tenant), ICMP-less but with a few truncated and non-IP frames so
/// classifier drop paths run too.
fn mixed_trace(n: usize, clients: &[Ipv4Addr]) -> Vec<Packet> {
    (0..n)
        .map(|i| {
            let f = i % 64;
            if i % 13 == 0 {
                // Raw short frame: non-IPv4, exercises the NonIp branch.
                Packet::from_bytes(vec![0xde; 20 + (i % 9)])
            } else if i % 5 == 0 {
                PacketBuilder::tcp()
                    .src(Ipv4Addr::new(8, 8, 0, (f % 250) as u8 + 1), 4000 + f as u16)
                    .dst(clients[f % clients.len()], 80)
                    .pad_to(64 + (i % 7) * 16)
                    .build()
            } else {
                let dst = if i % 11 == 0 {
                    // A stranger: matches no tenant rule.
                    Ipv4Addr::new(9, 9, 9, 9)
                } else {
                    clients[f % clients.len()]
                };
                PacketBuilder::udp()
                    .src(Ipv4Addr::new(8, 8, 0, (f % 250) as u8 + 1), 4000 + f as u16)
                    .dst(dst, 80)
                    .pad_to(64 + (i % 7) * 16)
                    .build()
            }
        })
        .collect()
}

/// Groups transmitted packets per output flow key (rewritten tuples are
/// deterministic per connection), preserving relative order. Non-flow
/// packets group under a byte-hash key.
fn by_flow(out: &[(u16, Packet)]) -> BTreeMap<String, Vec<(u16, Vec<u8>)>> {
    let mut groups: BTreeMap<String, Vec<(u16, Vec<u8>)>> = BTreeMap::new();
    for (egress, pkt) in out {
        let key = match FlowKey::of(pkt) {
            Ok(k) => k.to_string(),
            Err(_) => format!("raw-{}", pkt.bytes().len()),
        };
        groups
            .entry(key)
            .or_default()
            .push((*egress, pkt.bytes().to_vec()));
    }
    groups
}

/// Single-threaded contract: the compiled one-worker runner's output
/// must be identical to the interpreted one's — same egress, same bytes,
/// same total order, same packet accounting.
fn assert_one_worker_identical(label: &str, cfg: &ClickConfig, trace: &[Packet]) {
    let mut interp = RunnerConfig::new().parallel(cfg).unwrap();
    let mut compiled = RunnerConfig::new().compiled(true).parallel(cfg).unwrap();
    assert!(compiled.is_compiled(), "{label}: compiled engine selected");
    let (istats, iout) = interp.run_collect(trace, 1);
    let (cstats, cout) = compiled.run_collect(trace, 1);
    assert_eq!(istats.packets, cstats.packets, "{label}: packets");
    assert_eq!(
        istats.transmitted, cstats.transmitted,
        "{label}: transmitted"
    );
    assert_eq!(iout.len(), cout.len(), "{label}: output count");
    for (n, ((ie, ip), (ce, cp))) in iout.iter().zip(cout.iter()).enumerate() {
        assert_eq!(ie, ce, "{label}: egress of output packet {n}");
        assert_eq!(
            ip.bytes(),
            cp.bytes(),
            "{label}: bytes of output packet {n}"
        );
    }
}

/// Sharded contract: at each worker count, the compiled parallel runner
/// must produce per-flow byte- and order-identical output to the
/// interpreted parallel runner.
fn assert_parallel_identical(label: &str, cfg: &ClickConfig, trace: &[Packet], workers: &[usize]) {
    for &w in workers {
        let mut interp = RunnerConfig::new()
            .workers(w)
            .batch(32)
            .parallel(cfg)
            .unwrap();
        let mut compiled = RunnerConfig::new()
            .workers(w)
            .batch(32)
            .compiled(true)
            .parallel(cfg)
            .unwrap();
        assert!(compiled.is_compiled(), "{label}: compiled engines selected");
        let (istats, iout) = interp.run_collect(trace, 1);
        let (cstats, cout) = compiled.run_collect(trace, 1);
        assert_eq!(istats.packets, cstats.packets, "{label} w{w}: packets");
        assert_eq!(
            istats.transmitted, cstats.transmitted,
            "{label} w{w}: transmitted"
        );
        assert_eq!(
            by_flow(&iout),
            by_flow(&cout),
            "{label} w{w}: per-flow output"
        );
    }
}

#[test]
fn consolidated_corpus_identical() {
    let clients: Vec<Ipv4Addr> = (0..16).map(|i| Ipv4Addr::new(203, 0, 113, 1 + i)).collect();
    let cfg = consolidated_config(&clients);
    let trace = mixed_trace(4096, &clients);
    assert_one_worker_identical("consolidated", &cfg, &trace);
    assert_parallel_identical("consolidated", &cfg, &trace, &[1, 2, 4, 8]);
}

#[test]
fn fig12_middlebox_kinds_identical() {
    let clients = [Ipv4Addr::new(93, 184, 216, 34)];
    let trace = mixed_trace(2048, &clients);
    for kind in ["nat", "iprouter", "firewall", "flowmeter"] {
        let cfg = middlebox_config(kind).expect("known kind");
        assert_one_worker_identical(kind, &cfg, &trace);
        assert_parallel_identical(kind, &cfg, &trace, &[1, 2, 4]);
    }
}

/// The public address the NAT gateway hides the inside network behind.
const PUBLIC: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);

/// An interleaved bidirectional trace: even rounds open connections
/// outbound (ingress 0), odd rounds send replies on the outside
/// interface (ingress 1). Connections are filtered to collision-free NAT
/// preferred ports so every reply finds its mapping in both engines.
fn bidirectional_trace(nat: bool) -> Vec<Packet> {
    let mut conns: Vec<(FlowKey, u16)> = Vec::new();
    let mut used = std::collections::BTreeSet::new();
    let mut c = 0usize;
    while conns.len() < 48 {
        let key = FlowKey {
            src: Ipv4Addr::new(10, 0, 0, (c % 250) as u8 + 1),
            dst: Ipv4Addr::new(198, 51, 100, (c % 250) as u8 + 1),
            proto: IpProto::Udp,
            src_port: 5000 + c as u16,
            dst_port: 53,
        };
        c += 1;
        let mapped = IpNat::preferred_port(&key);
        if used.insert(mapped) {
            conns.push((key, mapped));
        }
    }
    let mut pkts = Vec::new();
    for r in 0..16 {
        for (key, mapped) in &conns {
            if r % 2 == 0 {
                pkts.push(
                    PacketBuilder::udp()
                        .src(key.src, key.src_port)
                        .dst(key.dst, key.dst_port)
                        .pad_to(64 + (r % 5) * 16)
                        .build(),
                );
            } else {
                let (dst, dport) = if nat {
                    (PUBLIC, *mapped)
                } else {
                    (key.src, key.src_port)
                };
                let mut reply = PacketBuilder::udp()
                    .src(key.dst, key.dst_port)
                    .dst(dst, dport)
                    .pad_to(64 + (r % 5) * 16)
                    .build();
                reply.meta.ingress = 1;
                pkts.push(reply);
            }
        }
    }
    pkts
}

#[test]
fn stateful_bidirectional_corpora_identical() {
    for (label, cfg, nat) in [
        ("natgw-bidir", nat_gateway_config(PUBLIC), true),
        ("statefulfw-bidir", stateful_firewall_config(), false),
    ] {
        let trace = bidirectional_trace(nat);
        assert_one_worker_identical(label, &cfg, &trace);
        assert_parallel_identical(label, &cfg, &trace, &[1, 2, 4, 8]);
    }
}

// ---------------------------------------------------------------------------
// Property test: random verified configs through both engines directly.
// ---------------------------------------------------------------------------

/// Element templates the generator wires together. Index 0 must be an
/// entry so every generated config can receive traffic.
const TEMPLATES: &[(&str, &[&str])] = &[
    ("FromNetfront", &[]),
    ("ToNetfront", &[]),
    ("IPClassifier", &["dst host 203.0.113.7", "udp", "-"]),
    ("IPFilter", &["allow udp dst port 80", "deny tcp"]),
    ("Classifier", &["12/0800", "-"]),
    ("CheckIPHeader", &[]),
    ("DecIPTTL", &[]),
    ("Counter", &[]),
    ("StaticIPLookup", &["203.0.113.0/24 0", "0.0.0.0/0 1"]),
    ("IPNAT", &["203.0.113.1"]),
    ("Tee", &["2"]),
];

/// Builds a config from generator choices: `classes[i]` picks the
/// template for element `i`; `edges` are raw `(from, port, to)` triples
/// reduced modulo the sizes (duplicate `(from, port)` pairs are skipped
/// to respect the single-wire fanout rule).
fn build_random_config(classes: &[usize], edges: &[(usize, usize, usize)]) -> ClickConfig {
    let mut cfg = ClickConfig::new();
    cfg.add_element("e0", "FromNetfront", &[]);
    for (i, &c) in classes.iter().enumerate() {
        let (class, args) = TEMPLATES[c % TEMPLATES.len()];
        cfg.add_element(format!("e{}", i + 1), class, args);
    }
    let n = classes.len() + 1;
    let mut wired = std::collections::BTreeSet::new();
    for &(f, p, t) in edges {
        let (f, p, t) = (f % n, p % 3, t % n);
        // Skip self-loops: they are legal (and covered by a dedicated
        // unit test) but burn the full hop budget per packet, which
        // makes the property test needlessly slow.
        if f == t || !wired.insert((f, p)) {
            continue;
        }
        cfg.connect(format!("e{f}"), p, format!("e{t}"), 0);
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any verified random wiring must push identically through the
    /// interpreter and the compiled plan: same outputs in the same
    /// order, same stats, same error behaviour.
    #[test]
    fn random_configs_push_identically(
        classes in proptest::collection::vec(0usize..11, 1..6),
        edges in proptest::collection::vec((0usize..8, 0usize..3, 0usize..8), 0..10),
        seed in 0usize..4,
    ) {
        let cfg = build_random_config(&classes, &edges);
        if cfg.validate().is_err() {
            // Not a verified config; out of scope.
            return Ok(());
        }
        let registry = Registry::standard();
        // Construction itself must agree: `validate()` does not check
        // port arity, so some generated wirings are rejected at build
        // time — by both engines, or by neither.
        let (mut interp, mut compiled) =
            match (Router::from_config(&cfg, &registry), CompiledRouter::compile(&cfg, &registry)) {
                (Ok(i), Ok(c)) => (i, c),
                (Err(_), Err(_)) => return Ok(()),
                (i, c) => {
                    return Err(format!(
                        "engines disagree on validity: interp {:?} vs compiled {:?}",
                        i.map(|_| ()),
                        c.map(|_| ())
                    ));
                }
            };
        let clients = [Ipv4Addr::new(203, 0, 113, 7), Ipv4Addr::new(10, 0, 0, 1)];
        let trace = mixed_trace(24 + seed, &clients);
        let ir = interp.push_batch(trace.clone(), 1_000, 100);
        let cr = compiled.push_batch(trace, 1_000, 100);
        prop_assert_eq!(ir, cr);
        let itx = interp.take_tx();
        let ctx = compiled.take_tx();
        prop_assert_eq!(itx.len(), ctx.len());
        for ((ie, ip), (ce, cp)) in itx.iter().zip(ctx.iter()) {
            prop_assert_eq!(ie, ce);
            prop_assert_eq!(ip.bytes(), cp.bytes());
        }
        prop_assert_eq!(interp.stats.clone(), compiled.stats.clone());
    }
}
