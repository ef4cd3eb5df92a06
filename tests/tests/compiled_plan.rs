//! Differential suite for the compiled flat plan: with
//! `RunnerConfig::compiled(true)`, every corpus must produce byte- and
//! order-identical output to the interpreted `Router` — the interpreter
//! stays the semantic oracle, the compiled plan is only allowed to be
//! faster.
//!
//! Covered: the consolidated multi-tenant firewall, every Figure 12
//! middlebox kind, and the bidirectional stateful corpus (NAT gateway +
//! stateful firewall), each single-threaded and flow-sharded at
//! 1/2/4/8 workers. A seeded generator then drives randomly wired
//! configurations from the standard element registry through both
//! engines directly. Single-threaded corpora and generated configs also
//! run through a booting ClickOS VM, which runs the compiled plan, and
//! an `IPNAT` tenant's mappings must survive live migration between
//! hosts.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use innet::click::elements::IpNat;
use innet::click::CompiledRouter;
use innet::platform::{
    consolidated_config, middlebox_config, nat_gateway_config, plain_firewall,
    stateful_firewall_config, Delivery, Host, VmId,
};
use innet::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

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

/// Single-threaded contract: the compiled one-worker runner's output,
/// and a ClickOS VM's, must be identical to the interpreted runner's —
/// same egress, same bytes, same total order, same packet accounting.
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
    // A ClickOS VM runs the plan too, with a quarter of the trace
    // buffered while it boots.
    let mut host = Host::new(1024);
    let vm = host.boot_clickos(cfg, 0).unwrap();
    let (vout, _) = run_on_vm(&mut host, vm, trace, trace.len() / 4);
    for (engine, out) in [("compiled", &cout), ("VM", &vout)] {
        assert_eq!(iout.len(), out.len(), "{label}: {engine} output count");
        for (n, ((ie, ip), (e, p))) in iout.iter().zip(out.iter()).enumerate() {
            assert_eq!(ie, e, "{label}: {engine} egress of output packet {n}");
            assert_eq!(
                ip.bytes(),
                p.bytes(),
                "{label}: {engine} bytes of output packet {n}"
            );
        }
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

/// The plans the benchmark's `pkt-*` workloads run, pinned stage by
/// stage: 64 consolidated tenants, the plain firewall and the NAT gateway.
/// Every stage but `IPNAT` lowers natively. A lowering whose downcast
/// misses the concrete element (one that upcasts the `Box` instead of the
/// element inside it) would leave every stage `dyn(..)` and run every
/// packet interpreted; it fails here.
#[test]
fn packet_workload_plans_are_pinned() {
    let registry = Registry::standard();
    let plan = |cfg: &ClickConfig| CompiledRouter::compile(cfg, &registry).unwrap().describe();
    let tenants: Vec<Ipv4Addr> = (1..=64).map(|i| Ipv4Addr::new(203, 0, 113, i)).collect();
    let mut demux = vec!["entry(0)", "exit(0)", "classify(64 host-table)"];
    demux.extend(["fused[filter]"; 64]);
    assert_eq!(plan(&consolidated_config(&tenants)), demux);
    assert_eq!(
        plan(&plain_firewall()),
        ["entry(0)", "fused[filter]", "exit(0)"]
    );
    assert_eq!(
        plan(&nat_gateway_config(PUBLIC)),
        ["entry(0)", "entry(1)", "dyn(IPNAT)", "exit(1)", "exit(0)"]
    );
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

/// Element templates the generator wires together.
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

/// A random configuration: `e0 :: FromNetfront()`, one to five template
/// elements and a final `ToNetfront()`. One chain runs from `e0` through
/// a random subset of the elements that have outputs to the final
/// `ToNetfront`, so traffic can reach an exit; up to nine extra wires
/// follow. Every wire leaves on a random output port below its
/// element's arity and enters input port 0. Duplicate `(from, port)`
/// pairs are skipped to respect the single-wire fanout rule, and so are
/// self-loops: they are legal (and covered by a dedicated unit test) but
/// burn the full hop budget per packet, which makes the test needlessly
/// slow.
fn random_config(rng: &mut StdRng, registry: &Registry) -> ClickConfig {
    let mut decls: Vec<(&str, &[&str])> = vec![TEMPLATES[0]];
    for _ in 0..rng.gen_range(1..6) {
        decls.push(TEMPLATES[rng.gen_range(0..TEMPLATES.len())]);
    }
    decls.push(TEMPLATES[1]);
    let mut cfg = ClickConfig::new();
    let mut outputs = Vec::with_capacity(decls.len());
    for (i, &(class, args)) in decls.iter().enumerate() {
        let owned: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let element = registry
            .instantiate(class, &owned)
            .expect("templates build");
        outputs.push(element.ports().outputs);
        cfg.add_element(format!("e{i}"), class, args);
    }
    let last = decls.len() - 1;
    let mut wired = BTreeSet::new();
    let mut wire = |cfg: &mut ClickConfig, rng: &mut StdRng, from: usize, to: usize| {
        let port = rng.gen_range(0..outputs[from]);
        if from != to && wired.insert((from, port)) {
            cfg.connect(format!("e{from}"), port, format!("e{to}"), 0);
        }
    };
    let mut prev = 0;
    for (i, &n) in outputs.iter().enumerate().take(last).skip(1) {
        if n > 0 && rng.gen_bool(0.5) {
            wire(&mut cfg, rng, prev, i);
            prev = i;
        }
    }
    wire(&mut cfg, rng, prev, last);
    for _ in 0..rng.gen_range(0..10) {
        let (from, to) = (rng.gen_range(0..=last), rng.gen_range(0..=last));
        if outputs[from] > 0 {
            wire(&mut cfg, rng, from, to);
        }
    }
    cfg
}

/// A deliberately ill-formed variant of a random configuration, so that
/// the "every engine refuses it" leg runs: `defect` 0 adds a wire that
/// leaves an output port at or past its element's arity, 1 declares an
/// element of an unknown class, 2 wires from an element nobody declared.
fn ill_formed_config(rng: &mut StdRng, registry: &Registry, defect: u64) -> ClickConfig {
    let mut cfg = random_config(rng, registry);
    let last = cfg.elements.len() - 1;
    let pick = rng.gen_range(0..=last);
    match defect {
        0 => {
            let decl = &cfg.elements[pick];
            let arity = registry
                .instantiate(&decl.class, &decl.args)
                .expect("templates build")
                .ports()
                .outputs;
            let from = decl.name.clone();
            cfg.connect(
                from,
                arity + rng.gen_range(0..2usize),
                format!("e{last}"),
                0,
            );
        }
        1 => {
            cfg.add_element("unknown", "NoSuchElement", &[]);
        }
        _ => cfg.connect("undeclared", 0, format!("e{pick}"), 0),
    }
    cfg
}

/// Seed of [`random_configs_push_identically`]'s generator.
const RANDOM_CONFIG_SEED: u64 = 0x1a7e_57ab_1e5e_ed00;

/// Any random wiring must push identically through the interpreter,
/// the compiled plan and a ClickOS VM on a `Host`: same outputs in the
/// same order, same stats, same error behaviour. The VM gets part of the
/// trace while it boots (buffered, then flushed when it becomes
/// runnable) and the rest once it runs. After the well-formed cases come
/// ill-formed ones ([`ill_formed_config`]), which every engine must
/// refuse alike. Floors on the cases that build, that transmit and that
/// every engine refuses keep the generator reaching the code it checks.
#[test]
fn random_configs_push_identically() {
    const CASES: u64 = 24;
    const ILL_FORMED: u64 = 9;
    println!(
        "random_configs_push_identically: seed {RANDOM_CONFIG_SEED:#x}, \
         {CASES} cases and {ILL_FORMED} ill-formed ones"
    );
    let registry = Registry::standard();
    let (mut built, mut transmitting, mut refused) = (0, 0, 0);
    for case in 0..CASES + ILL_FORMED {
        let mut rng = StdRng::seed_from_u64(RANDOM_CONFIG_SEED ^ case);
        let cfg = match case.checked_sub(CASES) {
            None => random_config(&mut rng, &registry),
            Some(k) => ill_formed_config(&mut rng, &registry, k % 3),
        };
        let variant = rng.gen_range(0..4);
        match push_identically(&cfg, &registry, variant) {
            Ok(None) => refused += 1,
            Ok(Some(tx)) => {
                built += 1;
                transmitting += usize::from(tx > 0);
            }
            Err(msg) => panic!(
                "case {case} (seed {RANDOM_CONFIG_SEED:#x}): {msg}\n{}",
                cfg.canonical_text()
            ),
        }
    }
    println!(
        "{built} of {CASES} cases built, {transmitting} transmitted; \
         {refused} of {} refused by every engine",
        CASES + ILL_FORMED
    );
    assert!(built >= BUILT_FLOOR, "{built} of {CASES} cases built");
    assert!(
        transmitting >= TRANSMITTING_FLOOR,
        "{transmitting} of {CASES} cases transmitted"
    );
    assert!(
        refused >= REFUSED_FLOOR,
        "{refused} of {} cases refused",
        CASES + ILL_FORMED
    );
}

/// Cases of [`random_configs_push_identically`] that must build, that
/// must transmit and that every engine must refuse: measured 24 and 21
/// of the 24 well-formed cases, and 9 of all 33, at
/// [`RANDOM_CONFIG_SEED`], less a margin. Never lowered to pass.
const BUILT_FLOOR: usize = 20;
const TRANSMITTING_FLOOR: usize = 16;
const REFUSED_FLOOR: usize = 7;

/// Runs one generated case through the three engines. `Ok(None)`: every
/// engine refused to build it; `Ok(Some(n))`: all three built it and
/// transmitted the same `n` packets.
fn push_identically(
    cfg: &ClickConfig,
    registry: &Registry,
    variant: usize,
) -> Result<Option<usize>, String> {
    // Construction itself must agree: some generated wirings are
    // rejected at build time — by every engine, or by none.
    let mut host = Host::new(1024);
    let (mut interp, mut compiled, vm) = match (
        Router::from_config(cfg, registry),
        CompiledRouter::compile(cfg, registry),
        host.boot_clickos(cfg, 0),
    ) {
        (Ok(i), Ok(c), Ok(vm)) => (i, c, vm),
        (Err(_), Err(_), Err(_)) => return Ok(None),
        (i, c, vm) => {
            return Err(format!(
                "engines disagree on validity: interp {:?} vs compiled {:?} vs VM {:?}",
                i.map(|_| ()),
                c.map(|_| ()),
                vm.map(|_| ())
            ));
        }
    };
    let clients = [Ipv4Addr::new(203, 0, 113, 7), Ipv4Addr::new(10, 0, 0, 1)];
    let trace = mixed_trace(24 + variant, &clients);
    let ir = interp.push_batch(trace.clone(), 1_000, 100);
    let cr = compiled.push_batch(trace.clone(), 1_000, 100);
    check_eq(&ir, &cr, "batch result")?;
    let itx = interp.take_tx();
    let ctx = compiled.take_tx();
    check_eq(&itx.len(), &ctx.len(), "compiled output count")?;
    for (n, ((ie, ip), (ce, cp))) in itx.iter().zip(ctx.iter()).enumerate() {
        check_eq(ie, ce, &format!("egress of compiled output {n}"))?;
        check_eq(
            &ip.bytes(),
            &cp.bytes(),
            &format!("bytes of compiled output {n}"),
        )?;
    }
    check_eq(&interp.stats, &compiled.stats, "compiled stats")?;

    let split = (variant + 1) * trace.len() / 5;
    let (vtx, buffered) = run_on_vm(&mut host, vm, &trace, split);
    check_eq(&buffered, &split, "packets buffered during boot")?;
    check_eq(&vtx.len(), &itx.len(), "VM output count")?;
    for (n, ((ie, ip), (ve, vp))) in itx.iter().zip(vtx.iter()).enumerate() {
        check_eq(ie, ve, &format!("egress of VM output {n}"))?;
        check_eq(&ip.bytes(), &vp.bytes(), &format!("bytes of VM output {n}"))?;
    }
    let vm_stats = host
        .vm(vm)
        .unwrap()
        .router
        .as_ref()
        .expect("ClickOS VM")
        .stats;
    check_eq(&interp.stats, &vm_stats, "VM stats")?;
    Ok(Some(itx.len()))
}

fn check_eq<T: PartialEq + std::fmt::Debug + ?Sized>(
    want: &T,
    got: &T,
    what: &str,
) -> Result<(), String> {
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "{what}: interpreter {want:?}, other engine {got:?}"
        ))
    }
}

/// Feeds `trace` to a freshly booted ClickOS VM: the first `split`
/// packets while it boots, the rest once it runs, each at its ingress
/// interface. Returns the VM's `(egress, packet)` output in order and
/// how many packets the host buffered.
fn run_on_vm(
    host: &mut Host,
    vm: VmId,
    trace: &[Packet],
    split: usize,
) -> (Vec<(u16, Packet)>, usize) {
    let ready_at = host.next_due().expect("the VM is booting");
    let mut out = Vec::new();
    let mut buffered = 0;
    for (n, pkt) in trace.iter().enumerate() {
        if n == split {
            out.extend(host.advance(ready_at).into_iter().map(|(_, e, p)| (e, p)));
        }
        let now = if n < split {
            n as u64
        } else {
            ready_at + n as u64
        };
        let (delivery, tx) = host
            .deliver_tracked(vm, pkt.meta.ingress, pkt.clone(), now)
            .unwrap();
        buffered += usize::from(delivery == Delivery::Buffered);
        out.extend(tx);
    }
    if split == trace.len() {
        out.extend(host.advance(ready_at).into_iter().map(|(_, e, p)| (e, p)));
    }
    (out, buffered)
}

/// A NAT tenant migrates live: mappings opened on one host translate
/// the replies delivered to the VM after it is implanted on another,
/// exactly as an interpreted router that never moved translates them.
#[test]
fn nat_tenant_mappings_survive_migration() {
    let cfg = nat_gateway_config(PUBLIC);
    let trace = bidirectional_trace(true);
    // The trace's first round opens every connection outbound; its
    // second round is the replies.
    let opened = trace.iter().take_while(|p| p.meta.ingress == 0).count();
    assert_eq!(opened, 48);

    let mut oracle = Router::from_config(&cfg, &Registry::standard()).unwrap();
    for (n, pkt) in trace.iter().enumerate() {
        oracle
            .deliver(pkt.meta.ingress, pkt.clone(), n as u64)
            .unwrap();
    }
    let want = oracle.take_tx();

    let mut src = Host::new(1024);
    let vm = src.boot_clickos(&cfg, 0).unwrap();
    let (mut got, buffered) = run_on_vm(&mut src, vm, &trace[..opened], opened / 3);
    assert_eq!(buffered, opened / 3);
    assert_eq!(got.len(), opened, "every outbound packet is translated");

    let now = src.next_due().unwrap_or(0).max(1_000_000_000);
    let done = src.suspend(vm, now).unwrap();
    src.advance(done);
    let moved = src.extract(vm).unwrap();
    let mut dst = Host::new(1024);
    let (vm, ready) = dst.implant(moved, done).unwrap();
    dst.advance(ready);
    for (n, pkt) in trace[opened..].iter().enumerate() {
        let tx = dst
            .deliver(vm, pkt.meta.ingress, pkt.clone(), ready + n as u64)
            .unwrap();
        if n < opened {
            // A reply: translated back to the inside host that opened it.
            assert_eq!(tx.len(), 1, "reply {n} found its migrated mapping");
            assert_eq!(tx[0].0, 0);
            let inside = FlowKey::of(&trace[n]).unwrap();
            let back = FlowKey::of(&tx[0].1).unwrap();
            assert_eq!((back.dst, back.dst_port), (inside.src, inside.src_port));
        }
        got.extend(tx);
    }
    assert_eq!(got.len(), want.len(), "output count");
    for (n, ((we, wp), (ge, gp))) in want.iter().zip(got.iter()).enumerate() {
        assert_eq!(we, ge, "egress of output packet {n}");
        assert_eq!(wp.bytes(), gp.bytes(), "bytes of output packet {n}");
    }
}
