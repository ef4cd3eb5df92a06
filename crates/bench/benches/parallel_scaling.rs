//! Flow-sharded scaling: `ParallelRunner` throughput across worker and
//! batch sweeps on both engines (interpreted element graph vs compiled
//! flat plan). Every worker count runs the same loop — one worker in the
//! calling thread, more on one thread per replica over its flow-hash
//! share — and only counts the host has cores for are swept.
//!
//! Three corpora: the stock consolidated firewall (the paper's
//! §5/Figure 8 multi-tenant configuration — stateless, so it shards
//! under the directed hash), the Figure 12 middlebox corpus (now
//! including `nat` as a flow-partitionable configuration that shards
//! under the symmetric hash), and a bidirectional stateful corpus (NAT
//! gateway + stateful firewall driven with interleaved forward and
//! reverse traffic — the scaling the symmetric partition hash buys).
//!
//! Besides the criterion-style timings, the bench records a
//! `BENCH_parallel_scaling.json` snapshot (interpreted vs compiled pps
//! per corpus per worker count) — the machine-readable perf trajectory
//! committed alongside the code.

use criterion::{black_box, Criterion};
use innet::click::elements::IpNat;
use innet::platform::{
    consolidated_config, middlebox_config, nat_gateway_config, stateful_firewall_config,
    RunnerConfig,
};
use innet::prelude::*;
use innet_bench::{quick_mode, Snapshot};
use std::net::Ipv4Addr;

const TRACE_LEN: usize = 2048;
const FLOWS: usize = 64;
const FRAME: usize = 64;

fn clients(n: usize) -> Vec<Ipv4Addr> {
    (0..n)
        .map(|i| Ipv4Addr::new(203, 0, (113 + i / 250) as u8, (1 + i % 250) as u8))
        .collect()
}

fn trace(dsts: &[Ipv4Addr]) -> Vec<Packet> {
    (0..TRACE_LEN)
        .map(|i| {
            let f = i % FLOWS;
            PacketBuilder::udp()
                .src(Ipv4Addr::new(8, 8, 0, (f % 250) as u8 + 1), 4000 + f as u16)
                .dst(dsts[f % dsts.len()], 80)
                .pad_to(FRAME)
                .build()
        })
        .collect()
}

/// The worker counts swept: 1, 2, 4 and 8, capped at the host's cores.
/// More workers than cores only time-slice one another, so their rows
/// would measure the scheduler, not the runner.
fn worker_counts() -> Vec<usize> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    [1, 2, 4, 8].into_iter().filter(|&w| w <= nproc).collect()
}

/// Workers × batch ∈ {1, 32, 256} on the stock consolidated firewall,
/// interpreted and compiled.
fn bench_consolidated_sweep(c: &mut Criterion) {
    let addrs = clients(16);
    let cfg = consolidated_config(&addrs);
    let pkts = trace(&addrs);
    for compiled in [false, true] {
        let engine = if compiled { "compiled" } else { "interp" };
        for workers in worker_counts() {
            for batch in [1usize, 32, 256] {
                let name = format!("parallel_consolidated16_{engine}_w{workers}_b{batch}");
                c.bench_function(&name, |b| {
                    let mut runner = RunnerConfig::new()
                        .workers(workers)
                        .batch(batch)
                        .compiled(compiled)
                        .parallel(&cfg)
                        .unwrap();
                    b.iter(|| black_box(runner.run(&pkts, 1)));
                });
            }
        }
    }
}

/// The Figure 12 middlebox corpus at every swept worker count, both
/// engines. `nat` and `flowmeter` keep per-connection state only
/// (flow-partitionable): they shard under the symmetric hash, so their
/// multi-worker rows scale like the stateless kinds instead of pinning
/// to one worker.
fn bench_middlebox_corpus(c: &mut Criterion) {
    let dsts = [Ipv4Addr::new(10, 0, 0, 1)];
    let pkts = trace(&dsts);
    for kind in ["firewall", "iprouter", "flowmeter", "nat"] {
        let cfg = middlebox_config(kind).expect("known middlebox kind");
        for compiled in [false, true] {
            let engine = if compiled { "compiled" } else { "interp" };
            for workers in worker_counts() {
                let name = format!("parallel_{kind}_{engine}_w{workers}_b32");
                c.bench_function(&name, |b| {
                    let mut runner = RunnerConfig::new()
                        .workers(workers)
                        .batch(32)
                        .compiled(compiled)
                        .parallel(&cfg)
                        .unwrap();
                    b.iter(|| black_box(runner.run(&pkts, 1)));
                });
            }
        }
    }
}

/// An interleaved bidirectional trace for the stateful corpus: even
/// rounds send outbound openers (ingress 0), odd rounds send replies
/// arriving on the outside interface (ingress 1). For the NAT gateway,
/// replies target the deterministic mapped port on the public address;
/// for the firewall they target the inside host directly. Connections
/// are filtered to collision-free NAT preferred ports so every reply
/// finds its mapping.
fn bidirectional_trace(public: Ipv4Addr, nat: bool) -> Vec<Packet> {
    let mut conns: Vec<(FlowKey, u16)> = Vec::new();
    let mut used = std::collections::BTreeSet::new();
    let mut c = 0usize;
    while conns.len() < FLOWS {
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
    let rounds = TRACE_LEN / FLOWS;
    let mut pkts = Vec::with_capacity(rounds * FLOWS);
    for r in 0..rounds {
        for (key, mapped) in &conns {
            if r % 2 == 0 {
                pkts.push(
                    PacketBuilder::udp()
                        .src(key.src, key.src_port)
                        .dst(key.dst, key.dst_port)
                        .pad_to(FRAME)
                        .build(),
                );
            } else {
                let (dst, dport) = if nat {
                    (public, *mapped)
                } else {
                    (key.src, key.src_port)
                };
                let mut reply = PacketBuilder::udp()
                    .src(key.dst, key.dst_port)
                    .dst(dst, dport)
                    .pad_to(FRAME)
                    .build();
                reply.meta.ingress = 1;
                pkts.push(reply);
            }
        }
    }
    pkts
}

/// The stateful corpus: bidirectional NAT gateway and stateful firewall
/// at every swept worker count under the symmetric partition hash — the
/// configurations that used to degrade to one worker.
fn bench_stateful_corpus(c: &mut Criterion) {
    let public = Ipv4Addr::new(203, 0, 113, 1);
    let corpus = [
        ("natgw", nat_gateway_config(public), true),
        ("statefulfw", stateful_firewall_config(), false),
    ];
    for (kind, cfg, is_nat) in corpus {
        let pkts = bidirectional_trace(public, is_nat);
        for workers in worker_counts() {
            let name = format!("parallel_{kind}_bidir_w{workers}_b32");
            c.bench_function(&name, |b| {
                let mut runner = RunnerConfig::new()
                    .workers(workers)
                    .batch(32)
                    .parallel(&cfg)
                    .unwrap();
                assert_eq!(runner.effective_workers(), workers);
                b.iter(|| black_box(runner.run(&pkts, 1)));
            });
        }
    }
}

/// Measured pps/gbps for one corpus on one engine at one worker count.
///
/// Every corpus here forwards every packet, so the delivered rate read
/// below equals the offered rate the one-worker rows have always
/// recorded.
///
/// Each point is the best of `reps` timed repetitions: ambient load on a
/// shared machine only ever slows a run, so the max is the noise-robust
/// estimate of what the engine sustains.
fn measure(
    cfg: &innet::click::ClickConfig,
    pkts: &[Packet],
    workers: usize,
    compiled: bool,
    rounds: usize,
    reps: usize,
) -> (f64, f64) {
    let mut best = (0.0f64, 0.0f64);
    let mut runner = RunnerConfig::new()
        .workers(workers)
        .batch(32)
        .compiled(compiled)
        .parallel(cfg)
        .unwrap();
    runner.run(pkts, 1); // warm-up
    for _ in 0..reps {
        let stats = runner.run(pkts, rounds);
        assert_eq!(stats.transmitted, stats.packets, "corpus forwards all");
        if stats.pps() > best.0 {
            best = (stats.pps(), stats.gbps(FRAME));
        }
    }
    best
}

/// Emits `BENCH_parallel_scaling.json`: interpreted vs compiled pps for
/// the consolidated and stateful corpora per worker count.
fn emit_snapshot(quick: bool) {
    let (rounds, reps) = if quick { (4, 2) } else { (150, 5) };
    let worker_counts = worker_counts();
    let mut snap = Snapshot::new("parallel_scaling");

    // Two tenant counts: the growth from 16 to 64 is where the compiled
    // host-table dispatch pulls away — the interpreter's classifier
    // scan is linear in the tenant count, the table probe is not.
    for (label, nclients) in [("consolidated", 16), ("consolidated64", 64)] {
        let addrs = clients(nclients);
        let consolidated = consolidated_config(&addrs);
        let cons_pkts = trace(&addrs);
        for &workers in &worker_counts {
            for compiled in [false, true] {
                let (pps, gbps) =
                    measure(&consolidated, &cons_pkts, workers, compiled, rounds, reps);
                let mode = if compiled { "compiled" } else { "interpreted" };
                snap.row([
                    ("corpus", label.into()),
                    ("mode", mode.into()),
                    ("workers", (workers as u64).into()),
                    ("pps", pps.into()),
                    ("gbps", gbps.into()),
                ]);
            }
        }
    }

    let public = Ipv4Addr::new(203, 0, 113, 1);
    for (kind, cfg, is_nat) in [
        ("natgw-bidir", nat_gateway_config(public), true),
        ("statefulfw-bidir", stateful_firewall_config(), false),
    ] {
        let pkts = bidirectional_trace(public, is_nat);
        for &workers in &worker_counts {
            for compiled in [false, true] {
                let (pps, gbps) = measure(&cfg, &pkts, workers, compiled, rounds, reps);
                let mode = if compiled { "compiled" } else { "interpreted" };
                snap.row([
                    ("corpus", kind.into()),
                    ("mode", mode.into()),
                    ("workers", (workers as u64).into()),
                    ("pps", pps.into()),
                    ("gbps", gbps.into()),
                ]);
            }
        }
    }

    println!();
    println!(
        "{:<20} {:>7} {:>12} {:>12} {:>8}",
        "corpus", "workers", "interp pps", "compiled pps", "speedup"
    );
    for &workers in &worker_counts {
        for corpus in [
            "consolidated",
            "consolidated64",
            "natgw-bidir",
            "statefulfw-bidir",
        ] {
            let find = |mode: &str| {
                snap.rows
                    .iter()
                    .find(|r| {
                        r.text("corpus") == Some(corpus)
                            && r.text("mode") == Some(mode)
                            && r.num("workers") == Some(workers as f64)
                    })
                    .and_then(|r| r.num("pps"))
                    .unwrap_or(0.0)
            };
            let (i, c) = (find("interpreted"), find("compiled"));
            println!(
                "{corpus:<20} {workers:>7} {i:>12.0} {c:>12.0} {:>7.2}x",
                if i > 0.0 { c / i } else { 0.0 }
            );
        }
    }
    snap.write();
}

fn main() {
    let quick = quick_mode();
    if !quick {
        let mut c = Criterion::default();
        bench_consolidated_sweep(&mut c);
        bench_middlebox_corpus(&mut c);
        bench_stateful_corpus(&mut c);
    }
    emit_snapshot(quick);
}
