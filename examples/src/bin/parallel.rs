//! Flow-sharded parallel execution: scale the stock consolidated
//! firewall across worker threads with the unified `RunnerConfig`
//! builder, observe the `innet_parallel_*` instruments, shard a
//! bidirectional NAT gateway under the symmetric partition hash, and
//! verify the global-state degrade rule on a queue.
//!
//! Every worker count runs the same loop: one worker in the calling
//! thread over the whole trace, more on one thread per replica over its
//! flow-hash share. The run prints the 2-worker/1-worker ratio, and
//! exits non-zero if 4 workers fail to reach 1.5x the single-worker rate
//! on the stateless corpus — the smoke threshold CI enforces (the full
//! ≥3x target is measured by the `parallel_scaling` bench). The speedup
//! gate only applies on hosts with at least 4 CPUs: on fewer cores the
//! workers time-slice one another, so the run still checks every
//! correctness invariant but reports the scaling numbers as
//! informational.
//!
//! Run with: `cargo run --release -p innet-examples --bin parallel`

use std::net::Ipv4Addr;

use innet::obs;
use innet::platform::consolidated_config;
use innet::prelude::*;

const TRACE_LEN: usize = 4096;
const FLOWS: usize = 64;
const ROUNDS: usize = 40;

fn trace(dsts: &[Ipv4Addr]) -> Vec<Packet> {
    (0..TRACE_LEN)
        .map(|i| {
            let f = i % FLOWS;
            PacketBuilder::udp()
                .src(Ipv4Addr::new(8, 8, 0, (f % 250) as u8 + 1), 4000 + f as u16)
                .dst(dsts[f % dsts.len()], 80)
                .pad_to(64)
                .build()
        })
        .collect()
}

fn main() {
    // The paper's §5 consolidated firewall: one demux, 16 tenant
    // firewalls. Stateless end to end, so the registry clears it for
    // flow-sharded replication.
    let clients: Vec<Ipv4Addr> = (0..16).map(|i| Ipv4Addr::new(203, 0, 113, 1 + i)).collect();
    let cfg = consolidated_config(&clients);
    let pkts = trace(&clients);

    println!("== consolidated firewall (16 tenants), {TRACE_LEN}-packet trace x{ROUNDS} ==");
    let mut baseline = 0.0;
    let mut at2 = 0.0;
    let mut at4 = 0.0;
    for workers in [1usize, 2, 4, 8] {
        let reg = obs::Registry::new();
        let mut runner = RunnerConfig::new()
            .workers(workers)
            .batch(32)
            .metrics(&reg)
            .parallel(&cfg)
            .expect("valid config");
        let stats = runner.run(&pkts, ROUNDS);
        assert_eq!(stats.transmitted, stats.packets, "nothing lost");
        let speedup = if baseline > 0.0 {
            stats.pps() / baseline
        } else {
            1.0
        };
        if workers == 1 {
            baseline = stats.pps();
        }
        if workers == 2 {
            at2 = stats.pps();
        }
        if workers == 4 {
            at4 = stats.pps();
        }
        // Every worker reports its own share through the shared registry.
        let per_worker = reg.labeled_counter("innet_parallel_packets_total", "worker");
        let shares: Vec<String> = (0..workers)
            .map(|w| format!("w{w}={}", per_worker.get(&w.to_string())))
            .collect();
        println!(
            "  {workers} worker(s): {:>8.0} kpps  ({speedup:.2}x)   [{}]",
            stats.pps() / 1e3,
            shares.join(" ")
        );
    }

    // The compiled flat plan: the same verified config lowered to a
    // host-table dispatch + fused header ops, behind one builder flag.
    // Both engines must agree packet-for-packet (the differential suite
    // proves it); here we show the flag and the single-worker delta.
    println!("== engine: compiled (flat plan vs interpreted graph, 1 worker) ==");
    let mut interp = RunnerConfig::new().batch(32).parallel(&cfg).expect("valid");
    let mut comp = RunnerConfig::new()
        .batch(32)
        .compiled(true)
        .parallel(&cfg)
        .expect("valid");
    let si = interp.run(&pkts, ROUNDS / 4);
    let sc = comp.run(&pkts, ROUNDS / 4);
    assert_eq!(sc.transmitted, si.transmitted, "engines agree on delivery");
    println!(
        "  interpreted {:>8.0} kpps | compiled {:>8.0} kpps ({:.2}x)",
        si.offered_pps() / 1e3,
        sc.offered_pps() / 1e3,
        sc.offered_pps() / si.offered_pps()
    );

    // Sharded NAT: per-connection state is flow-partitionable, so a
    // bidirectional NAT gateway runs on all requested workers — the
    // symmetric partition hash pins each connection's forward packets
    // and its publicly-addressed replies to the same replica.
    let public = Ipv4Addr::new(203, 0, 113, 1);
    let nat = nat_gateway_config(public);
    let mut runner = RunnerConfig::new()
        .workers(4)
        .batch(32)
        .parallel(&nat)
        .expect("valid config");
    println!("== sharded NAT (symmetric partition) ==");
    println!(
        "  IPNAT gateway: requested {} workers, running {} (verdict: {:?})",
        runner.requested_workers(),
        runner.effective_workers(),
        runner.shardability()
    );
    assert_eq!(runner.shardability(), Shardability::FlowPartitionable);
    assert_eq!(runner.effective_workers(), 4);
    // Interleaved forward and reverse traffic: every reply must find
    // its mapping on the replica that created it. The NAT allocates
    // public ports as a pure hash of the flow key, so replies can
    // target the mapped port up front; the corpus skips the rare
    // preferred-port collision so every allocation is its preferred.
    let mut conns: Vec<(FlowKey, u16)> = Vec::new();
    let mut used_ports = std::collections::BTreeSet::new();
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
        let mapped = innet::click::elements::IpNat::preferred_port(&key);
        if used_ports.insert(mapped) {
            conns.push((key, mapped));
        }
    }
    let mut nat_trace: Vec<Packet> = Vec::new();
    for round in 0..4 {
        for (key, mapped) in &conns {
            if round % 2 == 0 {
                nat_trace.push(
                    PacketBuilder::udp()
                        .src(key.src, key.src_port)
                        .dst(key.dst, key.dst_port)
                        .pad_to(64)
                        .build(),
                );
            } else {
                let mut reply = PacketBuilder::udp()
                    .src(key.dst, key.dst_port)
                    .dst(public, *mapped)
                    .pad_to(64)
                    .build();
                reply.meta.ingress = 1;
                nat_trace.push(reply);
            }
        }
    }
    let stats = runner.run(&nat_trace, 1);
    assert_eq!(
        stats.transmitted, stats.packets,
        "every reply found its mapping across {} workers",
        stats.workers
    );
    println!(
        "  {} bidirectional packets across {} workers, all translated",
        stats.packets, stats.workers
    );

    // The global-state degrade rule, visibly: a queue shares timing
    // state across every flow, so it requests 4 workers and runs on 1.
    let queued =
        ClickConfig::parse("FromNetfront() -> Queue(64) -> TimedUnqueue(1, 64) -> ToNetfront();")
            .expect("valid literal config");
    let runner = RunnerConfig::new()
        .workers(4)
        .parallel(&queued)
        .expect("valid config");
    println!("== global-state degrade ==");
    println!(
        "  Queue: requested {} workers, running {} (verdict: {:?})",
        runner.requested_workers(),
        runner.effective_workers(),
        runner.shardability()
    );
    assert_eq!(runner.shardability(), Shardability::Global);
    assert_eq!(runner.effective_workers(), 1);

    let speedup4 = at4 / baseline;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "== 2-worker/1-worker ratio: {:.2}x on {cores} core(s) (reported, not gated) ==",
        at2 / baseline
    );
    if cores >= 4 {
        println!("== verdict: 4-worker speedup {speedup4:.2}x on {cores} cores (smoke threshold 1.5x) ==");
        assert!(
            speedup4 >= 1.5,
            "expected >=1.5x at 4 workers on a {cores}-core host, measured {speedup4:.2}x"
        );
    } else {
        println!(
            "== verdict: 4-worker speedup {speedup4:.2}x on {cores} core(s) — \
             speedup gate skipped (needs >=4 CPUs to be meaningful) =="
        );
    }
}
