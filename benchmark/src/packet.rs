//! The packet ladder: the four `pkt-*` workloads and the per-layer rungs
//! below them (pool, checksum, netfront ring, engine, sharded hand-off).

use std::net::Ipv4Addr;
use std::time::Instant;

use innet::click::elements::IpNat;
use innet::click::{ClickConfig, CompiledRouter, NetfrontRing, Registry, Router};
use innet::packet::{internet_checksum, FlowKey, IpProto, Packet, PacketBuilder, PacketPool};
use innet::platform::{
    consolidated_config, nat_gateway_config, plain_firewall, Engine, ParallelRunner, RunnerConfig,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::harness::{median_call_ns, metric, nproc, summarize, Fnv, Metric};
use crate::trace::{median_ns_of, Tracer};
use crate::{steady, untraced_reps, Ladder, Rep, Samples, Scale, Workload};

/// Packets per `push_batch` call (the `RunnerConfig` default).
const BATCH: usize = 32;
/// Virtual nanoseconds per packet, as the native runner steps time.
const STEP_NS: u64 = 1_000;
/// Packets compared between the two engines before any timing.
const GATE_PACKETS: usize = 8_192;
/// The NAT gateway's public address.
const NAT_PUBLIC: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 1);

/// Generated inputs of one `pkt-*` workload. The program under test only
/// ever sees `cfg` and `trace`.
pub struct PacketInputs {
    /// Tenant configuration.
    pub cfg: ClickConfig,
    /// The packet trace, replayed `passes` times per repetition.
    pub trace: Vec<Packet>,
    /// Passes over `trace` in one repetition.
    pub passes: usize,
    /// Whether element state carries across packets: a repetition then
    /// starts from a freshly built engine (and `passes` is 1), so every
    /// repetition does identical work.
    pub stateful: bool,
    /// Packets the interpreted oracle transmits over one pass of the
    /// trace, when the generator already ran it (the NAT generator does).
    pub oracle_tx: Option<u64>,
    /// FNV-1a over the trace bytes and ingress ports.
    pub digest: u64,
}

fn digest_of(trace: &[Packet]) -> u64 {
    let mut h = Fnv::default();
    for p in trace {
        h.write(p.bytes());
        h.write_u64(u64::from(p.meta.ingress));
    }
    h.0
}

fn tenant_addrs(n: usize) -> Vec<Ipv4Addr> {
    (0..n)
        .map(|i| Ipv4Addr::new(203, 0, (113 + i / 250) as u8, (1 + i % 250) as u8))
        .collect()
}

/// `flows` random UDP flows toward `dsts`, `per_flow` packets each, in
/// seeded random order.
fn flow_trace(
    rng: &mut StdRng,
    dsts: &[Ipv4Addr],
    flows: usize,
    per_flow: usize,
    frame: usize,
) -> Vec<Packet> {
    let templates: Vec<Packet> = (0..flows)
        .map(|_| {
            let src = Ipv4Addr::new(8, rng.gen_range(0..=255), rng.gen_range(0..=255), 1);
            PacketBuilder::udp()
                .src(src, rng.gen_range(1024..=u16::MAX))
                .dst(dsts[rng.gen_range(0..dsts.len())], 80)
                .pad_to(frame)
                .build()
        })
        .collect();
    let mut order: Vec<usize> = (0..flows * per_flow).map(|i| i % flows).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order.into_iter().map(|f| templates[f].clone()).collect()
}

/// `pkt-demux64t`: 64 consolidated tenants behind one `IPClassifier`,
/// 64 B frames, 4,096 flows.
fn demux64t(seed: u64, scale: Scale) -> PacketInputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let tenants = tenant_addrs(64);
    let trace = flow_trace(&mut rng, &tenants, 4_096, 4, 64);
    PacketInputs {
        cfg: consolidated_config(&tenants),
        digest: digest_of(&trace),
        trace,
        passes: match scale {
            Scale::Full => 4,
            Scale::Small => 2,
        },
        stateful: false,
        oracle_tx: None,
    }
}

/// `pkt-fwd1500`: near-bare forwarding at the largest frame.
fn fwd1500(seed: u64, scale: Scale) -> PacketInputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let trace = flow_trace(&mut rng, &[Ipv4Addr::new(10, 0, 0, 1)], 4_096, 1, 1_500);
    PacketInputs {
        cfg: plain_firewall(),
        digest: digest_of(&trace),
        trace,
        passes: match scale {
            Scale::Full => 8,
            Scale::Small => 2,
        },
        stateful: false,
        oracle_tx: None,
    }
}

/// `pkt-nat-churn`: alternating batches of outbound packets (ingress 0;
/// half of them open a never-seen connection, so one packet in four
/// overall) and inbound replies (ingress 1) to recently opened
/// connections. Replies need the external port the NAT allocated, so
/// the generator learns it by pushing the openers through the
/// interpreted oracle as it goes.
fn nat_churn(seed: u64, scale: Scale) -> PacketInputs {
    let batches = match scale {
        Scale::Full => 12_288, // 384 Ki packets: 96 Ki openers overflow the 63 Ki port space
        Scale::Small => 512,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = nat_gateway_config(NAT_PUBLIC);
    let mut oracle = Router::from_config(&cfg, &Registry::standard()).expect("NAT config builds");
    let mut conns: Vec<(FlowKey, u16)> = Vec::new();
    let mut trace = Vec::with_capacity(batches * BATCH);
    let mut out = Vec::new();
    let mut oracle_tx = 0u64;
    let recent = |rng: &mut StdRng, n: usize| n - 1 - rng.gen_range(0..n.min(4_096));
    for b in 0..batches {
        let outbound = b % 2 == 0;
        let mut openers = Vec::new();
        let batch: Vec<Packet> = (0..BATCH)
            .map(|i| {
                if !outbound {
                    let (key, mapped) = conns[recent(&mut rng, conns.len())];
                    let mut reply = PacketBuilder::udp()
                        .src(key.dst, key.dst_port)
                        .dst(NAT_PUBLIC, mapped)
                        .pad_to(64)
                        .build();
                    reply.meta.ingress = 1;
                    return reply;
                }
                let key = if i % 2 == 0 || conns.is_empty() {
                    let c = conns.len() + openers.len(); // never seen before
                    openers.push(i);
                    FlowKey {
                        src: Ipv4Addr::new(10, (c >> 16) as u8, (c >> 8) as u8, c as u8),
                        dst: Ipv4Addr::new(198, 51, 100, rng.gen_range(1..=250)),
                        proto: IpProto::Udp,
                        src_port: rng.gen_range(1024..=u16::MAX),
                        dst_port: 53,
                    }
                } else {
                    conns[recent(&mut rng, conns.len())].0
                };
                PacketBuilder::udp()
                    .src(key.src, key.src_port)
                    .dst(key.dst, key.dst_port)
                    .pad_to(64)
                    .build()
            })
            .collect();
        oracle.push_batch(batch.clone(), (b * BATCH) as u64 * STEP_NS, STEP_NS);
        oracle.take_tx_into(&mut out);
        oracle_tx += out.len() as u64;
        if outbound {
            // Outbound packets are always translated, one output each,
            // in order: the rewritten source port is the mapping.
            assert_eq!(out.len(), BATCH, "NAT translates every outbound packet");
            for i in openers {
                let key = FlowKey::of(&batch[i]).expect("generated UDP");
                let mapped = FlowKey::of(&out[i].1).expect("translated UDP").src_port;
                conns.push((key, mapped));
            }
        }
        out.clear();
        trace.extend(batch);
    }
    PacketInputs {
        cfg,
        digest: digest_of(&trace),
        trace,
        passes: 1,
        stateful: true,
        oracle_tx: Some(oracle_tx),
    }
}

/// The inputs of the named `pkt-*` workload.
pub fn inputs(name: &str, seed: u64, scale: Scale) -> PacketInputs {
    match name {
        "pkt-demux64t" => demux64t(seed, scale),
        "pkt-fwd1500" => fwd1500(seed, scale),
        "pkt-nat-churn" => nat_churn(seed, scale),
        other => panic!("not a packet workload: {other}"),
    }
}

/// Worker threads for the ladder's sharded pass: `clamp(nproc - 1, 1,
/// 4)`, so the dispatcher thread plus the workers never exceed the core
/// count — or `None` on a single core, where the pass is refused.
pub fn sharded_workers() -> Option<usize> {
    (nproc() >= 2).then(|| (nproc() - 1).min(4))
}

/// One single-threaded engine plus the buffers the timed loop reuses.
struct Native {
    engine: Engine,
    pool: PacketPool,
    out: Vec<(u16, Packet)>,
    now_ns: u64,
}

impl Native {
    fn build(cfg: &ClickConfig, compiled: bool) -> Native {
        Native {
            engine: Engine::build(cfg, &Registry::standard(), compiled)
                .expect("workload configs instantiate"),
            pool: PacketPool::new(),
            out: Vec::new(),
            now_ns: 0,
        }
    }

    /// One repetition: `passes` passes over the trace in 32-packet
    /// batches. The timed unit is one batch — pool copy → `push_batch` →
    /// `take_tx_into` → recycle. With a tracer, the four calls are
    /// recorded as children of a per-batch root span. Returns packets
    /// pushed and transmitted.
    fn rep(
        &mut self,
        trace: &[Packet],
        passes: usize,
        samples: &mut Samples,
        mut tracer: Option<&mut Tracer>,
    ) -> (u64, u64) {
        let names = if self.engine.is_compiled() {
            ("click.compile.push", "click.compile.take_tx")
        } else {
            ("click.router.push", "click.router.take_tx")
        };
        let (mut pushed, mut transmitted) = (0u64, 0u64);
        for _ in 0..passes {
            for chunk in trace.chunks(BATCH) {
                let t0 = Instant::now();
                let copies: Vec<Packet> = chunk.iter().map(|p| self.pool.copy_of(p)).collect();
                let t1 = tracer.as_ref().map(|_| Instant::now());
                self.engine.push_batch(copies, self.now_ns, STEP_NS);
                let t2 = tracer.as_ref().map(|_| Instant::now());
                self.engine.take_tx_into(&mut self.out);
                let t3 = tracer.as_ref().map(|_| Instant::now());
                transmitted += self.out.len() as u64;
                for (_, pkt) in self.out.drain(..) {
                    self.pool.recycle(pkt);
                }
                let t4 = Instant::now();
                samples.piece((t4 - t0).as_nanos() as f64, chunk.len() as u32);
                self.now_ns += STEP_NS * chunk.len() as u64;
                if let (Some(tr), Some(t1), Some(t2), Some(t3)) = (tracer.as_mut(), t1, t2, t3) {
                    let op = pushed / BATCH as u64;
                    let (a, b, c, d, e) = (tr.at(t0), tr.at(t1), tr.at(t2), tr.at(t3), tr.at(t4));
                    let root = tr.push("platform.engine.batch", a, e, None, op);
                    tr.push("packet.pool.copy", a, b, Some(root), op);
                    tr.push(names.0, b, c, Some(root), op);
                    tr.push(names.1, c, d, Some(root), op);
                    tr.push("packet.pool.recycle", d, e, Some(root), op);
                }
                pushed += chunk.len() as u64;
            }
        }
        (pushed, transmitted)
    }
}

fn quarter_of(trace: &[Packet], quarter: bool) -> &[Packet] {
    if quarter {
        &trace[..trace.len() / 4]
    } else {
        trace
    }
}

/// Pushes `pkts` through a fresh engine and returns `(egress, bytes)` of
/// everything transmitted, in order.
fn outputs(cfg: &ClickConfig, pkts: &[Packet], compiled: bool) -> Vec<(u16, Vec<u8>)> {
    let mut engine = Engine::build(cfg, &Registry::standard(), compiled).expect("config builds");
    let mut out = Vec::new();
    let mut now = 0;
    for chunk in pkts.chunks(BATCH) {
        engine.push_batch(chunk.to_vec(), now, STEP_NS);
        now += STEP_NS * chunk.len() as u64;
        engine.take_tx_into(&mut out);
    }
    out.into_iter()
        .map(|(egress, p)| (egress, p.bytes().to_vec()))
        .collect()
}

/// A `pkt-*` workload ready to measure.
pub struct PacketWorkload {
    inp: PacketInputs,
    native: Native,
    /// Transmit count of one repetition on the interpreted oracle.
    expected_tx: u64,
}

impl PacketWorkload {
    /// Builds the engines, runs the output-correctness gate and one
    /// quarter-size warm-up repetition.
    pub fn from_inputs(inp: PacketInputs) -> Result<PacketWorkload, String> {
        // Gate: both engines must agree byte for byte on the head of
        // the trace, and the oracle fixes the expected transmit count.
        let head = &inp.trace[..inp.trace.len().min(GATE_PACKETS)];
        let oracle_head = outputs(&inp.cfg, head, false);
        if outputs(&inp.cfg, head, true) != oracle_head {
            return Err("compiled and interpreted engines disagree on (egress, bytes)".to_string());
        }
        let oracle_pass = match inp.oracle_tx {
            Some(n) => n,
            None if head.len() == inp.trace.len() => oracle_head.len() as u64,
            None => outputs(&inp.cfg, &inp.trace, false).len() as u64,
        };
        let expected_tx = oracle_pass * inp.passes as u64;

        let mut w = PacketWorkload {
            native: Native::build(&inp.cfg, true),
            inp,
            expected_tx,
        };
        w.run(true, &mut Samples::default(), None);
        Ok(w)
    }

    /// One repetition; the quarter-size one (warm-up, traced) replays
    /// only the first quarter of the trace and checks no count.
    fn run(&mut self, quarter: bool, samples: &mut Samples, tracer: Option<&mut Tracer>) -> Rep {
        let (trace, passes) = (quarter_of(&self.inp.trace, quarter), self.inp.passes);
        if self.inp.stateful {
            self.native = Native::build(&self.inp.cfg, true);
        }
        let (pushed, transmitted) = self.native.rep(trace, passes, samples, tracer);
        Rep {
            ops: pushed,
            failed: if quarter {
                0
            } else {
                self.expected_tx.abs_diff(transmitted)
            },
        }
    }
}

impl Workload for PacketWorkload {
    fn setup(name: &str, seed: u64) -> Result<Self, String> {
        PacketWorkload::from_inputs(inputs(name, seed, Scale::Full))
    }

    fn rep(&mut self, samples: &mut Samples) -> Rep {
        self.run(false, samples, None)
    }

    fn digest(&self) -> u64 {
        self.inp.digest
    }

    fn finish(&self) -> Result<(), String> {
        Ok(())
    }
}

/// The packet ladder over `inp`: an untraced and a traced repetition on
/// the compiled engine, a traced one on the interpreted engine, a short
/// sharded pass, and the rungs that sit inside `push_batch` replayed in
/// isolation over the same trace.
pub fn ladder(inp: PacketInputs, untraced_reps_n: usize) -> Result<Ladder, String> {
    let mut w = PacketWorkload::from_inputs(inp)?;

    // Untraced baseline for the overhead ratio.
    let (plain, failed) = untraced_reps(untraced_reps_n, |s| w.run(false, s, None).failed);

    // Traced repetition of the workload's own timed path (quarter-size:
    // these spans go to the span file).
    let mut tracer = Tracer::default();
    let mut traced = Samples::default();
    let rep = w.run(true, &mut traced, Some(&mut tracer));

    // Both engines, traced in memory over a full repetition.
    let (trace, passes, cfg) = (&w.inp.trace, w.inp.passes, &w.inp.cfg);
    let mut engine_tracer = Tracer::default();
    let mut compiled_units = Samples::default();
    let mut compiled = Native::build(cfg, true);
    compiled.rep(trace, passes, &mut compiled_units, Some(&mut engine_tracer));
    let mut interp_units = Samples::default();
    let mut interp = Native::build(cfg, false);
    interp.rep(trace, passes, &mut interp_units, Some(&mut engine_tracer));
    let per_pkt = |name: &str| median_ns_of(&engine_tracer.spans, name) / BATCH as f64;
    let (compiled_p50, batch_p99, _) = summarize(&mut compiled_units.per_op(), 99.0);
    let (interp_p50, _, _) = summarize(&mut interp_units.per_op(), 90.0);
    let nat = interp
        .engine
        .router()
        .and_then(|r| r.element_as::<IpNat>("nat"));

    let sharded = sharded_pass(cfg, trace)?;

    // Rungs inside `push_batch`, replayed in isolation.
    let kb = trace.iter().map(Packet::len).sum::<usize>() as f64 / 1024.0;
    let checksum_ns = median_call_ns(9, |_| {
        let mut acc = 0u16;
        for p in trace {
            acc ^= internet_checksum(std::hint::black_box(p.bytes()));
        }
        std::hint::black_box(acc);
    });
    let shard_ns = median_call_ns(9, |_| {
        let mut acc = 0usize;
        for p in trace {
            acc ^= FlowKey::shard_of(std::hint::black_box(p), 4);
        }
        std::hint::black_box(acc);
    });
    let mut ring = NetfrontRing::default();
    let netfront_ns = median_call_ns(9, |_| {
        for chunk in trace.chunks(BATCH) {
            ring.transfer_batch(std::hint::black_box(chunk));
        }
        std::hint::black_box(ring.csum_acc);
    });
    let registry = Registry::standard();
    let router_build_ns = median_call_ns(9, |_| {
        std::hint::black_box(Router::from_config(cfg, &registry).expect("builds"));
    });
    let compile_build_ns = median_call_ns(9, |_| {
        std::hint::black_box(CompiledRouter::compile(cfg, &registry).expect("compiles"));
    });
    let stages = compiled.engine.compiled().map_or(0, |c| c.describe().len());
    let pool = &compiled.pool;
    let n = trace.len() as f64;

    let metrics: Vec<Metric> = vec![
        metric(
            "packet.pool.copy_ns",
            per_pkt("packet.pool.copy") + per_pkt("packet.pool.recycle"),
            "ns/pkt",
        ),
        metric(
            "packet.pool.reuse_ratio",
            pool.reuses() as f64 / (pool.reuses() + pool.allocations()).max(1) as f64,
            "ratio",
        ),
        metric("packet.checksum.ns_per_kb", checksum_ns / kb, "ns/KB"),
        metric("packet.flow.shard_hash_ns", shard_ns / n, "ns/pkt"),
        metric("click.netfront.transfer_ns", netfront_ns / n, "ns/pkt"),
        metric(
            "click.router.push_ns",
            per_pkt("click.router.push") + per_pkt("click.router.take_tx"),
            "ns/pkt",
        ),
        metric(
            "click.compile.push_ns",
            per_pkt("click.compile.push") + per_pkt("click.compile.take_tx"),
            "ns/pkt",
        ),
        metric("click.router.build_us", router_build_ns / 1e3, "us"),
        metric("click.compile.build_us", compile_build_ns / 1e3, "us"),
        metric("click.compile.stages", stages as f64, "count"),
        metric(
            "click.nat.mappings",
            nat.map_or(0, IpNat::mappings) as f64,
            "count",
        ),
        metric(
            "click.nat.evictions",
            nat.map_or(0, IpNat::evictions) as f64,
            "count",
        ),
        metric("platform.engine.batch_ns_p99", batch_p99, "ns/pkt"),
        metric("platform.engine.interp_ns_p50", interp_p50, "ns/pkt"),
        metric("platform.parallel.ns_p50", sharded.ns_p50, "ns/pkt"),
        metric(
            "platform.parallel.handoff_ns",
            if sharded.workers > 0 {
                sharded.ns_p50 - compiled_p50
            } else {
                0.0
            },
            "ns/pkt",
        ),
        metric("platform.parallel.spawn_us", sharded.spawn_us, "us"),
        metric(
            "platform.parallel.effective_workers",
            sharded.workers as f64,
            "count",
        ),
        metric(
            "platform.parallel.ring_drops",
            sharded.ring_drops as f64,
            "count",
        ),
    ];
    Ok(Ladder {
        metrics,
        tracer,
        overhead_ratio: steady(&[traced]).p50 / steady(&plain).p50,
        failed,
        attempted: rep.ops,
        digest: w.inp.digest,
    })
}

/// What the ladder's sharded pass measured (all zero when refused).
#[derive(Default)]
struct Sharded {
    ns_p50: f64,
    spawn_us: f64,
    workers: usize,
    ring_drops: u64,
}

/// The flow-sharded path over the same trace: `RunnerConfig::parallel`
/// with the compiled engine; the unit is one `run` call (thread spawn,
/// dispatch, ring hand-off, drain, join). Its output is gated against
/// the interpreted oracle as a multiset (workers interleave, so order is
/// only per flow). Refused — all zeros, and a note — on a single core,
/// where dispatcher and worker would time-slice.
fn sharded_pass(cfg: &ClickConfig, trace: &[Packet]) -> Result<Sharded, String> {
    let Some(workers) = sharded_workers() else {
        println!("note: sharded pass refused: dispatcher + 1 worker exceed 1 core");
        return Ok(Sharded::default());
    };
    let mut runner: ParallelRunner = RunnerConfig::new()
        .workers(workers)
        .batch(BATCH)
        .compiled(true)
        .parallel(cfg)
        .map_err(|e| e.to_string())?;
    let head = &trace[..trace.len().min(GATE_PACKETS)];
    let (_, got) = runner.run_collect(head, 1);
    let mut got: Vec<(u16, Vec<u8>)> = got
        .into_iter()
        .map(|(egress, p)| (egress, p.bytes().to_vec()))
        .collect();
    let mut want = outputs(cfg, head, false);
    got.sort();
    want.sort();
    if got != want {
        return Err("sharded runner output differs from the oracle".to_string());
    }
    let mut ring_drops = 0;
    let ns_p50 =
        median_call_ns(9, |_| ring_drops += runner.run(trace, 1).dropped) / trace.len() as f64;
    let spawn_us = median_call_ns(21, |_| {
        runner.run(&[], 1);
    }) / 1e3;
    Ok(Sharded {
        ns_p50,
        spawn_us,
        workers: runner.effective_workers(),
        ring_drops,
    })
}
