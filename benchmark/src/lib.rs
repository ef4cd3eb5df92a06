//! The In-Net benchmark: six closed-loop, single-client workloads over
//! three cost ladders (packet, admission, fleet). See `README.md` for the
//! workload and metric tables and the layer → end-to-end prediction map.
//!
//! Every layer is measured from outside, through the public,
//! non-deprecated API of the `innet` facade; nothing under `crates/` is
//! touched.

#![forbid(unsafe_code)]
#![deny(deprecated)]
#![warn(missing_docs)]

pub mod admission;
pub mod fleet;
pub mod harness;
pub mod json;
pub mod packet;
pub mod trace;

use std::path::Path;
use std::time::Instant;

use harness::{median, metric, ns_since, peak_rss_mb, summarize, Metric};
use json::Json;
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 6] = [
    "pkt-demux64t",
    "pkt-fwd1500",
    "pkt-nat-churn",
    "adm-stock",
    "adm-reach",
    "fleet-failover",
];

/// Per-layer metrics that are counts of what the program did, not
/// timings: they must repeat exactly for a seed (`agree.sh` and the
/// determinism tests compare them for equality).
pub const EXACT_REPEAT: [&str; 19] = [
    "click.compile.stages",
    "click.nat.mappings",
    "click.nat.evictions",
    "platform.parallel.effective_workers",
    "platform.parallel.ring_drops",
    "controller.cache.verdict_hit_ratio",
    "controller.cache.lint_hit_ratio",
    "controller.cache.summary_hit_ratio",
    "analysis.fastpath.hit_ratio",
    "symnet.bailouts",
    "controller.memo.entries",
    "platform.fleet.delivered_ratio",
    "platform.fleet.fabric_forwards_per_pkt",
    "platform.fleet.reroutes",
    "platform.fleet.dead_drops",
    "platform.fleet.link_drops",
    "platform.fleet.rehomed",
    "platform.fleet.migrations",
    "packet.pool.reuse_ratio",
];

/// Set-ups per run (`setup_s` is their median): at least `MIN_SETUPS`,
/// and more — up to `MAX_SETUPS` — while they fit in `SETUP_BUDGET_S`.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 2.0;

/// Repetitions reduced together to one steady repetition.
const BLOCK_REPS: usize = 32;

/// Input size: the workload's own, or the reduced size used for the
/// ladders a workload does not exercise and for the determinism tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The size frozen in `BENCHMARK.json`.
    Full,
    /// Same generators, small counts.
    Small,
}

/// What one repetition did.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Operations attempted (packets, requests, simulated packets).
    pub ops: u64,
    /// Operations whose outcome was wrong.
    pub failed: u64,
}

/// Timings one repetition records: the wall time of consecutive
/// *pieces* that together cover its timed region. Piece `i` does
/// identical work in every repetition, and takes around a millisecond
/// or (much) less.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Wall nanoseconds of each piece.
    pub ns: Vec<f64>,
    /// Operations the piece completed; 0 for a piece that is part of the
    /// loop but not a timed unit (a memo flush, a kill).
    pub ops: Vec<u32>,
}

impl Samples {
    /// Records one piece.
    pub fn piece(&mut self, ns: f64, ops: u32) {
        self.ns.push(ns);
        self.ops.push(ops);
    }

    /// ns/operation of every timed unit.
    pub fn per_op(&self) -> Vec<f64> {
        (self.ns.iter().zip(&self.ops))
            .filter(|(_, &ops)| ops > 0)
            .map(|(ns, &ops)| ns / f64::from(ops))
            .collect()
    }
}

/// `n` untraced repetitions (at least one) for a ladder's baseline:
/// `rep` fills the samples and returns its failed operations. Returns
/// the repetitions and the failures summed.
pub fn untraced_reps(n: usize, mut rep: impl FnMut(&mut Samples) -> u64) -> (Vec<Samples>, u64) {
    let mut failed = 0;
    let reps = (0..n.max(1))
        .map(|_| {
            let mut samples = Samples::default();
            failed += rep(&mut samples);
            samples
        })
        .collect();
    (reps, failed)
}

/// Statistics of the *steady repetition* of a set of repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Steady {
    /// Median ns/operation over the timed units.
    pub p50: f64,
    /// Tail ns/operation over the timed units …
    pub tail: f64,
    /// … at this percentile: 90, or lower when a repetition has fewer
    /// than 100 units (ten samples must lie beyond it).
    pub tail_p: f64,
    /// Operations / wall time of the steady repetition.
    pub ops_per_s: f64,
}

/// Reduces repetitions to their steady repetition — every piece at its
/// median over the repetitions — and summarizes that.
///
/// On a shared host a core is taken away for around a millisecond every
/// few milliseconds (a pure-CPU loop on the reference host loses 10–60 %
/// of each second that way). That lands in a few pieces of every
/// repetition but rarely in the same piece of most repetitions, so the
/// steady repetition is the repetition as it runs on an undisturbed
/// core — measured, not modelled — and neither its percentiles nor its
/// wall time move with the neighbours' load. Pieces that are slow every
/// time (an eviction batch, a cache-missing request, a failover slice)
/// stay slow in it: that is what its tail reports.
pub fn steady(reps: &[Samples]) -> Steady {
    let first = &reps[0];
    let piece_ns: Vec<f64> = (0..first.ns.len())
        .map(|i| median(&reps.iter().map(|r| r.ns[i]).collect::<Vec<f64>>()))
        .collect();
    let wall_ns: f64 = piece_ns.iter().sum();
    let ops: f64 = first.ops.iter().map(|&o| f64::from(o)).sum();
    let steady = Samples {
        ns: piece_ns,
        ops: first.ops.clone(),
    };
    let (p50, tail, tail_p) = summarize(&mut steady.per_op(), 90.0);
    Steady {
        p50,
        tail,
        tail_p,
        ops_per_s: ops / (wall_ns / 1e9),
    }
}

/// A workload the end-to-end runner can drive.
pub trait Workload: Sized {
    /// Generates inputs from `seed`, builds the system under test, runs
    /// the output-correctness gate and a quarter-size warm-up.
    fn setup(name: &str, seed: u64) -> Result<Self, String>;
    /// One timed repetition; appends its timings to `samples`.
    fn rep(&mut self, samples: &mut Samples) -> Rep;
    /// FNV-1a digest of the generated inputs.
    fn digest(&self) -> u64;
    /// Exit checks.
    fn finish(&self) -> Result<(), String>;
}

/// What a ladder (traced) pass over one family produced.
pub struct Ladder {
    /// The family's per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Spans of the traced repetition.
    pub tracer: Tracer,
    /// Traced / untraced median unit time.
    pub overhead_ratio: f64,
    /// Operations with a wrong outcome across the pass.
    pub failed: u64,
    /// Operations of the traced repetition.
    pub attempted: u64,
    /// Input digest.
    pub digest: u64,
}

/// The result of one benchmark invocation.
pub struct Outcome {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted in the timed repetitions.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Input digest.
    pub digest: u64,
    /// Threads used by the timed path.
    pub threads: usize,
}

impl Outcome {
    /// The final stdout line the driver parses.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::Num(m.value)),
                        ("unit".to_string(), Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
        .to_string()
    }
}

/// Runs `W` end to end with tracing off: several set-ups (one in check
/// mode), then repetitions until `seconds` of measuring have passed
/// (exactly one in check mode). Repetitions are reduced in blocks of
/// [`BLOCK_REPS`] to their [`steady`] repetition (bounding memory); the
/// reported values are medians over blocks.
fn end_to_end<W: Workload>(
    name: &str,
    seed: u64,
    seconds: f64,
    check: bool,
) -> Result<Outcome, String> {
    // At least MIN_SETUPS set-ups; cheap ones repeat (up to MAX_SETUPS,
    // within SETUP_BUDGET_S) so their median is as steady as a dear one's.
    let (min_setups, max_setups) = if check {
        (1, 1)
    } else {
        (MIN_SETUPS, MAX_SETUPS)
    };
    let mut setups = Vec::new();
    let mut w = None;
    let setting_up = Instant::now();
    while setups.len() < min_setups
        || (setups.len() < max_setups && setting_up.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(w.take()); // one system under test in memory at a time
        let t = Instant::now();
        w = Some(W::setup(name, seed)?);
        setups.push(ns_since(t) / 1e9);
    }
    let mut w = w.expect("at least one set-up ran");

    let (mut attempted, mut failed, mut reps) = (0u64, 0u64, 0usize);
    let mut block: Vec<Samples> = Vec::with_capacity(BLOCK_REPS);
    let mut blocks: Vec<Steady> = Vec::new();
    let start = Instant::now();
    loop {
        let mut samples = Samples::default();
        let rep = w.rep(&mut samples);
        attempted += rep.ops;
        failed += rep.failed;
        reps += 1;
        if block.first().is_some_and(|f| f.ops != samples.ops) {
            return Err("repetitions differ in their timed pieces".to_string());
        }
        block.push(samples);
        let done = check || start.elapsed().as_secs_f64() >= seconds;
        // A short last block joins the statistics only if nothing else would.
        if block.len() == BLOCK_REPS
            || (done && (block.len() >= BLOCK_REPS / 2 || blocks.is_empty()))
        {
            blocks.push(steady(&block));
            block.clear();
        }
        if done {
            break;
        }
    }
    w.finish()?;
    let over_blocks = |f: fn(&Steady) -> f64| median(&blocks.iter().map(f).collect::<Vec<f64>>());
    println!(
        "samples: {reps} repetitions of {} operations in {} block(s); tail percentile: p{}",
        attempted / reps as u64,
        blocks.len(),
        blocks[0].tail_p
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            metric("op_ns_p50", over_blocks(|b| b.p50), "ns/op"),
            metric("op_ns_p90", over_blocks(|b| b.tail), "ns/op"),
            metric("ops_per_s", over_blocks(|b| b.ops_per_s), "1/s"),
            metric("setup_s", median(&setups), "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
        digest: w.digest(),
        threads: 1, // every gated loop is one client thread
    })
}

/// Which ladder a workload sits on.
fn family(name: &str) -> Option<&'static str> {
    WORKLOADS.contains(&name).then(|| match &name[..3] {
        "pkt" => "packet",
        "adm" => "admission",
        _ => "fleet",
    })
}

/// Runs the named workload with tracing off.
pub fn run_end_to_end(name: &str, seed: u64, seconds: f64, check: bool) -> Result<Outcome, String> {
    match family(name) {
        Some("packet") => end_to_end::<packet::PacketWorkload>(name, seed, seconds, check),
        Some("admission") => end_to_end::<admission::AdmissionWorkload>(name, seed, seconds, check),
        Some(_) => end_to_end::<fleet::FleetWorkload>(name, seed, seconds, check),
        None => Err(format!("unknown workload '{name}'")),
    }
}

/// Runs the traced pass: the workload's own ladder over its full-size
/// inputs (spans written to `<out>/trace-<name>.jsonl`), and the other
/// two ladders over reduced inputs from the same seed, so every
/// per-layer metric is measured in every traced run.
pub fn run_traced(name: &str, seed: u64, seconds: f64, out: &Path) -> Result<Outcome, String> {
    let own = family(name).ok_or(format!("unknown workload '{name}'"))?;
    // The workload's own ladder: its inputs at full size, and untraced
    // repetitions (the overhead ratio's baseline) scaling with the run
    // length. The other two: a reference workload at reduced size.
    let pick = |fam: &str, reference: &'static str| {
        if fam == own {
            (name, Scale::Full, seconds as usize)
        } else {
            (reference, Scale::Small, 1)
        }
    };
    let (w, scale, reps) = pick("packet", "pkt-demux64t");
    let pkt = packet::ladder(packet::inputs(w, seed, scale), reps)?;
    let (w, scale, reps) = pick("admission", "adm-reach");
    let adm = admission::ladder(admission::inputs(w, seed, scale), reps)?;
    let (_, scale, reps) = pick("fleet", "fleet-failover");
    let flt = fleet::ladder(fleet::inputs(seed, scale), reps)?;

    // Every traced run includes the packet ladder's sharded pass.
    let threads = packet::sharded_workers().map_or(1, |w| w + 1);
    let mut metrics = Vec::new();
    let mut outcome = None;
    for (fam, ladder) in [("packet", pkt), ("admission", adm), ("fleet", flt)] {
        metrics.extend(ladder.metrics);
        if fam == own {
            trace::validate(&ladder.tracer.spans)?;
            let path = out.join(format!("trace-{name}.jsonl"));
            ladder
                .tracer
                .write_jsonl(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!(
                "trace: {} spans written to {}",
                ladder.tracer.spans.len(),
                path.display()
            );
            trace::print_table(&trace::layer_table(&ladder.tracer.spans));
            outcome = Some((
                ladder.attempted,
                ladder.failed,
                ladder.digest,
                ladder.overhead_ratio,
            ));
        } else if ladder.failed > 0 {
            return Err(format!(
                "{} operations failed on the {fam} reference ladder",
                ladder.failed
            ));
        }
    }
    let (attempted, failed, digest, overhead) = outcome.expect("own ladder ran");
    metrics.push(metric("trace_overhead_ratio", overhead, "ratio"));
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        digest,
        threads,
    })
}

fn metric_value(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `--compare-counts`: the [`EXACT_REPEAT`] metrics of two traced
/// result lines must be identical. Returns whether they all are.
pub fn compare_counts(workload: &str, a: &Json, b: &Json) -> Result<bool, String> {
    let mut all = true;
    for name in EXACT_REPEAT {
        let value =
            |run| metric_value(run, name).ok_or(format!("{workload}: result has no {name}"));
        let (va, vb) = (value(a)?, value(b)?);
        if va != vb {
            println!("{workload:<16} {name} differs: {va} vs {vb}  FAIL");
            all = false;
        }
    }
    if all {
        println!(
            "{workload:<16} {} exact-repeat counts identical  PASS",
            EXACT_REPEAT.len()
        );
    }
    Ok(all)
}

/// `--compare A B BENCHMARK.json`: per end-to-end metric, both values,
/// their relative difference, and PASS/FAIL against the metric's bound.
/// `a` and `b` are result lines of the same workload. Returns whether
/// every metric passed.
pub fn compare(workload: &str, a: &Json, b: &Json, benchmark: &Json) -> Result<bool, String> {
    let specs = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut all = true;
    for spec in specs {
        let field = |k: &str| {
            spec.get(k)
                .and_then(Json::as_str)
                .ok_or(format!("metric without {k}"))
        };
        let (name, better) = (field("name")?, field("better")?);
        let bound = spec
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or("metric without bound")?;
        let value =
            |run| metric_value(run, name).ok_or(format!("{workload}: result has no {name}"));
        let (va, vb) = (value(a)?, value(b)?);
        // Positive = the second set is worse.
        let worse = if better == "lower" {
            (vb - va) / va
        } else {
            (va - vb) / va
        };
        let pass = worse <= bound;
        all &= pass;
        println!(
            "{workload:<16} {name:<12} {va:>16.4} {vb:>16.4} {:>+8.2}%  bound {:>4.0}%  {}",
            worse * 100.0,
            bound * 100.0,
            if pass { "PASS" } else { "FAIL" }
        );
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(ns: &[f64]) -> Samples {
        let mut s = Samples::default();
        for (i, &t) in ns.iter().enumerate() {
            // The last piece is loop overhead (a kill), not a timed unit.
            s.piece(t, if i + 1 == ns.len() { 0 } else { 2 });
        }
        s
    }

    #[test]
    fn steady_repetition_takes_each_piece_at_its_median() {
        // Each repetition is interrupted in a different piece; the piece
        // that is slow every time (the third) stays slow.
        let reps = [
            rep(&[100.0, 9_000.0, 400.0, 50.0]),
            rep(&[100.0, 120.0, 400.0, 7_000.0]),
            rep(&[8_000.0, 120.0, 400.0, 50.0]),
        ];
        let s = steady(&reps);
        assert_eq!(s.p50, 60.0); // units: 50, 60, 200 ns/op
        assert_eq!((s.tail, s.tail_p), (60.0, 50.0)); // 3 units: no tail beyond p50
                                                      // 6 operations over 100 + 120 + 400 + 50 ns, the kill included.
        assert_eq!(s.ops_per_s, 6.0 / 670e-9);
        assert_eq!(steady(&reps[..1]).p50, 200.0);
    }
}
