//! The admission ladder: the two `adm-*` workloads and the per-layer
//! rungs below a deployment request (parse → canonicalise → lint →
//! abstract fast path → symbolic → placement → commit).

use std::net::Ipv4Addr;
use std::time::Instant;

use innet::analysis::{abstract_verdict, lint};
use innet::click::Registry;
use innet::controller::{ClientRequest, Controller, ControllerStats, DeployError, ModuleConfig};
use innet::symnet::{check_module, RequesterClass, SecurityContext};
use innet::topology::{generate_fleet, FleetParams, Topology};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::harness::{median_call_ns, metric, summarize, Fnv, Metric};
use crate::trace::{layer_table, median_ns_of, self_ns_of, Tracer};
use crate::{steady, untraced_reps, Ladder, Rep, Samples, Scale, Workload};

/// The address every tenant has registered (the Figure 4 client).
const CLIENT_ADDR: Ipv4Addr = Ipv4Addr::new(172, 16, 15, 133);
/// Tenant accounts the requests are spread over.
const CLIENTS: usize = 16;

/// Accepted stock pipelines a fleet of tenants deploys again and again
/// under fresh module names (the Figure 4 delivery idiom: the last
/// rewrite targets the tenant's registered address).
const STOCK: &[&str] = &[
    "FromNetfront() -> CheckIPHeader() -> IPFilter(allow udp dst port 1500) \
     -> Counter() -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();",
    "FromNetfront() -> IPFilter(allow tcp dst port 80) -> DecIPTTL() \
     -> Counter() -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();",
    "FromNetfront() -> IPFilter(allow udp dst port 53) -> SetTOS(10) \
     -> Counter() -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();",
    "FromNetfront() -> CheckIPHeader() -> DecIPTTL() -> IPFilter(allow tcp dst port 443) \
     -> Paint(7) -> Counter() -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();",
];

/// One request of the timed window.
pub struct Request {
    /// Tenant account it is submitted under.
    pub client: String,
    /// Request text, parsed inside the timed unit.
    pub text: String,
    /// Expected verdict class: accept, or `SecurityReject`.
    pub accept: bool,
}

/// Generated inputs of one `adm-*` workload.
pub struct AdmissionInputs {
    /// Operator topology.
    pub topo: Topology,
    /// Requests installed during set-up and left standing.
    pub standing: Vec<Request>,
    /// The requests of one repetition.
    pub window: Vec<Request>,
    /// `true`: each accepted module is killed right after its deploy
    /// (the module table stays at the standing population throughout).
    /// `false`: the window's modules are killed together after the last
    /// deploy, so memoized verdicts and summaries live for one window.
    pub kill_each: bool,
    /// FNV-1a over every request text and client id.
    pub digest: u64,
}

fn digest_of(standing: &[Request], window: &[Request]) -> u64 {
    let mut h = Fnv::default();
    for r in standing.iter().chain(window) {
        h.write(r.client.as_bytes());
        h.write(r.text.as_bytes());
    }
    h.0
}

fn client(rng: &mut StdRng) -> String {
    format!("tenant{}", rng.gen_range(0..CLIENTS))
}

/// `adm-stock`: operator-scale topology, a standing population, and a
/// memo-friendly mix — 60 % alpha-renamed stock chains, 20 % exact
/// replays of an earlier request of the window, 10 % novel chains, 10 %
/// chains that spoof their source (expected `SecurityReject`).
fn stock(seed: u64, scale: Scale) -> AdmissionInputs {
    let (params, standing_n, window_n) = match scale {
        Scale::Full => (FleetParams::default(), 2_000, 1_000),
        Scale::Small => (
            FleetParams {
                pops: 8,
                platforms_per_pop: 2,
                clients_per_pop: 1,
                ..FleetParams::default()
            },
            40,
            100,
        ),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = generate_fleet(&FleetParams { seed, ..params });
    let standing: Vec<Request> = (0..standing_n)
        .map(|i| Request {
            client: client(&mut rng),
            text: format!(
                "module standing{i}:\n{}",
                STOCK[rng.gen_range(0..STOCK.len())]
            ),
            accept: true,
        })
        .collect();
    let mut window: Vec<Request> = Vec::with_capacity(window_n);
    for i in 0..window_n {
        let kind = rng.gen_range(0..10);
        let req = match kind {
            0..=5 => Request {
                client: client(&mut rng),
                text: format!("module w{i}:\n{}", STOCK[rng.gen_range(0..STOCK.len())]),
                accept: true,
            },
            6 | 7 if !window.is_empty() => {
                // Same text, same account: the verdict cache's hit path.
                let earlier = &window[rng.gen_range(0..window.len())];
                Request {
                    client: earlier.client.clone(),
                    text: earlier.text.clone(),
                    accept: earlier.accept,
                }
            }
            6..=8 => Request {
                client: client(&mut rng),
                text: format!(
                    "module n{i}:\nFromNetfront() -> IPFilter(allow udp dst port {}) \
                     -> SetTOS({}) -> Paint({}) \
                     -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();",
                    rng.gen_range(1..1024),
                    rng.gen_range(0..64),
                    rng.gen_range(0..256)
                ),
                accept: true,
            },
            _ => Request {
                client: client(&mut rng),
                text: format!(
                    "module s{i}:\nFromNetfront() -> IPFilter(allow udp dst port {}) \
                     -> SetIPSrc(8.8.8.8) -> ToNetfront();",
                    rng.gen_range(1..1024)
                ),
                accept: false,
            },
        };
        window.push(req);
    }
    AdmissionInputs {
        topo,
        digest: digest_of(&standing, &window),
        standing,
        window,
        kill_each: false,
    }
}

/// `adm-reach`: the paper's Figure 3 network; every request is a
/// novel-argument Figure-4-style chain carrying a `reach` requirement,
/// so the abstract fast path is ineligible and each candidate platform
/// pays model compilation plus a symbolic check. 10 % spoof their
/// source.
fn reach(seed: u64, scale: Scale) -> AdmissionInputs {
    let window_n = match scale {
        Scale::Full => 250,
        Scale::Small => 40,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let window = (0..window_n)
        .map(|i| {
            let port = rng.gen_range(1_024..40_000);
            let (interval, burst) = (rng.gen_range(30..240), rng.gen_range(10..200));
            let accept = rng.gen_range(0..10) != 0;
            let spoof = if accept { "" } else { " -> SetIPSrc(8.8.8.8)" };
            Request {
                client: client(&mut rng),
                text: format!(
                    "module b{i}:\nFromNetfront() -> IPFilter(allow udp dst port {port}) \
                     -> IPRewriter(pattern - - 172.16.15.133 - 0 0) \
                     -> TimedUnqueue({interval}, {burst}){spoof} -> dst :: ToNetfront();\n\
                     reach from internet udp -> b{i}:dst:0 dst 172.16.15.133 \
                     -> client dst port {port} const proto && dst port && payload"
                ),
                accept,
            }
        })
        .collect::<Vec<_>>();
    AdmissionInputs {
        topo: Topology::figure3(),
        digest: digest_of(&[], &window),
        standing: Vec::new(),
        window,
        kill_each: true,
    }
}

/// The inputs of the named `adm-*` workload.
pub fn inputs(name: &str, seed: u64, scale: Scale) -> AdmissionInputs {
    match name {
        "adm-stock" => stock(seed, scale),
        "adm-reach" => reach(seed, scale),
        other => panic!("not an admission workload: {other}"),
    }
}

/// Per-request stage deltas summed over a traced repetition.
#[derive(Default)]
struct StageSums {
    lint: u64,
    fastpath: u64,
    symbolic: u64,
    placement: u64,
    compile: u64,
    check: u64,
}

/// An `adm-*` workload ready to measure.
pub struct AdmissionWorkload {
    inp: AdmissionInputs,
    ctl: Controller,
    standing_ids: Vec<u64>,
    /// Filled by traced repetitions only.
    stages: StageSums,
    deploy_ns: Vec<f64>,
    /// Most verdicts + summaries memoized at once (sampled before each
    /// flush of a traced repetition).
    memo_peak: usize,
}

/// Whether a deploy outcome is in the class the generator expects.
fn as_expected(
    outcome: &Result<innet::controller::DeployResponse, DeployError>,
    accept: bool,
) -> bool {
    match outcome {
        Ok(_) => accept,
        Err(DeployError::SecurityReject(_)) => !accept,
        Err(_) => false,
    }
}

impl AdmissionWorkload {
    /// Builds the controller, installs the standing population (every
    /// one must be accepted) and runs a quarter-size warm-up.
    pub fn from_inputs(inp: AdmissionInputs) -> Result<AdmissionWorkload, String> {
        let mut ctl = Controller::new(inp.topo.clone());
        for i in 0..CLIENTS {
            ctl.register_client(
                format!("tenant{i}"),
                RequesterClass::Client,
                vec![CLIENT_ADDR],
            );
        }
        let mut standing_ids = Vec::with_capacity(inp.standing.len());
        for r in &inp.standing {
            let req = ClientRequest::parse(&r.text).map_err(|e| e.to_string())?;
            let resp = ctl
                .deploy(&r.client, req)
                .map_err(|e| format!("standing module refused: {e}"))?;
            standing_ids.push(resp.module_id);
        }
        let mut w = AdmissionWorkload {
            inp,
            ctl,
            standing_ids,
            stages: StageSums::default(),
            deploy_ns: Vec::new(),
            memo_peak: 0,
        };
        let warm = w.run(true, &mut Samples::default(), None);
        if warm.failed > 0 {
            return Err(format!(
                "{} of {} warm-up verdicts not in their expected class",
                warm.failed, warm.ops
            ));
        }
        Ok(w)
    }

    /// One repetition over the window (its first quarter for warm-up).
    /// The timed unit is request text → verdict: `ClientRequest::parse`
    /// plus `Controller::deploy`. With a tracer, each request's parse,
    /// deploy (with the controller's own per-stage times as children),
    /// and the invalidations and kills are recorded.
    fn run(
        &mut self,
        quarter: bool,
        samples: &mut Samples,
        mut tracer: Option<&mut Tracer>,
    ) -> Rep {
        let AdmissionWorkload {
            inp,
            ctl,
            stages,
            deploy_ns,
            memo_peak,
            ..
        } = self;
        let n = if quarter {
            inp.window.len().div_ceil(4)
        } else {
            inp.window.len()
        };
        let mut failed = 0u64;
        let mut live: Vec<u64> = Vec::new();
        for (op, r) in inp.window[..n].iter().enumerate() {
            let op = op as u64;
            let before = tracer.as_ref().map(|_| ctl.stats());
            let t0 = Instant::now();
            let parsed = ClientRequest::parse(&r.text);
            let t1 = Instant::now();
            let outcome = match parsed {
                Ok(req) => ctl.deploy(&r.client, req),
                Err(_) => {
                    failed += 1;
                    continue;
                }
            };
            let t2 = Instant::now();
            samples.piece((t2 - t0).as_nanos() as f64, 1);
            if !as_expected(&outcome, r.accept) {
                failed += 1;
            }
            if let (Some(tr), Some(before)) = (tracer.as_mut(), before) {
                let (a, b, c) = (tr.at(t0), tr.at(t1), tr.at(t2));
                let root = tr.push("controller.request", a, c, None, op);
                tr.push("controller.request.parse", a, b, Some(root), op);
                let deploy = tr.push("controller.deploy", b, c, Some(root), op);
                deploy_ns.push((c - b) as f64);
                stage_spans(tr, deploy, op, b, c, &before, &ctl.stats(), stages);
            }
            if let Ok(resp) = outcome {
                if inp.kill_each {
                    failed += retire(
                        ctl,
                        memo_peak,
                        &[resp.module_id],
                        op,
                        samples,
                        tracer.as_deref_mut(),
                    );
                } else {
                    live.push(resp.module_id);
                }
            }
        }
        if !inp.kill_each {
            failed += retire(ctl, memo_peak, &live, n as u64, samples, tracer);
        }
        Rep {
            ops: n as u64,
            failed,
        }
    }
}

/// Flushes the verification memos, then kills `ids`. `kill` flushes them
/// too (removing a module changes the network), so the explicit call
/// first only separates the two costs. With a tracer, samples the memo
/// population before the flush into `memo_peak`. Returns failed kills.
fn retire(
    ctl: &mut Controller,
    memo_peak: &mut usize,
    ids: &[u64],
    op: u64,
    samples: &mut Samples,
    mut tracer: Option<&mut Tracer>,
) -> u64 {
    if tracer.is_some() {
        *memo_peak = (*memo_peak).max(ctl.cached_verdicts() + ctl.cached_summaries());
    }
    let t0 = Instant::now();
    ctl.invalidate_verdicts();
    let t1 = Instant::now();
    samples.piece((t1 - t0).as_nanos() as f64, 0);
    if let Some(tr) = tracer.as_mut() {
        let (a, b) = (tr.at(t0), tr.at(t1));
        tr.push("controller.cache.invalidate", a, b, None, op);
    }
    let mut failed = 0;
    for id in ids {
        let t0 = Instant::now();
        failed += u64::from(ctl.kill(*id).is_err());
        let t1 = Instant::now();
        samples.piece((t1 - t0).as_nanos() as f64, 0);
        if let Some(tr) = tracer.as_mut() {
            let (a, b) = (tr.at(t0), tr.at(t1));
            tr.push("controller.kill", a, b, None, op);
        }
    }
    failed
}

/// Emits the controller's per-stage times of one request (deltas of
/// `ControllerStats`) as child spans of its deploy span, laid end to end
/// from the deploy's start — the stages run in that order, and what is
/// left of the deploy span is the controller's own self time (key
/// derivation, cache probe, ranking, commit).
#[allow(clippy::too_many_arguments)]
fn stage_spans(
    tr: &mut Tracer,
    deploy: u32,
    op: u64,
    start: u64,
    end: u64,
    before: &ControllerStats,
    after: &ControllerStats,
    sums: &mut StageSums,
) {
    let stages = [
        (
            "controller.stage.lint",
            after.stage_lint_ns - before.stage_lint_ns,
        ),
        (
            "controller.stage.fastpath",
            after.stage_fastpath_ns - before.stage_fastpath_ns,
        ),
        (
            "controller.stage.symbolic",
            after.stage_symbolic_ns - before.stage_symbolic_ns,
        ),
        (
            "controller.stage.placement",
            after.stage_placement_ns - before.stage_placement_ns,
        ),
    ];
    sums.lint += stages[0].1;
    sums.fastpath += stages[1].1;
    sums.symbolic += stages[2].1;
    sums.placement += stages[3].1;
    sums.compile += after.compile_ns - before.compile_ns;
    sums.check += after.check_ns - before.check_ns;
    let mut cursor = start;
    for (name, ns) in stages {
        if ns == 0 {
            continue;
        }
        let stop = (cursor + ns).min(end);
        tr.push(name, cursor, stop, Some(deploy), op);
        cursor = stop;
    }
}

impl Workload for AdmissionWorkload {
    fn setup(name: &str, seed: u64) -> Result<Self, String> {
        AdmissionWorkload::from_inputs(inputs(name, seed, Scale::Full))
    }

    fn rep(&mut self, samples: &mut Samples) -> Rep {
        self.run(false, samples, None)
    }

    fn digest(&self) -> u64 {
        self.inp.digest
    }

    /// The standing population must be exactly what set-up installed.
    fn finish(&self) -> Result<(), String> {
        let installed: Vec<u64> = self.ctl.modules().iter().map(|m| m.id).collect();
        if installed == self.standing_ids {
            Ok(())
        } else {
            Err(format!(
                "standing population changed: {} modules installed, {} expected",
                installed.len(),
                self.standing_ids.len()
            ))
        }
    }
}

/// Median nanoseconds of `f` applied to each of `items`.
fn median_over<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    median_call_ns(items.len(), |i| f(&items[i]))
}

fn ratio(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// The admission ladder over `inp`: untraced and traced repetitions on
/// one controller, then the rungs that sit inside `deploy` replayed in
/// isolation over the window's own configurations.
pub fn ladder(inp: AdmissionInputs, untraced_reps_n: usize) -> Result<Ladder, String> {
    let mut w = AdmissionWorkload::from_inputs(inp)?;
    let (plain, mut failed) = untraced_reps(untraced_reps_n, |s| w.run(false, s, None).failed);

    let stats_before = w.ctl.stats();
    let mut tracer = Tracer::default();
    let mut traced = Samples::default();
    let rep = w.run(false, &mut traced, Some(&mut tracer));
    failed += rep.failed;
    let stats = w.ctl.stats();
    let (_, deploy_p99, _) = summarize(&mut w.deploy_ns, 99.0);
    let table = layer_table(&tracer.spans);
    let requests = rep.ops as f64;
    let per_request_us = |ns: f64| ns / requests / 1e3;
    let median_us = |name: &str| median_ns_of(&tracer.spans, name) / 1e3;

    // Isolated replays over the window's Click configurations.
    let registry = Registry::standard();
    let ctx = SecurityContext {
        assigned_addr: Ipv4Addr::new(203, 0, 113, 10),
        registered: vec![CLIENT_ADDR],
        class: RequesterClass::Client,
    };
    let parse_configs = || -> Vec<_> {
        w.inp
            .window
            .iter()
            .take(64)
            .filter_map(|r| match ClientRequest::parse(&r.text).ok()?.config {
                ModuleConfig::Click(c) => Some(c),
                ModuleConfig::Stock(_) => None,
            })
            .collect()
    };
    // `canonical_text` memoizes per instance: time it on fresh parses.
    let canonical_ns = median_over(&parse_configs(), |c| {
        std::hint::black_box(c.canonical_text());
    });
    let configs = parse_configs();
    let lint_ns = median_over(&configs, |c| {
        std::hint::black_box(lint(c, &registry));
    });
    let absint_ns = median_over(&configs, |c| {
        std::hint::black_box(abstract_verdict(c, &ctx, &registry));
    });
    let symnet_ns = median_over(&configs, |c| {
        std::hint::black_box(check_module(c, &ctx, &registry).is_ok());
    });
    let rank_ns = median_over(&[(); 33], |_| {
        std::hint::black_box(w.ctl.ranked_platforms());
    });

    let d = |after: u64, before: u64| after - before;
    let metrics: Vec<Metric> = vec![
        metric(
            "controller.request.parse_us",
            median_us("controller.request.parse"),
            "us",
        ),
        metric("click.canonical.text_us", canonical_ns / 1e3, "us"),
        metric("analysis.lint.us", lint_ns / 1e3, "us"),
        metric("analysis.absint.us", absint_ns / 1e3, "us"),
        metric("symnet.check.us", symnet_ns / 1e3, "us"),
        metric(
            "controller.stage.lint_us",
            per_request_us(w.stages.lint as f64),
            "us",
        ),
        metric(
            "controller.stage.fastpath_us",
            per_request_us(w.stages.fastpath as f64),
            "us",
        ),
        metric(
            "controller.stage.symbolic_us",
            per_request_us(w.stages.symbolic as f64),
            "us",
        ),
        metric(
            "controller.stage.placement_us",
            per_request_us(w.stages.placement as f64),
            "us",
        ),
        metric(
            "controller.stage.compile_us",
            per_request_us(w.stages.compile as f64),
            "us",
        ),
        metric(
            "controller.stage.check_us",
            per_request_us(w.stages.check as f64),
            "us",
        ),
        metric(
            "controller.deploy.self_us",
            per_request_us(self_ns_of(&table, "controller.deploy")),
            "us",
        ),
        metric("controller.placement.rank_us", rank_ns / 1e3, "us"),
        metric("controller.kill.us", median_us("controller.kill"), "us"),
        metric(
            "controller.cache.invalidate_us",
            median_us("controller.cache.invalidate"),
            "us",
        ),
        metric(
            "controller.cache.verdict_hit_ratio",
            ratio(
                d(stats.cache_hits, stats_before.cache_hits),
                d(stats.cache_misses, stats_before.cache_misses),
            ),
            "ratio",
        ),
        metric(
            "controller.cache.lint_hit_ratio",
            d(stats.lint_cache_hits, stats_before.lint_cache_hits) as f64
                / d(stats.cache_misses, stats_before.cache_misses).max(1) as f64,
            "ratio",
        ),
        metric(
            "controller.cache.summary_hit_ratio",
            ratio(
                d(stats.summary_cache_hits, stats_before.summary_cache_hits),
                d(
                    stats.summary_cache_misses,
                    stats_before.summary_cache_misses,
                ),
            ),
            "ratio",
        ),
        metric(
            "analysis.fastpath.hit_ratio",
            ratio(
                d(stats.fastpath_hits, stats_before.fastpath_hits),
                d(stats.fastpath_fallbacks, stats_before.fastpath_fallbacks),
            ),
            "ratio",
        ),
        metric(
            "symnet.bailouts",
            d(stats.symbolic_bailouts(), stats_before.symbolic_bailouts()) as f64,
            "count",
        ),
        metric("controller.memo.entries", w.memo_peak as f64, "count"),
        metric("controller.deploy.us_p99", deploy_p99 / 1e3, "us"),
    ];
    w.finish()?;
    Ok(Ladder {
        metrics,
        tracer,
        overhead_ratio: steady(&[traced]).p50 / steady(&plain).p50,
        failed,
        attempted: rep.ops,
        digest: w.inp.digest,
    })
}
