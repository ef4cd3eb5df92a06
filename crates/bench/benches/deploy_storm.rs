//! Deploy storm: the admission security check on memoized graphs versus
//! the no-memo whole-graph oracle, timed at library level.
//!
//! The corpus mixes **stock** chains (a handful of templates fleets of
//! tenants share) with **novel** one-off chains (randomized arguments,
//! so their canonical texts are unique). Each configuration is bound at
//! [`SELF_SENTINEL`] and checked in the [`SecurityContext`] the
//! controller builds for a client, which is exactly what admission's
//! symbolic stage runs on a verdict-memo miss.
//!
//! Every config ends by writing an unregistered source address, so each
//! check rejects after doing all the verification work, in both modes.
//! Both run the same corpus:
//!
//! * `whole-graph` — [`check_module`]: every element symbolically
//!   re-executed and every model rebuilt per request (the oracle);
//! * `memoized` — [`check_module_memoized`] with one [`ModelCache`]
//!   shared across the storm, as the controller shares its fleet-wide
//!   memo: a stock chain's wired graph is built once, and a novel chain's
//!   graph is built from memoized element models.
//!
//! The per-request latency distribution of both modes is recorded to
//! `BENCH_admission.json`.

use std::time::Instant;

use innet::analysis::{bind_self, SELF_SENTINEL};
use innet::prelude::*;
use innet::symnet::{check_module, check_module_memoized, ModelCache, SecurityContext};
use innet_bench::{quick_mode, Report, Snapshot};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Stock templates: shared pipelines a fleet deploys over and over. All
/// end with a spoofed source, so every check rejects.
const STOCK: &[&str] = &[
    "FromNetfront() -> CheckIPHeader() -> DecIPTTL() -> IPFilter(allow udp dst port 1500) \
     -> SetTOS(12) -> Counter() -> IPFilter(allow udp) -> Paint(1) -> DecIPTTL() \
     -> Counter() -> IPFilter(allow udp dst port 1500) -> SetTOS(14) \
     -> DecIPTTL() -> Counter() -> SetTOS(18) -> Paint(13) -> CheckIPHeader() \
     -> Counter() -> DecIPTTL() -> Paint(21) -> Counter() -> SetTOS(30) \
     -> CheckIPHeader() -> DecIPTTL() -> Counter() -> Paint(29) \
     -> SetIPSrc(8.8.8.8) -> ToNetfront();",
    "FromNetfront() -> IPFilter(allow tcp dst port 80) -> SetTOS(46) -> Counter() \
     -> IPFilter(allow tcp) -> DecIPTTL() -> Paint(9) -> CheckIPHeader() -> Counter() \
     -> IPFilter(allow tcp syn) -> SetTOS(40) -> DecIPTTL() \
     -> DecIPTTL() -> Counter() -> SetTOS(18) -> Paint(13) -> CheckIPHeader() \
     -> Counter() -> DecIPTTL() -> Paint(21) -> Counter() -> SetTOS(30) \
     -> CheckIPHeader() -> DecIPTTL() -> Counter() -> Paint(29) \
     -> SetIPSrc(8.8.8.8) -> ToNetfront();",
    "FromNetfront() -> CheckIPHeader() -> Paint(3) -> IPFilter(allow udp) -> DecIPTTL() \
     -> Counter() -> IPFilter(allow udp dst port 53) -> SetTOS(2) -> Paint(4) \
     -> DecIPTTL() -> Counter() -> CheckIPHeader() \
     -> DecIPTTL() -> Counter() -> SetTOS(18) -> Paint(13) -> CheckIPHeader() \
     -> Counter() -> DecIPTTL() -> Paint(21) -> Counter() -> SetTOS(30) \
     -> CheckIPHeader() -> DecIPTTL() -> Counter() -> Paint(29) \
     -> SetIPSrc(8.8.8.8) -> ToNetfront();",
    "FromNetfront() -> DecIPTTL() -> DecIPTTL() -> SetTOS(4) -> IPFilter(allow tcp) \
     -> Counter() -> Paint(8) -> IPFilter(allow tcp dst port 443) -> CheckIPHeader() \
     -> DecIPTTL() -> Counter() -> SetTOS(6) \
     -> DecIPTTL() -> Counter() -> SetTOS(18) -> Paint(13) -> CheckIPHeader() \
     -> Counter() -> DecIPTTL() -> Paint(21) -> Counter() -> SetTOS(30) \
     -> CheckIPHeader() -> DecIPTTL() -> Counter() -> Paint(29) \
     -> SetIPSrc(8.8.8.8) -> ToNetfront();",
    "FromNetfront() -> IPFilter(allow udp dst port 53) -> CheckIPHeader() -> Counter() \
     -> SetTOS(10) -> IPFilter(allow udp) -> Paint(5) -> DecIPTTL() -> Counter() \
     -> IPFilter(allow udp src port 53) -> DecIPTTL() -> CheckIPHeader() \
     -> DecIPTTL() -> Counter() -> SetTOS(18) -> Paint(13) -> CheckIPHeader() \
     -> Counter() -> DecIPTTL() -> Paint(21) -> Counter() -> SetTOS(30) \
     -> CheckIPHeader() -> DecIPTTL() -> Counter() -> Paint(29) \
     -> SetIPSrc(8.8.8.8) -> ToNetfront();",
    "FromNetfront() -> CheckIPHeader() -> IPFilter(allow icmp) -> Paint(7) \
     -> DecIPTTL() -> Counter() -> IPFilter(allow icmp) -> SetTOS(22) -> Paint(11) \
     -> Counter() -> DecIPTTL() -> CheckIPHeader() \
     -> DecIPTTL() -> Counter() -> SetTOS(18) -> Paint(13) -> CheckIPHeader() \
     -> Counter() -> DecIPTTL() -> Paint(21) -> Counter() -> SetTOS(30) \
     -> CheckIPHeader() -> DecIPTTL() -> Counter() -> Paint(29) \
     -> SetIPSrc(8.8.8.8) -> ToNetfront();",
];

/// A novel one-off chain: randomized arguments make its canonical text
/// unique, so its graph is wired (and cached) on first sight.
fn novel_config(rng: &mut StdRng) -> String {
    let tos = rng.gen_range(0u32..64);
    let paint = rng.gen_range(0u32..256);
    let port = rng.gen_range(0u32..256);
    format!(
        "FromNetfront() -> SetTOS({tos}) -> Paint({paint}) -> DecIPTTL() \
         -> Paint({port}) -> SetIPSrc(8.8.8.8) -> ToNetfront();"
    )
}

/// The next configuration of the corpus: 80% stock, 20% novel.
fn config(rng: &mut StdRng) -> ClickConfig {
    let text = if rng.gen_range(0u32..5) < 4 {
        STOCK[rng.gen_range(0..STOCK.len())].to_string()
    } else {
        novel_config(rng)
    };
    ClickConfig::parse(&text).expect("corpus configs parse")
}

/// Checks the whole corpus in one mode, timing each check alone; returns
/// the per-check latencies.
fn storm(memoized: bool, requests: usize, seed: u64) -> Vec<u64> {
    let registry = Registry::standard();
    let ctx = SecurityContext {
        assigned_addr: SELF_SENTINEL,
        registered: vec!["172.16.15.133".parse().unwrap()],
        class: RequesterClass::Client,
    };
    let memos = ModelCache::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut latencies_ns = Vec::with_capacity(requests);
    for _ in 0..requests {
        let cfg = config(&mut rng);
        let cfg = bind_self(&cfg, SELF_SENTINEL);
        let t = Instant::now();
        let report = if memoized {
            check_module_memoized(&cfg, &ctx, &registry, &memos).map(|(report, _)| report)
        } else {
            check_module(&cfg, &ctx, &registry)
        };
        latencies_ns.push(t.elapsed().as_nanos() as u64);
        let report = report.expect("corpus configs check");
        assert_eq!(
            report.verdict,
            Verdict::Reject,
            "storm configs spoof their source and must be rejected"
        );
    }
    latencies_ns
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let requests: usize = if quick_mode() { 2_000 } else { 100_000 };
    let mut r = Report::new(
        "deploy_storm",
        "Deploy storm: symbolic security check, memoized graphs vs whole-graph",
    );
    r.line(&format!(
        "{requests} checks per mode, {} stock templates + randomized novel chains",
        STOCK.len()
    ));
    r.blank();
    r.line(&format!(
        "{:>15} {:>12} {:>12} {:>12}",
        "mode", "mean (us)", "p50 (us)", "p99 (us)"
    ));

    let mut snap = Snapshot::new("admission");
    let mut means = Vec::new();
    for (mode, memoized) in [("whole-graph", false), ("memoized", true)] {
        let mut latencies_ns = storm(memoized, requests, 0x5702_2015);
        latencies_ns.sort_unstable();
        let mean = latencies_ns.iter().sum::<u64>() as f64 / latencies_ns.len() as f64;
        let p50 = percentile(&latencies_ns, 0.50);
        let p99 = percentile(&latencies_ns, 0.99);
        r.line(&format!(
            "{:>15} {:>12.1} {:>12.1} {:>12.1}",
            mode,
            mean / 1e3,
            p50 as f64 / 1e3,
            p99 as f64 / 1e3
        ));
        snap.row([
            ("corpus", "mixed-stock-novel".into()),
            ("mode", mode.into()),
            ("requests", (requests as u64).into()),
            ("mean_ns", mean.into()),
            ("p50_ns", p50.into()),
            ("p99_ns", p99.into()),
        ]);
        means.push(mean);
    }

    r.blank();
    let speedup = means[0] / means[1];
    r.line(&format!(
        "mean symbolic check latency: {speedup:.2}x lower with memoized graphs"
    ));
    r.finish();
    snap.write();
}
