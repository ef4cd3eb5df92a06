//! A deploy storm through the staged admission pipeline: a fleet of
//! tenants installs alpha-renamed copies of one stock chain, and
//! compositional chain summaries make every admission after the first
//! replay a memoized transfer function instead of re-executing the
//! whole graph symbolically.
//!
//! The verdict cache never helps here — every module name is unique, so
//! each request is a fresh verification. What *does* repeat is the
//! chain itself: the summary cache keys on the name-free canonical
//! slice, which all alpha-renamed copies share.
//!
//! The example then times the same security check at library level,
//! the whole-graph oracle against the compositional walk, to show what
//! the summaries buy.
//!
//! Run with: `cargo run -p innet-examples --bin deploy_storm`

use innet::analysis::{bind_self, SELF_SENTINEL};
use innet::prelude::*;
use innet::symnet::{check_module, check_module_summarized, ModelCache, SecurityContext};
use std::time::Instant;

const TENANTS: usize = 16;

/// One stock chain, deployed over and over under different module (and
/// thus element) names. Chain-safe end to end, so a single summary
/// covers it.
const STOCK: &str = "FromNetfront() -> CheckIPHeader() -> DecIPTTL() \
     -> IPFilter(allow udp dst port 1500) -> SetTOS(12) -> Counter() \
     -> Paint(7) -> DecIPTTL() -> Counter() -> SetTOS(30) \
     -> SetIPDst(172.16.15.133) -> ToNetfront();";

const CLIENT_ADDR: &str = "172.16.15.133";

fn main() {
    let n = 2 * TENANTS;

    let mut ctl = Controller::new(Topology::figure3());
    for i in 0..TENANTS {
        let addr = CLIENT_ADDR.parse().unwrap();
        ctl.register_client(format!("tenant{i}"), RequesterClass::Client, vec![addr]);
    }
    for i in 0..n {
        let req = ClientRequest::parse(&format!("module m{i}:\n{STOCK}")).unwrap();
        ctl.deploy(&format!("tenant{}", i % TENANTS), req)
            .expect("stock chain is deployable");
    }
    // These deploys all commit, so total admission time is dominated by
    // placement; the stage the summaries accelerate is the symbolic
    // check. (The deploy_storm *bench* times that check over 100k
    // requests instead.)
    let s = ctl.stats();
    assert_eq!(s.cache_hits, 0, "unique module names defeat verdict replay");
    println!(
        "admission:     {n} uncached deploys, symbolic stage {:.1} µs each",
        s.stage_symbolic_ns as f64 / n as f64 / 1e3
    );
    println!(
        "summary cache: {} hits, {} misses ({} chain elements replayed instead of re-executed)",
        s.summary_cache_hits, s.summary_cache_misses, s.summary_chain_nodes
    );
    println!(
        "stage means:   lint {:.1} µs | symbolic {:.1} µs | placement {:.1} µs",
        s.stage_lint_ns as f64 / n as f64 / 1e3,
        s.stage_symbolic_ns as f64 / n as f64 / 1e3,
        s.stage_placement_ns as f64 / n as f64 / 1e3,
    );
    // The fleet-wide caches that did the work: one summary per distinct
    // slice (every alpha-renamed copy shares it), plus the lint memo.
    println!(
        "memo sizes:    {} chain summaries | {} lint memo hits",
        ctl.cached_summaries(),
        s.lint_cache_hits,
    );

    // The same check the symbolic stage runs, in the context admission
    // builds for these tenants, once per mode over the same n requests.
    let cfg = ClickConfig::parse(STOCK).unwrap();
    let cfg = bind_self(&cfg, SELF_SENTINEL);
    let ctx = SecurityContext {
        assigned_addr: SELF_SENTINEL,
        registered: vec![CLIENT_ADDR.parse().unwrap()],
        class: RequesterClass::Client,
    };
    let registry = Registry::standard();
    let t = Instant::now();
    for _ in 0..n {
        let report = check_module(&cfg, &ctx, &registry).unwrap();
        assert_eq!(report.verdict, Verdict::Safe);
    }
    let whole = t.elapsed().as_secs_f64() / n as f64 * 1e6;
    let memos = ModelCache::default();
    let t = Instant::now();
    for _ in 0..n {
        let (report, _) = check_module_summarized(&cfg, &ctx, &registry, Some(&memos)).unwrap();
        assert_eq!(report.verdict, Verdict::Safe);
    }
    let comp = t.elapsed().as_secs_f64() / n as f64 * 1e6;
    println!("whole-graph:   {n} checks, {whole:.1} µs each");
    println!("compositional: {n} checks, {comp:.1} µs each");
    println!(
        "speedup:       {:.2}x lower symbolic-check latency with summaries",
        whole / comp
    );
}
