//! A deploy storm through the staged admission pipeline: a fleet of
//! tenants installs copies of one stock chain under fresh module names.
//!
//! The verdict cache never helps here — every module name is unique, so
//! each request is a fresh verification. What *does* repeat is the
//! configuration itself: every security check after the first runs the
//! wired graph the fleet-wide memo built for the first copy.
//!
//! The example then times the same security check at library level,
//! the no-memo whole-graph oracle against the memoized graph, and checks
//! that the two agree on every report.
//!
//! Run with: `cargo run -p innet-examples --bin deploy_storm`

use innet::analysis::{bind_self, SELF_SENTINEL};
use innet::prelude::*;
use innet::symnet::{check_module, check_module_memoized, ModelCache, SecurityContext};
use std::time::Instant;

const TENANTS: usize = 16;

/// One stock chain, deployed over and over under different module
/// names.
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
    // placement; the stage the graph memo accelerates is the symbolic
    // check. (The deploy_storm *bench* times that check over 100k
    // requests instead.)
    let s = ctl.stats();
    assert_eq!(s.cache_hits, 0, "unique module names defeat verdict replay");
    println!(
        "admission:     {n} uncached deploys, symbolic stage {:.1} µs each",
        s.stage_symbolic_ns as f64 / n as f64 / 1e3
    );
    assert_eq!(
        s.security_checks, n as u64,
        "one security check per request"
    );
    println!(
        "stage means:   lint {:.1} µs | symbolic {:.1} µs | placement {:.1} µs",
        s.stage_lint_ns as f64 / n as f64 / 1e3,
        s.stage_symbolic_ns as f64 / n as f64 / 1e3,
        s.stage_placement_ns as f64 / n as f64 / 1e3,
    );
    println!("lint memo:     {} hits", s.lint_cache_hits);

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
    let memos = ModelCache::default();
    let (mut whole_ns, mut memo_ns, mut agree) = (0, 0, 0);
    for _ in 0..n {
        let t = Instant::now();
        let whole = check_module(&cfg, &ctx, &registry).unwrap();
        whole_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        let (memo, _) = check_module_memoized(&cfg, &ctx, &registry, &memos).unwrap();
        memo_ns += t.elapsed().as_nanos();
        assert_eq!(whole.verdict, Verdict::Safe);
        let same = (whole.verdict, whole.flows_checked, &whole.violations)
            == (memo.verdict, memo.flows_checked, &memo.violations);
        agree += usize::from(same);
    }
    let whole = whole_ns as f64 / n as f64 / 1e3;
    let memo = memo_ns as f64 / n as f64 / 1e3;
    println!("whole-graph:   {n} checks, {whole:.1} µs each");
    println!("memoized:      {n} checks, {memo:.1} µs each");
    println!(
        "speedup:       {:.2}x lower symbolic-check latency with memoized graphs",
        whole / memo
    );
    println!("verdicts agree with the whole-graph oracle: {agree}/{n}");
    assert_eq!(agree, n, "the memoized check must match the oracle");
}
