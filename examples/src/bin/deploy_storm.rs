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
//! Run with: `cargo run -p innet-examples --bin deploy_storm`

use innet::prelude::*;
use std::time::Instant;

const TENANTS: usize = 16;

/// One stock chain, deployed over and over under different module (and
/// thus element) names. Chain-safe end to end, so a single summary
/// covers it.
const STOCK: &str = "FromNetfront() -> CheckIPHeader() -> DecIPTTL() \
     -> IPFilter(allow udp dst port 1500) -> SetTOS(12) -> Counter() \
     -> Paint(7) -> DecIPTTL() -> Counter() -> SetTOS(30) \
     -> SetIPDst(172.16.15.133) -> ToNetfront();";

fn controller() -> Controller {
    let mut ctl = Controller::new(Topology::figure3());
    for i in 0..TENANTS {
        ctl.register_client(
            format!("tenant{i}"),
            RequesterClass::Client,
            vec!["172.16.15.133".parse().unwrap()],
        );
    }
    ctl
}

/// Deploys `2 * TENANTS` uniquely named copies of the stock chain and
/// returns the elapsed time plus the controller for stats inspection.
fn storm(summaries: bool) -> (std::time::Duration, Controller) {
    let mut ctl = controller();
    ctl.set_summaries_enabled(summaries);
    let t = Instant::now();
    for i in 0..2 * TENANTS {
        let req = ClientRequest::parse(&format!("module m{i}:\n{STOCK}")).unwrap();
        ctl.deploy(&format!("tenant{}", i % TENANTS), req)
            .expect("stock chain is deployable");
    }
    (t.elapsed(), ctl)
}

fn main() {
    let n = 2 * TENANTS;

    // These deploys all commit, so total admission time is dominated by
    // placement; the stage the summaries accelerate is the symbolic
    // check, reported per mode below. (The deploy_storm *bench* isolates
    // uncached verification over 100k requests instead.)
    let (_, ctl) = storm(false);
    let s = ctl.stats();
    assert_eq!(s.cache_hits, 0, "unique module names defeat verdict replay");
    let whole_symb = s.stage_symbolic_ns as f64 / n as f64 / 1e3;
    println!("whole-graph:   {n} uncached admissions, symbolic stage {whole_symb:.1} µs each");

    let (_, ctl) = storm(true);
    let s = ctl.stats();
    assert_eq!(s.cache_hits, 0, "unique module names defeat verdict replay");
    let comp_symb = s.stage_symbolic_ns as f64 / n as f64 / 1e3;
    println!("compositional: {n} uncached admissions, symbolic stage {comp_symb:.1} µs each");
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
    println!(
        "speedup:       {:.2}x lower symbolic-stage latency with summaries",
        whole_symb / comp_symb
    );

    // The fleet-wide caches that did the work: one summary per distinct
    // slice (every alpha-renamed copy shares it), plus the lint memo
    // shared by both modes.
    println!(
        "memo sizes:    {} chain summaries | {} lint memo hits",
        ctl.cached_summaries(),
        s.lint_cache_hits,
    );
}
