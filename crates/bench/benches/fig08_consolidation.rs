//! Figure 8: cumulative throughput with many client configurations
//! consolidated into a single ClickOS VM. Measured natively.

use innet::experiments::fig08_consolidation::consolidation_sweep;
use innet_bench::{quick_mode, Report};

fn main() {
    let counts: Vec<usize> = if quick_mode() {
        vec![24, 96, 252]
    } else {
        vec![24, 48, 72, 96, 120, 144, 168, 192, 216, 240, 252]
    };
    let rounds = if quick_mode() { 20 } else { 200 };
    let frame = 1472;
    let series = consolidation_sweep(&counts, frame, rounds);

    let mut r = Report::new(
        "fig08_consolidation",
        "Figure 8: cumulative throughput vs configs per VM (measured natively)",
    );
    r.line(&format!(
        "{:>8} {:>12} {:>12} {:>12}",
        "configs", "Mpps", "Gbit/s", "vs 24"
    ));
    let base = series.first().map(|p| p.pps).unwrap_or(1.0);
    for p in &series {
        r.line(&format!(
            "{:>8} {:>12.3} {:>12.2} {:>11.0}%",
            p.configs,
            p.pps / 1e6,
            p.gbps,
            p.pps / base * 100.0
        ));
    }
    // The droop bound tier-1 used to assert on wall-clock rates (252
    // tenants within 30–130 % of 4 tenants at 512 B) is reported here,
    // where a loaded host skews a number rather than failing a test.
    let droop = consolidation_sweep(&[4, 252], 512, rounds);
    r.line(&format!(
        "252 vs 4 configs at 512 B: {:.0}% (expected band 30-130%)",
        droop[1].pps / droop[0].pps * 100.0
    ));
    r.blank();
    r.line(
        "paper shape: ~flat to ~150 configs, then a gentle droop as the \
         linear demux scan catches the per-packet I/O floor",
    );
    r.finish();
}
