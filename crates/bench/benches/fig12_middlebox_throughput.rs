//! Figure 12: aggregate throughput of many middlebox VMs of four kinds
//! on a single core. Measured natively, on both engines — the
//! interpreted element graph and the compiled flat plan — and recorded
//! as a `BENCH_fig12_middlebox.json` snapshot (the committed perf
//! trajectory).

use innet::experiments::fig12_middleboxes::{middlebox_sweep_with, KINDS};
use innet_bench::{quick_mode, Report, Snapshot};

fn main() {
    let quick = quick_mode();
    let counts: Vec<usize> = if quick {
        vec![1, 10, 40]
    } else {
        vec![1, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
    };
    let frame = 1472;
    let mut r = Report::new(
        "fig12_middlebox_throughput",
        "Figure 12: aggregate throughput (Gbit/s) vs VM count, one core",
    );
    let mut snap = Snapshot::new("fig12_middlebox");
    for (compiled, mode) in [(false, "interpreted"), (true, "compiled")] {
        r.line(&format!("engine: {mode}"));
        let header = format!(
            "{:>6} {:>12} {:>12} {:>12} {:>12}",
            "VMs", KINDS[0], KINDS[1], KINDS[2], KINDS[3]
        );
        r.line(&header);
        let sweeps: Vec<Vec<_>> = KINDS
            .iter()
            .map(|kind| middlebox_sweep_with(kind, &counts, frame, compiled))
            .collect();
        for (i, &n) in counts.iter().enumerate() {
            r.line(&format!(
                "{:>6} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
                n, sweeps[0][i].gbps, sweeps[1][i].gbps, sweeps[2][i].gbps, sweeps[3][i].gbps
            ));
        }
        r.blank();
    }
    // Snapshot rows: the single-VM point per kind, measured at the
    // minimum frame size. The figure above keeps the paper's 1472-byte
    // frames, where the modelled netfront cost (a copy plus a checksum
    // over every frame byte, paid identically by both engines) dominates
    // and hides the engines from each other; at 64 bytes the per-packet
    // classification and header work — the cost the compiled plan
    // removes — is what the row measures.
    // Each row is the best of `reps` sweeps: ambient load on a shared
    // machine only ever slows a run, so the max is the noise-robust
    // estimate.
    let snap_frame = 64;
    let reps = if quick { 2 } else { 5 };
    for (compiled, mode) in [(false, "interpreted"), (true, "compiled")] {
        let mut agg_pps = 0.0;
        let mut agg_gbps = 0.0;
        for kind in KINDS.iter() {
            let p = (0..reps)
                .map(|_| middlebox_sweep_with(kind, &[1], snap_frame, compiled)[0])
                .max_by(|a, b| a.mpps.total_cmp(&b.mpps))
                .expect("reps >= 1");
            let pps = p.mpps * 1e6;
            snap.row([
                ("corpus", format!("fig12-{kind}").as_str().into()),
                ("mode", mode.into()),
                ("workers", 1u64.into()),
                ("pps", pps.into()),
                ("gbps", p.gbps.into()),
            ]);
            agg_pps += pps;
            agg_gbps += p.gbps;
        }
        let n = KINDS.len() as f64;
        snap.row([
            ("corpus", "fig12-aggregate".into()),
            ("mode", mode.into()),
            ("workers", 1u64.into()),
            ("pps", (agg_pps / n).into()),
            ("gbps", (agg_gbps / n).into()),
        ]);
    }
    println!();
    println!(
        "{:<20} {:>12} {:>12} {:>8}",
        "corpus", "interp pps", "compiled pps", "speedup"
    );
    for kind in KINDS
        .iter()
        .map(|k| format!("fig12-{k}"))
        .chain(["fig12-aggregate".to_string()])
    {
        let find = |mode: &str| {
            snap.rows
                .iter()
                .find(|r| r.text("corpus") == Some(&kind) && r.text("mode") == Some(mode))
                .and_then(|r| r.num("pps"))
                .unwrap_or(0.0)
        };
        let (i, c) = (find("interpreted"), find("compiled"));
        println!(
            "{kind:<20} {i:>12.0} {c:>12.0} {:>7.2}x",
            if i > 0.0 { c / i } else { 0.0 }
        );
    }
    r.line(
        "paper: high, flat aggregate regardless of middlebox count and \
         type (their testbed tops at ~10 Gbit/s)",
    );
    r.finish();
    snap.write();
}
