//! Schema-validates `BENCH_*.json` snapshot files (CI's bench-snapshot
//! smoke step). Exits non-zero with a diagnostic on the first invalid
//! file.
//!
//! Every snapshot has one shape, [`Snapshot`]; its `bench` name selects
//! the row invariants [`Snapshot::parse`] checks.

use innet_bench::Snapshot;

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: validate_snapshot <BENCH_*.json>...");
        std::process::exit(2);
    }
    for path in paths {
        let checked = std::fs::read_to_string(&path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|text| Snapshot::parse(&text));
        match checked {
            Ok(snap) => println!(
                "{path}: ok ({} rows, bench '{}')",
                snap.rows.len(),
                snap.bench
            ),
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
