//! Command line of the In-Net benchmark. `run.sh` builds and invokes it;
//! see `README.md`.

#![forbid(unsafe_code)]
#![deny(deprecated)]

use std::path::PathBuf;
use std::process::ExitCode;

use innet_benchmark::json::Json;
use innet_benchmark::{harness, trace, Outcome, WORKLOADS};

const USAGE: &str = "usage: innet-benchmark --workload <name> [--seed N] [--seconds S] \
[--trace 0|1] [--check] [--out DIR]\n       innet-benchmark --ladder-from <trace.jsonl>\n       \
innet-benchmark --compare <workload> <a.txt> <b.txt> <BENCHMARK.json>\n       \
innet-benchmark --compare-counts <workload> <a-traced.txt> <b-traced.txt>";

/// The default seed; `42` is the held-out seed no sizing was done on
/// (both are recorded in README.md).
const DEFAULT_SEED: u64 = 20_150_421;

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    // Result files hold the run's whole stdout: the result is the last line.
    let last = text.lines().last().ok_or(format!("{path}: empty"))?;
    Json::parse(if path.ends_with("BENCHMARK.json") {
        &text
    } else {
        last
    })
    .map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut traced, mut check) = (DEFAULT_SEED, 12.0, false, false);
    let mut out = PathBuf::from("benchmark/out");
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}\n{USAGE}"));
        match arg.as_str() {
            "--workload" => workload = Some(value("a name")?.clone()),
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            // `--trace 0|1` for the driver; a bare `--trace` means 1.
            "--trace" => {
                traced = it
                    .next_if(|v| *v == "0" || *v == "1")
                    .is_none_or(|v| v == "1")
            }
            "--check" => check = true,
            "--out" => out = PathBuf::from(value("a directory")?),
            "--ladder-from" => {
                let path = value("a span file")?;
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                let spans = trace::read_jsonl(&text)?;
                trace::validate(&spans)?;
                trace::print_table(&trace::layer_table(&spans));
                return Ok(true);
            }
            "--compare" => {
                let name = value("a workload")?.clone();
                let (a, b) = (
                    read_json(value("a result file")?)?,
                    read_json(value("a result file")?)?,
                );
                let spec = read_json(value("BENCHMARK.json")?)?;
                return innet_benchmark::compare(&name, &a, &b, &spec);
            }
            "--compare-counts" => {
                let name = value("a workload")?.clone();
                let (a, b) = (
                    read_json(value("a result file")?)?,
                    read_json(value("a result file")?)?,
                );
                return innet_benchmark::compare_counts(&name, &a, &b);
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    let name = workload.ok_or(USAGE)?;
    if !WORKLOADS.contains(&name.as_str()) {
        return Err(format!("unknown workload '{name}'; one of {WORKLOADS:?}"));
    }
    println!(
        "workload: {name}  seed: {seed}  seconds: {seconds}  trace: {}",
        u8::from(traced)
    );
    let outcome: Outcome = if traced {
        innet_benchmark::run_traced(&name, seed, seconds, &out)?
    } else {
        innet_benchmark::run_end_to_end(&name, seed, seconds, check)?
    };
    println!("host: {}", harness::host_block(outcome.threads));
    println!("input_digest: {:016x}", outcome.digest);
    for m in &outcome.metrics {
        println!("{:<44} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("fail_ratio: {} / {}", outcome.failed, outcome.attempted);
    println!("{}", outcome.result_line());
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("innet-benchmark: check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("innet-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
