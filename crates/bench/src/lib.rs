//! Shared reporting helpers for the figure benches.
//!
//! Every bench prints its series to stdout in the paper's row format and
//! mirrors it to `target/innet-reports/<name>.txt`, so a full
//! `cargo bench` leaves a directory of reproduced tables behind. Five
//! benches also leave a [`Snapshot`] at the repo root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::PathBuf;

mod json;

/// A tiny line-oriented report that tees to stdout and a file.
pub struct Report {
    name: &'static str,
    body: String,
}

impl Report {
    /// Starts a report for a figure/table name like `"fig05"`.
    pub fn new(name: &'static str, title: &str) -> Report {
        let mut r = Report {
            name,
            body: String::new(),
        };
        r.line(&format!("# {title}"));
        r
    }

    /// Appends (and prints) one line.
    pub fn line(&mut self, s: &str) {
        println!("{s}");
        let _ = writeln!(self.body, "{s}");
    }

    /// Appends a blank line.
    pub fn blank(&mut self) {
        self.line("");
    }

    /// Writes the report file under `target/innet-reports/`.
    pub fn finish(self) {
        // Anchor at the workspace target dir regardless of bench CWD.
        let target = std::env::var("CARGO_TARGET_DIR").map(PathBuf::from);
        let dir = target
            .unwrap_or(workspace().join("target"))
            .join("innet-reports");
        let path = dir.join(format!("{}.txt", self.name));
        if std::fs::create_dir_all(&dir).is_ok() && std::fs::write(&path, self.body).is_ok() {
            eprintln!("[report written to {}]", path.display());
        }
    }
}

fn workspace() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// True when the harness was invoked by `cargo bench` in quick mode
/// (`--quick` or the `INNET_BENCH_QUICK` env var): benches shrink their
/// parameter sweeps so CI stays fast.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick") || std::env::var("INNET_BENCH_QUICK").is_ok()
}

/// Version stamp of the snapshot schema; bump on breaking changes.
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 2;

/// The fields of a snapshot's `host` block, named as the `benchmark/`
/// harness names them.
pub const HOST_FIELDS: [&str; 4] = ["nproc", "rustc", "commit", "profile"];

/// One value in a snapshot row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label: a corpus, an engine mode, a scenario name.
    Str(String),
    /// A measurement or a count.
    Num(f64),
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Str(s.to_string())
    }
}

impl From<f64> for Cell {
    fn from(x: f64) -> Cell {
        Cell::Num(x)
    }
}

impl From<u64> for Cell {
    fn from(x: u64) -> Cell {
        Cell::Num(x as f64)
    }
}

/// An ordered list of named cells: one measured point, or the host block.
#[derive(Debug, Clone, PartialEq)]
pub struct Row(pub Vec<(String, Cell)>);

impl Row {
    /// The cell named `name`.
    pub fn get(&self, name: &str) -> Option<&Cell> {
        self.0.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// The number named `name`, if the row has one.
    pub fn num(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            Cell::Num(x) => Some(*x),
            Cell::Str(_) => None,
        }
    }

    /// The label named `name`, if the row has one.
    pub fn text(&self, name: &str) -> Option<&str> {
        match self.get(name)? {
            Cell::Str(s) => Some(s),
            Cell::Num(_) => None,
        }
    }
}

/// A benchmark snapshot, `BENCH_<bench>.json`: the record a bench run
/// leaves behind and the repository keeps, with the machine that made it.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Which bench produced this snapshot.
    pub bench: String,
    /// The machine: [`HOST_FIELDS`], probed when the snapshot is created.
    pub host: Row,
    /// The measured points.
    pub rows: Vec<Row>,
}

impl Snapshot {
    /// An empty snapshot for bench `name`, stamped with this host.
    pub fn new(name: &str) -> Snapshot {
        Snapshot {
            bench: name.to_string(),
            host: probe_host(),
            rows: Vec::new(),
        }
    }

    /// Appends one measured row.
    pub fn row<'a>(&mut self, cells: impl IntoIterator<Item = (&'a str, Cell)>) {
        let cells = cells.into_iter().map(|(k, v)| (k.to_string(), v));
        self.rows.push(Row(cells.collect()));
    }

    /// The snapshot as JSON. Panics on a non-finite number, naming the
    /// bench and the column: a rate divided by zero is not a measurement.
    pub fn to_json(&self) -> String {
        let object = |row: &Row| {
            let cells = row.0.iter().map(|(k, v)| {
                let v = match v {
                    Cell::Str(s) => quote(s),
                    Cell::Num(x) if !x.is_finite() => {
                        panic!("bench {}: column {k} is not finite ({x})", self.bench)
                    }
                    Cell::Num(x) if x.fract() == 0.0 && x.abs() < 1e15 => format!("{x:.0}"),
                    Cell::Num(x) => format!("{x:.3}"),
                };
                format!("{}: {v}", quote(k))
            });
            format!("{{{}}}", cells.collect::<Vec<_>>().join(", "))
        };
        let rows: Vec<String> = self.rows.iter().map(object).collect();
        format!(
            "{{\n  \"schema_version\": {SNAPSHOT_SCHEMA_VERSION},\n  \"bench\": {},\n  \
             \"host\": {},\n  \"rows\": [\n    {}\n  ]\n}}\n",
            quote(&self.bench),
            object(&self.host),
            rows.join(",\n    ")
        )
    }

    /// Parses snapshot JSON and checks every invariant (see `check`).
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let top = json::parse(text)?;
        let field = |name: &str| top.field(name).ok_or(format!("missing field '{name}'"));
        let version = field("schema_version")?.leaf();
        if version != Some(&Cell::from(SNAPSHOT_SCHEMA_VERSION)) {
            return Err(format!("unsupported schema_version {version:?}"));
        }
        let Some(Cell::Str(bench)) = field("bench")?.leaf() else {
            return Err("bench must be a string".to_string());
        };
        let json::Value::Arr(rows) = field("rows")? else {
            return Err("rows must be an array".to_string());
        };
        let rows = rows
            .iter()
            .map(|r| r.row().ok_or("rows must be flat objects"));
        let snap = Snapshot {
            bench: bench.clone(),
            host: field("host")?.row().ok_or("host must be a flat object")?,
            rows: rows.collect::<Result<_, _>>()?,
        };
        snap.check()?;
        Ok(snap)
    }

    /// Writes `BENCH_<bench>.json` into `INNET_BENCH_SNAPSHOT_DIR`, or the
    /// workspace root so committed snapshots live beside the code they
    /// measure. Returns the path on success.
    pub fn write(&self) -> Option<PathBuf> {
        let dir = std::env::var("INNET_BENCH_SNAPSHOT_DIR").map(PathBuf::from);
        let path = dir
            .unwrap_or(workspace())
            .join(format!("BENCH_{}.json", self.bench));
        if let Err(e) = std::fs::write(&path, self.to_json()) {
            eprintln!("[snapshot write failed: {e}]");
            return None;
        }
        eprintln!("[snapshot written to {}]", path.display());
        Some(path)
    }

    /// The schema version, a full `host` block, at least one row, the
    /// generic rules on every number, and the bench's row invariants.
    fn check(&self) -> Result<(), String> {
        if let Some(f) = HOST_FIELDS.iter().find(|f| self.host.get(f).is_none()) {
            return Err(format!("host: missing '{f}'"));
        }
        let schema = SCHEMAS.iter().find(|s| s.bench == self.bench);
        let schema = schema.ok_or(format!("unknown bench '{}'", self.bench))?;
        if self.rows.is_empty() {
            return Err("no rows".to_string());
        }
        for (i, row) in self.rows.iter().enumerate() {
            let num = |k: &str| row.num(k).unwrap_or(0.0);
            for (k, cell) in &row.0 {
                let Cell::Num(x) = *cell else { continue };
                if !(x.is_finite() && x >= 0.0) {
                    return Err(format!("row {i}: {k} must be finite and non-negative"));
                }
                let twin = k.replace("p50", "p99");
                if twin != *k && !row.num(&twin).is_some_and(|hi| x <= hi) {
                    return Err(format!("row {i}: {k} is not at most its twin {twin}"));
                }
            }
            for &(k, col) in schema.columns {
                let ok = match (col, row.get(k)) {
                    (Text, Some(Cell::Str(s))) => !s.is_empty(),
                    (Mode(set), Some(Cell::Str(s))) => set.contains(&s.as_str()),
                    (Count(min), Some(&Cell::Num(x))) => x >= min && x.fract() == 0.0,
                    (Real, Some(Cell::Num(_))) => true,
                    _ => false,
                };
                if !ok {
                    return Err(format!("row {i}: {k} missing or not {col:?}"));
                }
            }
            if let Some((lo, hi)) = schema.at_most.iter().find(|(lo, hi)| num(lo) > num(hi)) {
                return Err(format!("row {i}: {lo} exceeds {hi}"));
            }
            let idle = |(x, n): &&(&str, &str)| num(n) == 0.0 && num(x) != 0.0;
            if let Some((x, n)) = schema.zero_without.iter().find(idle) {
                return Err(format!("row {i}: {x} reported without {n}"));
            }
        }
        Ok(())
    }
}

/// What one column of a bench's rows must hold: a non-empty label, one
/// of a closed set of labels, an integer at least this large, or any
/// number.
#[derive(Debug, Clone, Copy)]
enum Col {
    Text,
    Mode(&'static [&'static str]),
    Count(f64),
    Real,
}
use Col::{Count, Mode, Real, Text};

/// One bench's row invariants beyond the generic rules (finite
/// non-negative numbers, each `*p50*` at most its `*p99*` twin, at least
/// one row): the columns every row carries, pairs `(lo, hi)` with
/// `lo <= hi`, and pairs `(x, n)` where `x` is zero when the count `n` is.
struct Schema {
    bench: &'static str,
    columns: &'static [(&'static str, Col)],
    at_most: &'static [(&'static str, &'static str)],
    zero_without: &'static [(&'static str, &'static str)],
}

#[rustfmt::skip]
const THROUGHPUT: &[(&str, Col)] = &[
    ("corpus", Text), ("mode", Mode(&["interpreted", "compiled"])), ("workers", Count(1.0)),
    ("pps", Real), ("gbps", Real),
];

#[rustfmt::skip]
const SCHEMAS: &[Schema] = &[
    Schema { bench: "parallel_scaling", columns: THROUGHPUT, at_most: &[], zero_without: &[] },
    Schema { bench: "fig12_middlebox", columns: THROUGHPUT, at_most: &[], zero_without: &[] },
    Schema { bench: "admission", at_most: &[], zero_without: &[], columns: &[
        ("corpus", Text), ("mode", Mode(&["whole-graph", "memoized"])),
        ("requests", Count(1.0)), ("mean_ns", Real), ("p50_ns", Real), ("p99_ns", Real),
    ] },
    Schema { bench: "fleet", at_most: &[("platforms", "nodes")],
        zero_without: &[("downtime_p99_ns", "migrations")], columns: &[
        ("scenario", Text), ("nodes", Count(1.0)), ("platforms", Count(1.0)),
        ("placements", Count(1.0)), ("placement_p50_ns", Real), ("placement_p99_ns", Real),
        ("migrations", Count(0.0)), ("downtime_p50_ns", Real), ("downtime_p99_ns", Real),
    ] },
    Schema { bench: "scenarios", at_most: &[("rehomed", "tenants")],
        zero_without: &[("rehome_p99_ns", "rehomed")], columns: &[
        ("scenario", Text), ("tenants", Count(1.0)), ("rehomed", Count(0.0)),
        ("rehome_p50_ns", Real), ("rehome_p99_ns", Real), ("link_drops", Count(0.0)),
    ] },
];

/// This machine as a `host` block; a probe that fails reads `"unknown"`.
fn probe_host() -> Row {
    let run = |cmd: &str, args: &[&str]| {
        let mut cmd = std::process::Command::new(cmd);
        let out = cmd.args(args).current_dir(workspace()).output().ok();
        let out = out.filter(|o| o.status.success()).map(|o| o.stdout);
        let text = String::from_utf8(out.unwrap_or_default()).unwrap_or_default();
        let text = text.trim();
        Cell::from(if text.is_empty() { "unknown" } else { text })
    };
    let nproc = std::thread::available_parallelism().map(|n| n.get() as u64);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let cells = [
        nproc.map_or_else(|_| "unknown".into(), Cell::from),
        run("rustc", &["-V"]),
        run("git", &["describe", "--always", "--dirty", "--abbrev=7"]),
        profile.into(),
    ];
    Row(HOST_FIELDS
        .map(String::from)
        .into_iter()
        .zip(cells)
        .collect())
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => out += &format!("\\u{:04x}", c as u32),
            c => out.push(c),
        }
    }
    out + "\""
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;

    /// One valid snapshot per bench, two rows each.
    fn sample(bench: &str) -> Snapshot {
        let mut s = Snapshot::new(bench);
        match bench {
            "parallel_scaling" | "fig12_middlebox" => {
                for (mode, workers, pps, gbps) in [
                    ("interpreted", 1u64, 1_234_567.891, 0.632),
                    ("compiled", 4, 9e6, 4.608),
                ] {
                    s.row([
                        ("corpus", "consolidated".into()),
                        ("mode", mode.into()),
                        ("workers", workers.into()),
                        ("pps", pps.into()),
                        ("gbps", gbps.into()),
                    ]);
                }
            }
            "admission" => {
                for (mode, mean, p50, p99) in [
                    ("whole-graph", 81_234.5, 74_000.0, 190_000.0),
                    ("memoized", 31_234.5, 28_000.0, 90_000.0),
                ] {
                    s.row([
                        ("corpus", "mixed-stock-novel".into()),
                        ("mode", mode.into()),
                        ("requests", 100_000u64.into()),
                        ("mean_ns", mean.into()),
                        ("p50_ns", p50.into()),
                        ("p99_ns", p99.into()),
                    ]);
                }
            }
            "fleet" => {
                for (scenario, migrations, d50, d99) in [
                    ("mixed-stock-novel", 8u64, 70_000_000.0, 75_000_000.0),
                    ("stock", 0, 0.0, 0.0),
                ] {
                    s.row([
                        ("scenario", scenario.into()),
                        ("nodes", 1_001u64.into()),
                        ("platforms", 400u64.into()),
                        ("placements", 64u64.into()),
                        ("placement_p50_ns", 45_000.0.into()),
                        ("placement_p99_ns", 210_000.0.into()),
                        ("migrations", migrations.into()),
                        ("downtime_p50_ns", d50.into()),
                        ("downtime_p99_ns", d99.into()),
                    ]);
                }
            }
            "scenarios" => {
                for (scenario, rehomed, r50, r99, drops) in [
                    ("kill-pop", 38u64, 50_000_000.0, 52_000_000.0, 120u64),
                    ("flash-crowd", 0, 0.0, 0.0, 4_096),
                ] {
                    s.row([
                        ("scenario", scenario.into()),
                        ("tenants", 40u64.into()),
                        ("rehomed", rehomed.into()),
                        ("rehome_p50_ns", r50.into()),
                        ("rehome_p99_ns", r99.into()),
                        ("link_drops", drops.into()),
                    ]);
                }
            }
            other => panic!("no sample for {other}"),
        }
        s
    }

    const BENCHES: [&str; 5] = [
        "parallel_scaling",
        "fig12_middlebox",
        "admission",
        "fleet",
        "scenarios",
    ];

    #[test]
    fn every_bench_has_a_schema() {
        let mut names: Vec<&str> = SCHEMAS.iter().map(|s| s.bench).collect();
        names.sort_unstable();
        let mut want = BENCHES.to_vec();
        want.sort_unstable();
        assert_eq!(names, want);
    }

    #[test]
    fn snapshot_roundtrips_through_parser() {
        let s = sample("parallel_scaling");
        let parsed = Snapshot::parse(&s.to_json()).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.rows[1].num("workers"), Some(4.0));
    }

    #[test]
    fn fig12_snapshot_roundtrips_through_parser() {
        let s = sample("fig12_middlebox");
        let parsed = Snapshot::parse(&s.to_json()).unwrap();
        // Rates keep three decimals.
        assert!((parsed.rows[0].num("pps").unwrap() - 1_234_567.891).abs() < 1e-6);
        assert_eq!(parsed.rows[1].text("mode"), Some("compiled"));
    }

    #[test]
    fn admission_snapshot_roundtrips_through_parser() {
        let s = sample("admission");
        assert_eq!(Snapshot::parse(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn fleet_snapshot_roundtrips_through_parser() {
        let s = sample("fleet");
        assert_eq!(Snapshot::parse(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn scenario_snapshot_roundtrips_through_parser() {
        let s = sample("scenarios");
        let parsed = Snapshot::parse(&s.to_json()).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.host.0.len(), HOST_FIELDS.len());
    }

    /// `bench`'s sample JSON with the first `from` replaced by `to`.
    fn edit(bench: &str, from: &str, to: &str) -> String {
        let json = sample(bench).to_json();
        assert!(json.contains(from), "{bench}: sample lacks {from:?}");
        json.replacen(from, to, 1)
    }

    /// `bench`'s sample JSON with cell `col` of row `row` set to `v`.
    fn set(bench: &str, row: usize, col: &str, v: Cell) -> String {
        let mut s = sample(bench);
        let cell = s.rows[row].0.iter_mut().find(|(k, _)| k == col);
        cell.unwrap_or_else(|| panic!("{bench} has no {col}")).1 = v;
        s.to_json()
    }

    /// Each case is a schema violation, named with the reason it must be
    /// refused.
    fn assert_rejected(cases: Vec<(&str, String)>) {
        for (why, json) in cases {
            assert!(Snapshot::parse(&json).is_err(), "accepted ({why}):\n{json}");
        }
    }

    /// The generic rules, the throughput columns and the `host` block.
    #[test]
    fn parser_rejects_schema_violations() {
        assert_rejected(vec![
            (
                "unknown mode",
                edit("parallel_scaling", "interpreted", "jit"),
            ),
            (
                "missing field",
                edit("parallel_scaling", "\"workers\": 1, ", ""),
            ),
            (
                "wrong version",
                edit("fleet", "\"schema_version\": 2", "\"schema_version\": 1"),
            ),
            ("not JSON", "pps go brr".to_string()),
            ("trailing data", sample("fleet").to_json() + "}"),
            (
                "unknown bench",
                edit("fleet", "\"bench\": \"fleet\"", "\"bench\": \"fleat\""),
            ),
            (
                "another bench's rows",
                edit("fleet", "\"bench\": \"fleet\"", "\"bench\": \"scenarios\""),
            ),
            ("no rows", {
                let mut s = sample("fleet");
                s.rows.clear();
                s.to_json()
            }),
            (
                "negative rate",
                set("parallel_scaling", 0, "pps", Cell::Num(-5.0)),
            ),
            (
                "zero workers",
                set("fig12_middlebox", 0, "workers", Cell::Num(0.0)),
            ),
            ("missing host", edit("admission", "\"host\"", "\"hast\"")),
            ("partial host", edit("admission", "\"commit\"", "\"comet\"")),
            ("host not flat", {
                let mut s = sample("admission");
                s.host = Row(Vec::new());
                s.to_json()
                    .replace("\"host\": {}", "\"host\": {\"nproc\": [2]}")
            }),
        ]);
    }

    #[test]
    fn admission_parser_rejects_schema_violations() {
        assert_rejected(vec![
            (
                "unknown admission mode",
                edit("admission", "whole-graph", "vibes"),
            ),
            (
                "missing admission field",
                edit("admission", "\"requests\": 100000, ", ""),
            ),
            (
                "inverted latency",
                set("admission", 1, "p50_ns", Cell::Num(1e9)),
            ),
        ]);
    }

    #[test]
    fn fleet_parser_rejects_schema_violations() {
        assert_rejected(vec![
            (
                "missing fleet field",
                edit("fleet", "\"nodes\": 1001, ", ""),
            ),
            (
                "number as label",
                set("fleet", 0, "scenario", Cell::Num(3.0)),
            ),
            (
                "inverted placement",
                set("fleet", 0, "placement_p50_ns", Cell::Num(1e9)),
            ),
            (
                "inverted downtime",
                set("fleet", 0, "downtime_p50_ns", Cell::Num(1e9)),
            ),
            (
                "platforms > nodes",
                set("fleet", 0, "platforms", Cell::Num(2_000.0)),
            ),
            (
                "downtime, no migrations",
                set("fleet", 1, "downtime_p99_ns", Cell::Num(4.0)),
            ),
        ]);
    }

    #[test]
    fn scenario_parser_rejects_schema_violations() {
        assert_rejected(vec![
            (
                "missing scenario field",
                edit("scenarios", "\"tenants\": 40, ", ""),
            ),
            (
                "fractional count",
                set("scenarios", 0, "link_drops", Cell::Num(1.5)),
            ),
            ("empty label", set("scenarios", 0, "scenario", "".into())),
            (
                "inverted rehome",
                set("scenarios", 0, "rehome_p50_ns", Cell::Num(1e9)),
            ),
            (
                "rehomed > tenants",
                set("scenarios", 0, "rehomed", Cell::Num(41.0)),
            ),
            (
                "downtime, no re-homes",
                set("scenarios", 1, "rehome_p99_ns", Cell::Num(4.0)),
            ),
        ]);
    }

    /// A rate divided by zero is refused, naming the bench and the column.
    #[test]
    fn writer_refuses_a_non_finite_cell() {
        let mut s = sample("parallel_scaling");
        s.row([("pps", f64::NAN.into())]);
        let err = std::panic::catch_unwind(|| s.to_json()).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("a formatted panic");
        assert!(
            msg.contains("bench parallel_scaling: column pps is not finite"),
            "{msg}"
        );
    }

    #[test]
    fn json_reader_decodes_escapes() {
        let v = json::parse(r#"{"a": "x\"y\\zé/é", "b": [1, -2.5e3]}"#).unwrap();
        assert_eq!(
            v.field("a").and_then(|a| a.leaf()),
            Some(&"x\"y\\zé/é".into())
        );
        assert!(matches!(v.field("b"), Some(json::Value::Arr(b)) if b.len() == 2));
        assert_eq!(quote("a\"b\\c\n"), r#""a\"b\\c\u000a""#);
        assert!(json::parse(r#"{"a": "\q"}"#).is_err());
        assert!(json::parse(r#"{"a": true}"#).is_err());
    }

    /// The snapshots committed at the repo root, as CI would validate them.
    #[test]
    fn committed_snapshots_validate() {
        let committed = [
            ("admission", include_str!("../../../BENCH_admission.json")),
            (
                "fig12_middlebox",
                include_str!("../../../BENCH_fig12_middlebox.json"),
            ),
            ("fleet", include_str!("../../../BENCH_fleet.json")),
            (
                "parallel_scaling",
                include_str!("../../../BENCH_parallel_scaling.json"),
            ),
            ("scenarios", include_str!("../../../BENCH_scenarios.json")),
        ];
        for (bench, text) in committed {
            let snap = Snapshot::parse(text).unwrap_or_else(|e| panic!("BENCH_{bench}.json: {e}"));
            assert_eq!(snap.bench, bench);
            assert!(!snap.rows.is_empty());
            assert_eq!(snap.host.0.len(), HOST_FIELDS.len());
        }
    }
}
