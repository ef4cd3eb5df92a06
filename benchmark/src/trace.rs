//! Spans recorded by the benchmark's own code around each call into a
//! layer: kept in memory during the traced repetition, written out as
//! JSON lines at exit, and reducible to a per-layer self-time table.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One timed interval. `parent` indexes the span that caused this one
/// (its line number in the span file); spans of one batch, request or
/// run share `op_id`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `click.compile.push`.
    pub name: Cow<'static, str>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Operation (batch / request / run) this span belongs to.
    pub op_id: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    /// Everything recorded so far, in recording order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// The tracer-clock reading of an `Instant` taken by the caller.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        op_id: u64,
    ) -> u32 {
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            start_ns,
            end_ns,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Writes one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for s in &self.spans {
            line.clear();
            Json::Obj(vec![
                ("name".to_string(), Json::Str(s.name.to_string())),
                ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("op_id".to_string(), Json::Num(s.op_id as f64)),
            ])
            .write(&mut line);
            writeln!(w, "{line}")?;
        }
        w.flush()
    }
}

/// Reads a span file back.
pub fn read_jsonl(text: &str) -> Result<Vec<Span>, String> {
    text.lines()
        .enumerate()
        .map(|(n, line)| {
            let v = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            let num = |k: &str| {
                v.get(k)
                    .and_then(Json::as_f64)
                    .ok_or(format!("line {}: missing {k}", n + 1))
            };
            Ok(Span {
                name: Cow::Owned(
                    v.get("name")
                        .and_then(Json::as_str)
                        .ok_or(format!("line {}: missing name", n + 1))?
                        .to_string(),
                ),
                start_ns: num("start_ns")? as u64,
                end_ns: num("end_ns")? as u64,
                parent: match v.get("parent") {
                    Some(Json::Num(p)) => Some(*p as u32),
                    Some(Json::Null) => None,
                    _ => return Err(format!("line {}: missing parent", n + 1)),
                },
                op_id: num("op_id")? as u64,
            })
        })
        .collect()
}

/// Checks the structural contract of a span set: every span ends no
/// earlier than it starts, every parent exists, shares the child's
/// `op_id`, and encloses the child.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = spans
                .get(p as usize)
                .ok_or(format!("span {i} names missing parent {p}"))?;
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) leaves its parent {p} ({})",
                    s.name, parent.name
                ));
            }
            if s.op_id != parent.op_id {
                return Err(format!("span {i} and its parent {p} differ in op_id"));
            }
        }
    }
    Ok(())
}

/// Each span's self time: its duration minus the part of it that its
/// child spans cover (children may overlap each other; the union is
/// subtracted once, clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(slot) = children.get_mut(p as usize) {
                slot.push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// One row of the per-layer table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerRow {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Reduces spans to per-name totals, ordered by name.
pub fn layer_table(spans: &[Span]) -> BTreeMap<String, LayerRow> {
    let mut table: BTreeMap<String, LayerRow> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let row = table.entry(s.name.to_string()).or_default();
        row.count += 1;
        row.total_ns += s.end_ns - s.start_ns;
        row.self_ns += self_ns;
    }
    table
}

/// Total self time of every span called `name`.
pub fn self_ns_of(table: &BTreeMap<String, LayerRow>, name: &str) -> f64 {
    table.get(name).map_or(0.0, |r| r.self_ns as f64)
}

/// Median duration of the spans called `name` (0.0 when there are
/// none). On a shared host a few preempted spans dominate a mean; the
/// per-call rungs are therefore reported as medians.
pub fn median_ns_of(spans: &[Span], name: &str) -> f64 {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    crate::harness::median(&durations)
}

/// Prints the per-layer table (the `--ladder-from` output).
pub fn print_table(table: &BTreeMap<String, LayerRow>) {
    println!(
        "{:<36} {:>10} {:>16} {:>16} {:>14}",
        "span", "count", "total ns", "self ns", "self ns/span"
    );
    for (name, r) in table {
        println!(
            "{:<36} {:>10} {:>16} {:>16} {:>14.1}",
            name,
            r.count,
            r.total_ns,
            r.self_ns,
            r.self_ns as f64 / r.count.max(1) as f64
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: Cow::Borrowed(name),
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)), // 30 covered
            span("b", 30, 60, Some(0)), // overlaps a: 20 more
            span("c", 80, 90, Some(0)), // 10 more
            span("a.inner", 15, 25, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 60);
        assert_eq!(st[1], 30 - 10);
        assert_eq!(st[2], 30);
        assert_eq!(st[3], 10);
        assert_eq!(st[4], 10);
        // Self times of a tree sum to the root's duration when siblings
        // do not overlap; here they overlap by 10, counted in both.
        assert_eq!(st.iter().sum::<u64>(), 100 + 10);
    }

    #[test]
    fn self_time_clips_children_that_stick_out() {
        let spans = vec![span("root", 10, 20, None), span("kid", 5, 30, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
        assert!(validate(&spans).is_err());
    }

    #[test]
    fn validate_accepts_well_formed_and_rejects_broken_trees() {
        let good = vec![span("root", 0, 10, None), span("kid", 2, 8, Some(0))];
        assert!(validate(&good).is_ok());
        let mut other_op = good.clone();
        other_op[1].op_id = 2;
        assert!(validate(&other_op).is_err());
        let dangling = vec![span("kid", 2, 8, Some(7))];
        assert!(validate(&dangling).is_err());
        let backwards = vec![span("x", 9, 3, None)];
        assert!(validate(&backwards).is_err());
    }

    #[test]
    fn span_file_round_trips_and_regenerates_the_table() {
        let mut t = Tracer::default();
        let root = t.push("platform.engine.batch", 0, 1_000, None, 42);
        t.push("packet.pool.copy", 0, 200, Some(root), 42);
        t.push("click.compile.push", 200, 900, Some(root), 42);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        t.write_jsonl(&path).unwrap();
        let back = read_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back, t.spans);
        validate(&back).unwrap();
        let table = layer_table(&back);
        assert_eq!(table["platform.engine.batch"].self_ns, 100);
        assert_eq!(table["click.compile.push"].self_ns, 700);
        assert_eq!(self_ns_of(&table, "packet.pool.copy"), 200.0);
        assert_eq!(self_ns_of(&table, "absent"), 0.0);
        assert_eq!(median_ns_of(&back, "click.compile.push"), 700.0);
        assert_eq!(median_ns_of(&back, "absent"), 0.0);
    }
}
