//! The harness's own arithmetic: percentiles, medians, the FNV-1a input
//! digest, peak-RSS parsing, and the host block. Everything here is
//! independent of the system under test and unit-tested below.

use std::fmt::Write as _;
use std::time::Instant;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile (0 < p < 100) of an ascending-sorted slice, by
/// the nearest-rank rule; 0.0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it in a sample of `n`, or `None` when even the median has not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Per mille, in integers: 10,000 samples have exactly 10 beyond p99.9.
    [999usize, 990, 900, 500]
        .into_iter()
        .find(|pm| n * (1000 - pm) / 1000 >= 10)
        .map(|pm| pm as f64 / 10.0)
}

/// Sorts `samples` and returns `(p50, tail, tail_percentile)`, where the
/// tail is [`highest_supported_percentile`] capped at `cap` (the gated
/// metrics fix their percentile; the cap keeps the name honest).
pub fn summarize(samples: &mut [f64], cap: f64) -> (f64, f64, f64) {
    samples.sort_by(f64::total_cmp);
    let tail_p = highest_supported_percentile(samples.len())
        .unwrap_or(50.0)
        .min(cap);
    (
        percentile(samples, 50.0),
        percentile(samples, tail_p),
        tail_p,
    )
}

/// Incremental FNV-1a (64-bit): the digest printed per workload so two
/// runs can be shown to have measured the same inputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer (little-endian) into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// Parses the `VmHWM` line (peak resident set, kB) out of the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MB (0.0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Nanoseconds since `since` as a float.
pub fn ns_since(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64
}

/// Median wall nanoseconds of `n` calls of `f` (which gets the call's
/// index): how the ladders cost a layer's public function in isolation.
pub fn median_call_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|i| {
            let t = Instant::now();
            f(i);
            ns_since(t)
        })
        .collect();
    median(&samples)
}

/// Available hardware parallelism (1 when it cannot be determined).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `host` block printed with every result: what machine, toolchain
/// and commit produced the numbers. `run.sh` passes the toolchain and
/// commit through the environment (a bare checkout has no `.git`).
pub fn host_block(threads: usize) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"nproc\": {}, \"threads_used\": {}, \"rustc\": {}, \"commit\": {}, \"profile\": \"release\"}}",
        nproc(),
        threads,
        crate::json::quote(&env("INNET_BENCH_RUSTC")),
        crate::json::quote(&env("INNET_BENCH_COMMIT")),
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // Median over repetitions ignores one wild repetition.
        assert_eq!(median(&[10.0, 11.0, 500.0, 9.0, 10.5]), 10.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summarize_caps_the_tail_and_reports_which() {
        let mut v: Vec<f64> = (1..=10_000).rev().map(f64::from).collect();
        let (p50, tail, p) = summarize(&mut v, 90.0);
        assert_eq!((p50, tail, p), (5_000.0, 9_000.0, 90.0));
        let mut few: Vec<f64> = (1..=30).map(f64::from).collect();
        let (p50, tail, p) = summarize(&mut few, 90.0);
        assert_eq!((p50, tail, p), (15.0, 15.0, 50.0));
    }

    #[test]
    fn vm_hwm_parses_the_status_line() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12_345));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        h.write(b"");
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut g = Fnv::default();
        g.write(b"foobar");
        assert_eq!(g.0, 0x8594_4171_f739_67e8);
    }
}
