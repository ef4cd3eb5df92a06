//! The controller's ledger: cumulative statistics, their `innet_ctl_*`
//! metric mirror, and the one function that writes either.
//!
//! Every code path that does work on a request's behalf describes it as a
//! [`ControllerStats`] *delta*; [`Ledger::record`] adds the delta to the
//! cumulative statistics and to the attached metrics in one step, so the
//! two views cannot drift and a statistic is spelled out once per sink.

use innet_symnet::CheckStats;

use crate::{
    controller::{DeployError, DeployResponse},
    placement::RejectReason,
};

/// Cumulative controller statistics (request latency split into the
/// model-compile and checking phases, as Figure 10 reports).
#[derive(Debug, Clone, Copy, Default)]
pub struct ControllerStats {
    /// Requests received.
    pub requests: u64,
    /// Requests accepted.
    pub accepted: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Nanoseconds spent building network models.
    pub compile_ns: u64,
    /// Nanoseconds spent in symbolic checking.
    pub check_ns: u64,
    /// Deploy requests answered from the verdict cache.
    pub cache_hits: u64,
    /// Deploy requests that ran full verification (and populated the
    /// cache).
    pub cache_misses: u64,
    /// Cached verdicts discarded by epoch bumps (operator policy,
    /// hardening, or topology changes).
    pub cache_invalidations: u64,
    /// Checking nanoseconds avoided by cache hits: each hit credits the
    /// `check_ns` the original full evaluation of that request spent.
    pub check_ns_saved: u64,
    /// Always zero: admission has no abstract fast-path stage. Kept, with
    /// [`ControllerStats::fastpath_fallbacks`] and
    /// [`ControllerStats::stage_fastpath_ns`], only because the frozen
    /// `benchmark/` reads them; they go when its three rungs retire.
    pub fastpath_hits: u64,
    /// Always zero; see [`ControllerStats::fastpath_hits`].
    pub fastpath_fallbacks: u64,
    /// Requests refused by the lint pass before any verification.
    pub lint_rejects: u64,
    /// Lint reports replayed from the fleet-wide memo instead of
    /// re-running the lint pass (lint is a pure function of the
    /// materialized configuration and the element registry).
    pub lint_cache_hits: u64,
    /// Nanoseconds spent in static analysis (the lint pass).
    pub analysis_ns: u64,
    /// Symbolic runs stopped by the global hop (state) bound.
    pub hop_cap_bailouts: u64,
    /// Symbolic branches cut by the per-node visit (depth) bound.
    pub visit_cap_bailouts: u64,
    /// Chain summaries served from the fleet-wide summary cache.
    pub summary_cache_hits: u64,
    /// Chain summaries computed fresh (and stored for the fleet).
    pub summary_cache_misses: u64,
    /// Chain elements covered by summary replay instead of per-element
    /// symbolic execution.
    pub summary_chain_nodes: u64,
    /// Cached chain summaries discarded by epoch bumps.
    pub summary_invalidations: u64,
    /// Nanoseconds spent in the admission pipeline's lint stage.
    pub stage_lint_ns: u64,
    /// Always zero; see [`ControllerStats::fastpath_hits`].
    pub stage_fastpath_ns: u64,
    /// Nanoseconds spent in the compositional symbolic stage (security
    /// check, summary replay included).
    pub stage_symbolic_ns: u64,
    /// Nanoseconds spent in the placement stage (capacity + address
    /// assignment, building each candidate module, model compilation,
    /// policy and requirement checks).
    pub stage_placement_ns: u64,
    /// Per-platform placement rejections accumulated across
    /// `NoFeasiblePlacement` outcomes (one per `(platform, reason)`
    /// pair). The per-reason split is exported as
    /// `innet_ctl_placement_reject_total{reason=…}`.
    pub placement_rejects: u64,
}

impl std::ops::AddAssign<&ControllerStats> for ControllerStats {
    /// Field-wise sum. The struct literal names every field (no `..`), so
    /// adding a field to [`ControllerStats`] without deciding how it
    /// folds is a compile error here, not a silently lost statistic.
    fn add_assign(&mut self, d: &ControllerStats) {
        *self = ControllerStats {
            requests: self.requests + d.requests,
            accepted: self.accepted + d.accepted,
            rejected: self.rejected + d.rejected,
            compile_ns: self.compile_ns + d.compile_ns,
            check_ns: self.check_ns + d.check_ns,
            cache_hits: self.cache_hits + d.cache_hits,
            cache_misses: self.cache_misses + d.cache_misses,
            cache_invalidations: self.cache_invalidations + d.cache_invalidations,
            check_ns_saved: self.check_ns_saved + d.check_ns_saved,
            fastpath_hits: self.fastpath_hits + d.fastpath_hits,
            fastpath_fallbacks: self.fastpath_fallbacks + d.fastpath_fallbacks,
            lint_rejects: self.lint_rejects + d.lint_rejects,
            lint_cache_hits: self.lint_cache_hits + d.lint_cache_hits,
            analysis_ns: self.analysis_ns + d.analysis_ns,
            hop_cap_bailouts: self.hop_cap_bailouts + d.hop_cap_bailouts,
            visit_cap_bailouts: self.visit_cap_bailouts + d.visit_cap_bailouts,
            summary_cache_hits: self.summary_cache_hits + d.summary_cache_hits,
            summary_cache_misses: self.summary_cache_misses + d.summary_cache_misses,
            summary_chain_nodes: self.summary_chain_nodes + d.summary_chain_nodes,
            summary_invalidations: self.summary_invalidations + d.summary_invalidations,
            stage_lint_ns: self.stage_lint_ns + d.stage_lint_ns,
            stage_fastpath_ns: self.stage_fastpath_ns + d.stage_fastpath_ns,
            stage_symbolic_ns: self.stage_symbolic_ns + d.stage_symbolic_ns,
            stage_placement_ns: self.stage_placement_ns + d.stage_placement_ns,
            placement_rejects: self.placement_rejects + d.placement_rejects,
        };
    }
}

/// Reads one statistic out of a [`ControllerStats`].
type Field = fn(&ControllerStats) -> u64;

/// Every statistic exported as a plain counter: metric name → field.
#[rustfmt::skip] // one row per metric
const COUNTERS: &[(&str, Field)] = &[
    ("innet_ctl_requests_total", |s| s.requests),
    ("innet_ctl_accepted_total", |s| s.accepted),
    ("innet_ctl_rejected_total", |s| s.rejected),
    ("innet_ctl_cache_hits_total", |s| s.cache_hits),
    ("innet_ctl_cache_misses_total", |s| s.cache_misses),
    ("innet_ctl_cache_invalidations_total", |s| s.cache_invalidations),
    ("innet_ctl_check_ns_saved_total", |s| s.check_ns_saved),
    ("innet_ctl_compile_ns_total", |s| s.compile_ns),
    ("innet_ctl_check_ns_total", |s| s.check_ns),
    ("innet_ctl_lint_rejects_total", |s| s.lint_rejects),
    ("innet_ctl_lint_cache_hits_total", |s| s.lint_cache_hits),
    ("innet_ctl_analysis_ns_total", |s| s.analysis_ns),
    ("innet_ctl_summary_cache_hits_total", |s| s.summary_cache_hits),
    ("innet_ctl_summary_cache_misses_total", |s| s.summary_cache_misses),
    ("innet_ctl_summary_chain_nodes_total", |s| s.summary_chain_nodes),
    ("innet_ctl_summary_invalidations_total", |s| s.summary_invalidations),
];

/// Per-request distributions, observed once for every request that ran
/// the full (uncached) pipeline: metric name → field of that request's
/// delta.
const HISTOGRAMS: &[(&str, Field)] = &[
    ("innet_ctl_compile_ns", |s| s.compile_ns),
    ("innet_ctl_check_ns", |s| s.check_ns),
    ("innet_ctl_analysis_ns", |s| s.analysis_ns),
    ("innet_ctl_stage_lint_ns", |s| s.stage_lint_ns),
    ("innet_ctl_stage_symbolic_ns", |s| s.stage_symbolic_ns),
    ("innet_ctl_stage_placement_ns", |s| s.stage_placement_ns),
];

impl ControllerStats {
    /// Total symbolic bailouts: runs stopped by the state (hop) cap plus
    /// branches cut by the depth (per-node visit) cap. The split is
    /// exported as `innet_ctl_symbolic_bailouts_total{reason=…}`.
    pub fn symbolic_bailouts(&self) -> u64 {
        self.hop_cap_bailouts + self.visit_cap_bailouts
    }

    /// `(metric name, value)` for every statistic that
    /// [`crate::Controller::attach_metrics`] exports as a plain
    /// `innet_ctl_*_total` counter.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        COUNTERS
            .iter()
            .map(move |(name, field)| (*name, field(self)))
    }

    /// Adds one symbolic check's counters.
    pub(crate) fn absorb(&mut self, check: CheckStats) {
        self.hop_cap_bailouts += check.hop_cap_bailouts;
        self.visit_cap_bailouts += check.visit_cap_bailouts;
        self.summary_cache_hits += check.summary_cache_hits;
        self.summary_cache_misses += check.summary_cache_misses;
        self.summary_chain_nodes += check.summary_chain_nodes;
    }
}

/// Shared-registry instruments for one controller.
#[derive(Debug, Clone)]
struct ControllerMetrics {
    /// Parallel to [`COUNTERS`].
    counters: Vec<innet_obs::Counter>,
    /// Parallel to [`HISTOGRAMS`].
    histograms: Vec<innet_obs::Histogram>,
    verdicts: innet_obs::LabeledCounter,
    hop_cap_bailouts: innet_obs::Counter,
    visit_cap_bailouts: innet_obs::Counter,
    placement_rejects: innet_obs::LabeledCounter,
}

/// Cumulative statistics plus their metric mirror. The fields are private
/// to this module: [`Ledger::record`] is the only way to change either.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    stats: ControllerStats,
    metrics: Option<ControllerMetrics>,
}

impl Ledger {
    /// Registers the `innet_ctl_*` instruments in `registry`; only
    /// activity recorded afterwards is counted there.
    pub fn attach_metrics(&mut self, registry: &innet_obs::Registry) {
        let bailouts = registry.labeled_counter("innet_ctl_symbolic_bailouts_total", "reason");
        self.metrics = Some(ControllerMetrics {
            counters: COUNTERS
                .iter()
                .map(|(name, _)| registry.counter(name))
                .collect(),
            histograms: HISTOGRAMS
                .iter()
                .map(|(name, _)| registry.histogram(name))
                .collect(),
            verdicts: registry.labeled_counter("innet_ctl_verdicts_total", "verdict"),
            hop_cap_bailouts: bailouts.with("hop_cap"),
            visit_cap_bailouts: bailouts.with("visit_cap"),
            placement_rejects: registry
                .labeled_counter("innet_ctl_placement_reject_total", "reason"),
        });
    }

    /// The cumulative statistics.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Adds `delta` to the cumulative statistics and the attached
    /// metrics. `outcome` is the answer the delta's single request got,
    /// when it describes one: it feeds the labeled series a sum cannot
    /// carry (per-reason placement rejects and, for a request that ran
    /// the full pipeline, the verdict label and the per-request
    /// histograms). An invalidation, or an unknown client's request,
    /// passes `None`.
    pub fn record(
        &mut self,
        delta: &ControllerStats,
        outcome: Option<&Result<DeployResponse, DeployError>>,
    ) {
        self.stats += delta;
        let Some(m) = &self.metrics else {
            return;
        };
        for (counter, (_, field)) in m.counters.iter().zip(COUNTERS) {
            counter.add(field(delta));
        }
        m.hop_cap_bailouts.add(delta.hop_cap_bailouts);
        m.visit_cap_bailouts.add(delta.visit_cap_bailouts);
        let Some(outcome) = outcome else {
            return;
        };
        if let Err(DeployError::NoFeasiblePlacement { reasons }) = outcome {
            for (_, why) in reasons {
                m.placement_rejects
                    .with(RejectReason::classify(why).as_str())
                    .inc();
            }
        }
        if delta.cache_misses > 0 {
            let verdict = match outcome {
                Ok(resp) if resp.sandboxed => "sandbox",
                Ok(_) => "accept",
                Err(_) => "reject",
            };
            m.verdicts.with(verdict).inc();
            for (histogram, (_, field)) in m.histograms.iter().zip(HISTOGRAMS) {
                histogram.observe(field(delta));
            }
        }
    }
}
