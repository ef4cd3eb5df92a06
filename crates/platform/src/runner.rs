//! The unified runner configuration builder.
//!
//! One builder describes *how* to run — workers, batch, metrics, engine —
//! and finishes as the one runner, [`ParallelRunner`]. Every worker count
//! runs the same loop: with one effective worker (one requested, or a
//! globally stateful configuration degraded to one) over the whole input
//! in the calling thread; from two up over each replica's flow-hash share
//! of the input, one thread per replica.
//!
//! ```
//! use innet_platform::{plain_firewall, RunnerConfig};
//!
//! let cfg = plain_firewall();
//! let registry = innet_obs::Registry::new();
//! let mut runner = RunnerConfig::new()
//!     .workers(4)
//!     .batch(32)
//!     .metrics(&registry)
//!     .parallel(&cfg)
//!     .unwrap();
//! assert_eq!(runner.effective_workers(), 4);
//! # let _ = &mut runner;
//! ```

use innet_click::{ClickConfig, RouterError};

use crate::parallel::ParallelRunner;

/// Default batch size: large enough to amortize the per-push netfront
/// and metrics costs, small enough not to distort latency in the
/// simulated workloads.
pub const DEFAULT_BATCH: usize = 32;

/// Builder describing how a runner should execute a configuration:
/// worker count, batch size, metrics registry, and engine.
/// Finish with [`RunnerConfig::parallel`].
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    pub(crate) workers: usize,
    pub(crate) batch: usize,
    pub(crate) metrics: Option<innet_obs::Registry>,
    pub(crate) compiled: bool,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig::new()
    }
}

impl RunnerConfig {
    /// The default execution profile: one worker, batch of
    /// [`DEFAULT_BATCH`], no metrics, interpreted engine.
    pub fn new() -> RunnerConfig {
        RunnerConfig {
            workers: 1,
            batch: DEFAULT_BATCH,
            metrics: None,
            compiled: false,
        }
    }

    /// Selects the compiled execution engine: the verified configuration
    /// is lowered once into a flat plan (specialized classifiers, fused
    /// header stages, flat edges — see `innet_click::compile`) instead of
    /// being interpreted element by element. Semantics are identical —
    /// the plan is differentially tested against the interpreter, which
    /// stays the default here because Figures 8, 9 and 11 measure it.
    /// ClickOS VMs always run the plan.
    pub fn compiled(mut self, compiled: bool) -> RunnerConfig {
        self.compiled = compiled;
        self
    }

    /// Requests `n` flow-sharded workers (clamped to at least 1). The
    /// runner still degrades to 1 if the configuration keeps global
    /// (cross-flow) state; per-connection state shards fine under the
    /// symmetric partition hash.
    pub fn workers(mut self, n: usize) -> RunnerConfig {
        self.workers = n.max(1);
        self
    }

    /// Sets the batch size (clamped to at least 1): how many packets each
    /// replica pushes through its engine's netfront ring at once.
    pub fn batch(mut self, n: usize) -> RunnerConfig {
        self.batch = n.max(1);
        self
    }

    /// Publishes the runner's instruments into `registry`
    /// (`innet_parallel_*`, plus the inner routers' `innet_click_*`).
    pub fn metrics(mut self, registry: &innet_obs::Registry) -> RunnerConfig {
        self.metrics = Some(registry.clone());
        self
    }

    /// Builds the [`ParallelRunner`] for `cfg` with this profile.
    pub fn parallel(self, cfg: &ClickConfig) -> Result<ParallelRunner, RouterError> {
        ParallelRunner::with_config(cfg, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_clamps_degenerate_values() {
        let c = RunnerConfig::new().workers(0).batch(0);
        assert_eq!(c.workers, 1);
        assert_eq!(c.batch, 1);
    }

    #[test]
    fn defaults_are_single_threaded_and_interpreted() {
        let c = RunnerConfig::new();
        assert_eq!(c.workers, 1);
        assert_eq!(c.batch, DEFAULT_BATCH);
        assert!(!c.compiled);
        assert!(c.metrics.is_none());
    }
}
