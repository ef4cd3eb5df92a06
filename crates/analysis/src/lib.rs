//! Static analysis for Click configurations, ahead of the SymNet check.
//!
//! Two passes, both cheap; only the first is on the admission path:
//!
//! 1. **Lint pass** ([`lint`], [`lint_cached`]): structural rules over
//!    the element graph — arity and wiring mistakes, unreachable
//!    elements, dead outputs, queueless cycles — each reported as a
//!    structured [`Diagnostic`] with a stable rule id (`IN-L001`…). It
//!    reads each element off its memoized [`innet_symnet::ElementModel`],
//!    the entry the security check builds its graph from. Lint *errors*
//!    let the controller reject a malformed configuration with a precise
//!    message instead of an opaque symbolic-execution failure.
//!
//! 2. **Field-effect abstract interpretation** ([`flow_effects`],
//!    [`abstract_verdict`]): composes the per-element summaries
//!    registered in [`innet_click::Registry`] along every graph path with
//!    a worklist algorithm, tracking for each header field whether it
//!    still carries its ingress value, a known constant, or a
//!    runtime-chosen value. **Advisory only**: the table it prints tells
//!    an author what a configuration does to each header field, and
//!    `abstract_verdict` says what those effects imply for the security
//!    rules (or `None` when anything is uncertain), but the controller
//!    trusts neither — every admission verdict comes from SymNet.
//!
//! The summaries mirror the symbolic models by hand, so the advisory
//! verdict is kept honest by a differential property test over generated
//! configurations: wherever it is conclusive it must agree with SymNet.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod absint;
mod lint;

pub use absint::{abstract_verdict, flow_effects, AnalysisReport, FlowEffect};
pub use lint::{bind_self, lint, lint_cached, Diagnostic, LintReport, Severity, SELF_SENTINEL};
