//! The In-Net security rules (paper §2.1, §4.4), checked over symbolic
//! egress flows.
//!
//! The controller injects an *unconstrained* symbolic packet into every
//! ingress of a processing module and inspects every flow that can leave.
//! Three predicates are evaluated per egress flow, each to a tri-state
//! result:
//!
//! * **anti-spoofing** — the source address is the module's assigned
//!   address, or provably unmodified since ingress;
//! * **ownership** — the module emits only (1) traffic it originates as
//!   itself, (2) responses to the traffic's own sender (implicit
//!   authorization), or (3) deliveries to the tenant's registered
//!   addresses; anything else is transit of other parties' traffic, which
//!   tenants may not perform;
//! * **default-off** (third parties only) — the destination is
//!   white-listed or implicitly authorized.
//!
//! A predicate that depends on values only known at runtime — fields
//! revealed by decapsulation or produced by opaque code — evaluates to
//! *unknown*; per the paper, such modules "can generate both allowed and
//! disallowed traffic, and compliance cannot be checked at install time",
//! so they run behind the `ChangeEnforcer` sandbox instead of being
//! rejected.
//!
//! For the operator's *clients* (its own subscribers), default-off is
//! waived — clients may originate traffic to any destination, like their
//! own hosts — and unknown values of [`Origin::Decap`] are acceptable: the
//! inner traffic of a client's tunnel is attributable to the client and
//! covered by ordinary ingress filtering. Opaque unknowns still require
//! the sandbox. The operator's own modules are trusted; static analysis is
//! advisory (correctness, not security).
//!
//! These rules reproduce the paper's Table 1 verdict matrix exactly; the
//! integration suite asserts all 36 cells.

use std::net::Ipv4Addr;
use std::sync::Arc;

use innet_click::{ClickConfig, Registry};
use serde::{Deserialize, Serialize};

use crate::{
    field::Field,
    model::{ExecOptions, Observe, SymError},
    models::{build_sym_graph_cached, ModelCache},
    packet::SymPacket,
    summary::{entry_chain, summarize_chain, BranchOutcome, SymSummary},
    value::Origin,
};

/// Who is asking for the processing to be installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RequesterClass {
    /// An untrusted third party (e.g. a content provider).
    ThirdParty,
    /// A subscriber of the operator (residential/mobile customer).
    Client,
    /// The operator itself.
    Operator,
}

/// The controller's decision for a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Verdict {
    /// Statically proven safe: run without runtime enforcement.
    Safe,
    /// Compliance depends on runtime values: run behind a
    /// `ChangeEnforcer` sandbox (the paper's "(s)" entries).
    SafeWithSandbox,
    /// Provably violates the rules: refuse to run.
    Reject,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Safe => write!(f, "safe"),
            Verdict::SafeWithSandbox => write!(f, "safe (sandboxed)"),
            Verdict::Reject => write!(f, "reject"),
        }
    }
}

/// Tri-state outcome of one predicate on one flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tri {
    /// Provably satisfied.
    Holds,
    /// Depends on values only known at runtime.
    Unknown(Origin),
    /// Provably violated.
    Violated(String),
}

/// Module-deployment context the controller supplies for checking.
#[derive(Debug, Clone)]
pub struct SecurityContext {
    /// Address the controller (would) assign to the module.
    pub assigned_addr: Ipv4Addr,
    /// The tenant's registered addresses (explicit authorization list).
    pub registered: Vec<Ipv4Addr>,
    /// Who is requesting.
    pub class: RequesterClass,
}

/// Result of checking one module configuration.
#[derive(Debug, Clone)]
pub struct SecurityReport {
    /// The combined verdict over all egress flows.
    pub verdict: Verdict,
    /// Number of egress flow classes inspected.
    pub flows_checked: usize,
    /// Human-readable violations found (empty unless `Reject`).
    pub violations: Vec<String>,
    /// Human-readable unknowns found (empty unless sandboxing).
    pub unknowns: Vec<String>,
    /// The symbolic egress flow classes themselves, for follow-on policy
    /// passes (e.g. the §7 UDP-reflection ban).
    pub egress_flows: Vec<SymPacket>,
}

/// Execution-cost and memoization counters from one module check.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CheckStats {
    /// Symbolic runs stopped by the global hop bound.
    pub hop_cap_bailouts: u64,
    /// Symbolic branches cut by the per-node visit bound.
    pub visit_cap_bailouts: u64,
    /// Chain elements covered by summary replay instead of per-element
    /// execution.
    pub summary_chain_nodes: u64,
    /// Chain summaries served from the [`ModelCache`].
    pub summary_cache_hits: u64,
    /// Summaries that had to be computed (and were stored back).
    pub summary_cache_misses: u64,
}

impl CheckStats {
    /// Merges another check's counters into this one.
    pub fn absorb(&mut self, other: CheckStats) {
        self.hop_cap_bailouts += other.hop_cap_bailouts;
        self.visit_cap_bailouts += other.visit_cap_bailouts;
        self.summary_chain_nodes += other.summary_chain_nodes;
        self.summary_cache_hits += other.summary_cache_hits;
        self.summary_cache_misses += other.summary_cache_misses;
    }
}

fn u(a: Ipv4Addr) -> u64 {
    u32::from(a) as u64
}

/// Anti-spoofing on one egress flow.
fn anti_spoof(flow: &SymPacket, ctx: &SecurityContext) -> Tri {
    if !flow.ever_written(Field::IpSrc) {
        // "…or the same address as when it entered the platform."
        return Tri::Holds;
    }
    let src = flow.get(Field::IpSrc);
    if flow.provably_eq(Field::IpSrc, u(ctx.assigned_addr)) {
        return Tri::Holds;
    }
    // A source rewritten to the ingress *destination* is the module's own
    // address in deployment (only module-addressed traffic reaches it).
    if flow.provably_same(src, flow.ingress.get(Field::IpDst)) {
        return Tri::Holds;
    }
    match flow.origin_of(src) {
        Some(o @ (Origin::Decap | Origin::Opaque | Origin::Computed)) => Tri::Unknown(o),
        _ => Tri::Violated(format!(
            "egress source {} is neither the assigned address {} nor invariant",
            flow.render_fields(),
            ctx.assigned_addr
        )),
    }
}

/// The ownership/no-transit rule on one egress flow.
fn ownership(flow: &SymPacket, ctx: &SecurityContext) -> Tri {
    let src = flow.get(Field::IpSrc);
    let dst = flow.get(Field::IpDst);
    // (1) Module originates traffic as itself.
    if flow.ever_written(Field::IpSrc)
        && (flow.provably_eq(Field::IpSrc, u(ctx.assigned_addr))
            || flow.provably_same(src, flow.ingress.get(Field::IpDst)))
    {
        return Tri::Holds;
    }
    // (2) Response: destination bound to the ingress source.
    if flow.ever_written(Field::IpDst) && flow.provably_same(dst, flow.ingress.get(Field::IpSrc)) {
        return Tri::Holds;
    }
    // (3) Delivery to a registered tenant address.
    if flow.ever_written(Field::IpDst) {
        if let Some(c) = flow.possible(Field::IpDst).as_single() {
            if ctx.registered.iter().any(|&a| u(a) == c) {
                return Tri::Holds;
            }
        }
    }
    // Unknown-valued rewrites defer the decision to runtime.
    for f in [Field::IpSrc, Field::IpDst] {
        if flow.ever_written(f) {
            if let Some(o @ (Origin::Decap | Origin::Opaque)) = flow.origin_of(flow.get(f)) {
                return Tri::Unknown(o);
            }
        }
    }
    Tri::Violated(
        "egress flow transits foreign traffic: not self-originated, not a response, \
         not a delivery to a registered address"
            .to_string(),
    )
}

/// Default-off destination authorization (third parties).
fn default_off(flow: &SymPacket, ctx: &SecurityContext) -> Tri {
    let dst = flow.get(Field::IpDst);
    if flow.provably_same(dst, flow.ingress.get(Field::IpSrc)) {
        return Tri::Holds; // Implicit authorization.
    }
    if let Some(c) = flow.possible(Field::IpDst).as_single() {
        if ctx.registered.iter().any(|&a| u(a) == c) {
            return Tri::Holds; // Explicit authorization.
        }
        return Tri::Violated(format!(
            "destination {} is not authorized",
            Ipv4Addr::from(c as u32)
        ));
    }
    match flow.origin_of(dst) {
        Some(o @ (Origin::Decap | Origin::Opaque | Origin::Computed)) => Tri::Unknown(o),
        _ => Tri::Violated("destination is unconstrained foreign traffic".to_string()),
    }
}

/// Checks a processing-module configuration against the security rules.
///
/// Builds the abstract model graph, injects an unconstrained symbolic
/// packet at every `FromNetfront` ingress, and combines per-flow
/// predicate results into a [`Verdict`].
pub fn check_module(
    cfg: &ClickConfig,
    ctx: &SecurityContext,
    registry: &Registry,
) -> Result<SecurityReport, SymError> {
    Ok(check_inner(cfg, ctx, registry, None, false)?.0)
}

/// [`check_module`] plus its [`CheckStats`] (bailout counters), still on
/// the whole-graph path — the controller's differential-oracle mode.
pub fn check_module_with_stats(
    cfg: &ClickConfig,
    ctx: &SecurityContext,
    registry: &Registry,
) -> Result<(SecurityReport, CheckStats), SymError> {
    check_inner(cfg, ctx, registry, None, false)
}

/// Compositional variant of [`check_module`]: walks a memoized (or
/// freshly composed) [`SymSummary`] over the maximal chain-safe entry
/// chain and falls back to per-element execution at the chain boundary —
/// stateful elements, multi-port fan-out/fan-in, or unsummarizable
/// models. Verdicts are identical to [`check_module`] (the differential
/// suite holds the two together); only the work done differs. `memos`
/// supplies cross-request memoization; `None` still composes summaries
/// but rebuilds every model, graph and summary per call.
pub fn check_module_summarized(
    cfg: &ClickConfig,
    ctx: &SecurityContext,
    registry: &Registry,
    memos: Option<&ModelCache>,
) -> Result<(SecurityReport, CheckStats), SymError> {
    check_inner(cfg, ctx, registry, memos, true)
}

fn check_inner(
    cfg: &ClickConfig,
    ctx: &SecurityContext,
    registry: &Registry,
    memos: Option<&ModelCache>,
    use_summaries: bool,
) -> Result<(SecurityReport, CheckStats), SymError> {
    let mut stats = CheckStats::default();
    if ctx.class == RequesterClass::Operator {
        // Trusted: static analysis is advisory only.
        return Ok((
            SecurityReport {
                verdict: Verdict::Safe,
                flows_checked: 0,
                violations: Vec::new(),
                unknowns: Vec::new(),
                egress_flows: Vec::new(),
            },
            stats,
        ));
    }

    // With the memos available (compositional mode), the whole wired
    // graph is shared across requests; the whole-graph oracle rebuilds
    // from scratch, so differential comparisons measure the memoized
    // pipeline against an unaided baseline.
    let graph = match memos {
        Some(cache) => cache.graph(cfg, registry)?,
        None => Arc::new(build_sym_graph_cached(cfg, registry, None)?),
    };
    let mut report = SecurityReport {
        verdict: Verdict::Safe,
        flows_checked: 0,
        violations: Vec::new(),
        unknowns: Vec::new(),
        egress_flows: Vec::new(),
    };
    let opts = ExecOptions {
        max_hops: 50_000,
        max_node_visits: 6,
        observe: Observe::EgressOnly,
    };

    let entries: Vec<String> = cfg
        .elements
        .iter()
        .filter(|e| e.class == "FromNetfront" || e.class == "FromDevice")
        .map(|e| e.name.clone())
        .collect();
    // A module with no netfront ingress (e.g. a pure stock model) is
    // checked by injecting at its first node.
    let entries = if entries.is_empty() {
        cfg.elements
            .first()
            .map(|e| vec![e.name.clone()])
            .unwrap_or_default()
    } else {
        entries
    };

    for entry in entries {
        let entry_idx = graph.node_index(&entry)?;
        let mut flows: Vec<(u16, SymPacket)> = Vec::new();
        let mut summarized = false;
        if use_summaries {
            let chain = entry_chain(&graph, entry_idx);
            if chain.nodes.len() >= 2 {
                let summary: Option<Arc<SymSummary>> = match memos {
                    Some(cache) => {
                        cache
                            .chain_summary(cfg, &chain.nodes, registry)?
                            .map(|(s, hit)| {
                                if hit {
                                    stats.summary_cache_hits += 1;
                                } else {
                                    stats.summary_cache_misses += 1;
                                }
                                s
                            })
                    }
                    None => summarize_chain(&graph, &chain.nodes).map(Arc::new),
                };
                if let Some(s) = summary {
                    summarized = true;
                    stats.summary_chain_nodes += chain.nodes.len() as u64;
                    for (outcome, pkt) in s.apply(&SymPacket::unconstrained(), &chain.nodes) {
                        match outcome {
                            BranchOutcome::Egress(iface) => flows.push((iface, pkt)),
                            BranchOutcome::Continue => {
                                // Resume per-element execution at the
                                // chain boundary; a chain with no
                                // continuation edge drops continues, as
                                // the runtime would.
                                if let Some((n, p)) = chain.cont {
                                    let res = graph.run(n, p, pkt, &opts);
                                    stats.hop_cap_bailouts += res.hop_cap_hits;
                                    stats.visit_cap_bailouts += res.visit_cap_hits;
                                    flows.extend(res.egress);
                                }
                            }
                        }
                    }
                }
            }
        }
        if !summarized {
            let res = graph.run(entry_idx, 0, SymPacket::unconstrained(), &opts);
            stats.hop_cap_bailouts += res.hop_cap_hits;
            stats.visit_cap_bailouts += res.visit_cap_hits;
            flows.extend(res.egress);
        }
        for (_iface, flow) in &flows {
            report.flows_checked += 1;
            let mut tris = vec![anti_spoof(flow, ctx), ownership(flow, ctx)];
            if ctx.class == RequesterClass::ThirdParty {
                tris.push(default_off(flow, ctx));
            }
            for t in tris {
                match t {
                    Tri::Holds => {}
                    Tri::Unknown(origin) => {
                        let acceptable =
                            ctx.class == RequesterClass::Client && origin == Origin::Decap;
                        if !acceptable {
                            report.unknowns.push(format!(
                                "runtime-dependent ({origin:?}) flow: {}",
                                flow.render_fields()
                            ));
                        }
                    }
                    Tri::Violated(why) => report.violations.push(why),
                }
            }
        }
        report.egress_flows.extend(flows.drain(..).map(|(_, f)| f));
    }

    // A truncated exploration is not a proof: flows the run never reached
    // are processing the checker could not decide, so the module is at
    // best sandboxed (§2.1), exactly as an opaque x86 image is.
    if stats.hop_cap_bailouts > 0 {
        let why = "exploration truncated at the hop cap: not every flow was examined";
        report.unknowns.push(why.to_string());
    }

    report.verdict = if !report.violations.is_empty() {
        Verdict::Reject
    } else if !report.unknowns.is_empty() {
        Verdict::SafeWithSandbox
    } else {
        Verdict::Safe
    };
    Ok((report, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    const ASSIGNED: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 10);
    const OWNER: Ipv4Addr = Ipv4Addr::new(172, 16, 15, 133);

    fn ctx(class: RequesterClass) -> SecurityContext {
        SecurityContext {
            assigned_addr: ASSIGNED,
            registered: vec![OWNER],
            class,
        }
    }

    fn verdict(cfg: &str, class: RequesterClass) -> Verdict {
        verdict_of(&ClickConfig::parse(cfg).unwrap(), class)
    }

    fn verdict_of(cfg: &ClickConfig, class: RequesterClass) -> Verdict {
        check_module(cfg, &ctx(class), &Registry::standard())
            .unwrap()
            .verdict
    }

    /// The paper's Figure 4 batcher: safe for everyone — it only delivers
    /// the tenant's own traffic to the tenant's registered address.
    #[test]
    fn batcher_is_safe() {
        let cfg = r#"
            FromNetfront()
              -> IPFilter(allow udp dst port 1500)
              -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
              -> TimedUnqueue(120, 100)
              -> ToNetfront();
        "#;
        assert_eq!(verdict(cfg, RequesterClass::ThirdParty), Verdict::Safe);
        assert_eq!(verdict(cfg, RequesterClass::Client), Verdict::Safe);
        assert_eq!(verdict(cfg, RequesterClass::Operator), Verdict::Safe);
    }

    /// A plain forwarder transits foreign traffic: rejected for tenants.
    #[test]
    fn transit_forwarder_rejected() {
        let cfg = "FromNetfront() -> Counter() -> ToNetfront();";
        assert_eq!(verdict(cfg, RequesterClass::ThirdParty), Verdict::Reject);
        assert_eq!(verdict(cfg, RequesterClass::Client), Verdict::Reject);
        assert_eq!(verdict(cfg, RequesterClass::Operator), Verdict::Safe);
    }

    /// A module spoofing a fixed foreign source: rejected.
    #[test]
    fn spoofing_rejected() {
        let cfg = "FromNetfront() -> SetIPSrc(8.8.8.8) -> ToNetfront();";
        assert_eq!(verdict(cfg, RequesterClass::ThirdParty), Verdict::Reject);
        assert_eq!(verdict(cfg, RequesterClass::Client), Verdict::Reject);
    }

    /// A responder (destination bound to ingress source) is implicitly
    /// authorized.
    #[test]
    fn responder_is_safe() {
        let cfg = "FromNetfront() -> ICMPPingResponder() -> ToNetfront();";
        assert_eq!(verdict(cfg, RequesterClass::ThirdParty), Verdict::Safe);
        assert_eq!(verdict(cfg, RequesterClass::Client), Verdict::Safe);
    }

    /// Self-originated traffic to an unregistered constant destination:
    /// fine for a client, default-off violation for a third party.
    #[test]
    fn third_party_default_off() {
        let cfg = "FromNetfront() -> SetIPSrc(192.0.2.10) -> SetIPDst(9.9.9.9) -> ToNetfront();";
        assert_eq!(verdict(cfg, RequesterClass::ThirdParty), Verdict::Reject);
        assert_eq!(verdict(cfg, RequesterClass::Client), Verdict::Safe);
    }

    /// Tunnel decapsulation: unknown-at-runtime destinations sandbox the
    /// third party but are acceptable for a client.
    #[test]
    fn tunnel_decap_classes_differ() {
        let cfg = "FromNetfront() -> UDPTunnelDecap() -> ToNetfront();";
        assert_eq!(
            verdict(cfg, RequesterClass::ThirdParty),
            Verdict::SafeWithSandbox
        );
        assert_eq!(verdict(cfg, RequesterClass::Client), Verdict::Safe);
    }

    /// Opaque x86 processing always needs the sandbox for tenants.
    #[test]
    fn opaque_vm_sandboxed() {
        let cfg = "FromNetfront() -> StockX86VM() -> ToNetfront();";
        assert_eq!(
            verdict(cfg, RequesterClass::ThirdParty),
            Verdict::SafeWithSandbox
        );
        assert_eq!(
            verdict(cfg, RequesterClass::Client),
            Verdict::SafeWithSandbox
        );
        assert_eq!(verdict(cfg, RequesterClass::Operator), Verdict::Safe);
    }

    /// A module that drops everything is vacuously safe.
    #[test]
    fn black_hole_is_safe() {
        let cfg = "FromNetfront() -> Discard();";
        assert_eq!(verdict(cfg, RequesterClass::ThirdParty), Verdict::Safe);
    }

    /// `depth` two-way `Tee`s whose outputs both feed the next one, then
    /// a spoofed source: `2^depth` identical violating flows.
    fn tee_lattice(depth: usize) -> ClickConfig {
        let mut cfg = ClickConfig::new();
        cfg.add_element("in", "FromNetfront", &[]);
        let mut prev = "in".to_string();
        for i in 0..depth {
            let tee = format!("t{i}");
            cfg.add_element(&tee, "Tee", &["2"]);
            cfg.connect(&prev, 0, &tee, 0);
            if i > 0 {
                cfg.connect(&prev, 1, &tee, 0);
            }
            prev = tee;
        }
        cfg.add_element("spoof", "SetIPSrc", &["6.6.6.6"]);
        cfg.add_element("out", "ToNetfront", &[]);
        cfg.connect(&prev, 0, "spoof", 0);
        cfg.connect(&prev, 1, "spoof", 0);
        cfg.connect("spoof", 0, "out", 0);
        cfg
    }

    /// A run that hit the hop cap examined only some flows: whatever it
    /// found still rejects, but finding nothing is not `Safe`.
    #[test]
    fn truncated_exploration_is_not_safe() {
        let registry = Registry::standard();
        for class in [RequesterClass::ThirdParty, RequesterClass::Client] {
            let (small, stats) =
                check_module_with_stats(&tee_lattice(4), &ctx(class), &registry).unwrap();
            assert_eq!(
                (small.verdict, stats.hop_cap_bailouts),
                (Verdict::Reject, 0)
            );
            assert_eq!(small.flows_checked, 16);

            let (deep, stats) =
                check_module_with_stats(&tee_lattice(15), &ctx(class), &registry).unwrap();
            assert_eq!(stats.hop_cap_bailouts, 1);
            assert_eq!(
                deep.verdict,
                Verdict::SafeWithSandbox,
                "{:?}",
                deep.unknowns
            );
            assert!(deep.unknowns.iter().any(|u| u.contains("hop cap")));
        }
        // The operator is trusted: no exploration, so nothing truncates.
        assert_eq!(
            verdict_of(&tee_lattice(15), RequesterClass::Operator),
            Verdict::Safe
        );
    }
}
