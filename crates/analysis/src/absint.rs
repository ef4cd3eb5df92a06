//! Field-effect abstract interpretation over a Click configuration.
//!
//! The abstract domain tracks, per egress flow and per header field,
//! whether the field still carries its *ingress* value (and which ingress
//! variable), a known *constant*, a *runtime-chosen* value (with its
//! provenance), or is unknown (`Top`). A flow additionally records
//! whether any inexact constraint was applied (`filtered` — the flow may
//! not exist at all), per-variable exclusion sets from `Neq` tests, and a
//! tunnel-layer stack.
//!
//! Every transfer function mirrors the symbolic models in
//! `innet-symnet::models`; every security predicate mirrors
//! `innet-symnet::security`. Where the abstraction cannot reproduce the
//! model exactly it degrades toward `Top`/`filtered`, and the verdict
//! combiner turns any residual uncertainty into `None` ("fall back to
//! SymNet"). See DESIGN.md §10 for the full soundness argument.

use std::net::Ipv4Addr;

use innet_click::{
    AbsField, ClickConfig, Constraint, ElementSummary, FieldWrite, LayerOp, Registry, RtOrigin,
    SummaryKind, ABS_FIELDS,
};
use innet_symnet::{RequesterClass, SecurityContext, Verdict};

use crate::lint::{element_index, find_cycle, flow_pair_adjacency, is_entry, wires};

const N: usize = AbsField::COUNT;
/// Worklist budget: configurations needing more abstract states than
/// this fall back to SymNet.
const MAX_STATES: usize = 4096;
/// Tunnel-nesting budget.
const MAX_STACK: usize = 32;

/// Abstract value of one header field on one flow.
#[derive(Debug, Clone, PartialEq)]
enum AbsVal {
    /// Still the ingress value of the given field (variable identity —
    /// copies share it).
    Ingress(AbsField),
    /// Provably this constant.
    Const(u64),
    /// A runtime-chosen variable that has been constrained to a single
    /// value: provably equal to it, but carrying runtime provenance.
    NarrowedRt(u64, RtOrigin),
    /// A runtime-chosen value, unconstrained.
    Runtime(RtOrigin),
    /// Unknown.
    Top,
}

/// Abstract state of one flow at one point in the graph.
#[derive(Debug, Clone)]
struct AbsState {
    vals: [AbsVal; N],
    /// Ever-written flags; like SymNet's write records these are global
    /// and survive tunnel push/pop.
    written: [bool; N],
    /// Values excluded from *ingress variables* by `Neq` tests, keyed by
    /// the variable (so copies are covered). Never cleared: variable
    /// identity persists.
    excluded_ingress: Vec<(AbsField, u64)>,
    /// Values excluded from the current runtime variable of a field;
    /// cleared when the field is rewritten.
    excluded_field: Vec<(AbsField, u64)>,
    /// Whether any inexact constraint was applied: the flow may have
    /// been narrowed arbitrarily or dropped entirely.
    filtered: bool,
    /// Saved (vals, excluded_field) per pushed tunnel layer.
    stack: Vec<SavedLayer>,
}

/// Per-field values and field-keyed exclusions saved on encapsulation.
type SavedLayer = ([AbsVal; N], Vec<(AbsField, u64)>);

/// Outcome of pushing one flow summary onto a state.
enum Applied {
    /// The flow's exact constraints provably fail.
    Dead,
    /// The flow survives.
    Alive,
    /// Analysis budget exceeded; fall back to SymNet.
    Bail,
}

impl AbsState {
    /// The unconstrained ingress packet: every field carries its own
    /// ingress variable except the analysis-only firewall tag, which
    /// starts at zero.
    fn ingress() -> AbsState {
        let mut vals: [AbsVal; N] = ABS_FIELDS.map(AbsVal::Ingress);
        vals[AbsField::FwTag.index()] = AbsVal::Const(0);
        AbsState {
            vals,
            written: [false; N],
            excluded_ingress: Vec::new(),
            excluded_field: Vec::new(),
            filtered: false,
            stack: Vec::new(),
        }
    }

    fn constrain(&mut self, c: Constraint) -> bool {
        match c {
            Constraint::Eq(f, v) => {
                let i = f.index();
                match self.vals[i].clone() {
                    AbsVal::Const(c0) | AbsVal::NarrowedRt(c0, _) => c0 == v,
                    AbsVal::Runtime(o) => {
                        if self.excluded_field.contains(&(f, v)) {
                            return false;
                        }
                        self.vals[i] = AbsVal::NarrowedRt(v, o);
                        self.excluded_field.retain(|&(g, _)| g != f);
                        true
                    }
                    AbsVal::Ingress(h) => {
                        if self.excluded_ingress.contains(&(h, v)) {
                            return false;
                        }
                        // Binding the ingress variable binds every field
                        // that still carries it.
                        for val in &mut self.vals {
                            if *val == AbsVal::Ingress(h) {
                                *val = AbsVal::Const(v);
                            }
                        }
                        true
                    }
                    AbsVal::Top => {
                        self.filtered = true;
                        true
                    }
                }
            }
            Constraint::Neq(f, v) => match self.vals[f.index()].clone() {
                AbsVal::Const(c0) | AbsVal::NarrowedRt(c0, _) => c0 != v,
                AbsVal::Runtime(_) => {
                    if !self.excluded_field.contains(&(f, v)) {
                        self.excluded_field.push((f, v));
                    }
                    true
                }
                AbsVal::Ingress(h) => {
                    if !self.excluded_ingress.contains(&(h, v)) {
                        self.excluded_ingress.push((h, v));
                    }
                    true
                }
                AbsVal::Top => {
                    self.filtered = true;
                    true
                }
            },
            Constraint::Narrow(f) => {
                self.filtered = true;
                let i = f.index();
                if self.written[i]
                    && matches!(self.vals[i], AbsVal::Runtime(_) | AbsVal::NarrowedRt(..))
                {
                    // A pattern may narrow a runtime variable to anything
                    // (including a provable value we cannot compute).
                    self.vals[i] = AbsVal::Top;
                }
                true
            }
            Constraint::Opaque => {
                self.filtered = true;
                for i in 0..N {
                    if self.written[i]
                        && matches!(self.vals[i], AbsVal::Runtime(_) | AbsVal::NarrowedRt(..))
                    {
                        self.vals[i] = AbsVal::Top;
                    }
                }
                true
            }
        }
    }

    fn apply(&mut self, flow: &innet_click::FlowSummary) -> Applied {
        for &c in &flow.constraints {
            if !self.constrain(c) {
                return Applied::Dead;
            }
        }
        match flow.layer {
            LayerOp::None => {}
            LayerOp::Push => {
                if self.stack.len() >= MAX_STACK {
                    return Applied::Bail;
                }
                let saved = self.vals.clone();
                let saved_excl = std::mem::take(&mut self.excluded_field);
                // The fresh outer header is all-zero except the payload,
                // whose identity the encapsulation carries through.
                for (i, val) in self.vals.iter_mut().enumerate() {
                    if i != AbsField::Payload.index() {
                        *val = AbsVal::Const(0);
                    }
                }
                self.stack.push((saved, saved_excl));
            }
            LayerOp::Pop => match self.stack.pop() {
                Some((vals, excl)) => {
                    self.vals = vals;
                    self.excluded_field = excl;
                }
                None => {
                    // Decapsulating a tunnel the analysis did not see
                    // built: the revealed header is unknown until
                    // runtime; decapsulation cannot conjure firewall
                    // authorizations.
                    for (i, val) in self.vals.iter_mut().enumerate() {
                        *val = AbsVal::Runtime(RtOrigin::Decap);
                        self.written[i] = true;
                    }
                    self.vals[AbsField::FwTag.index()] = AbsVal::Const(0);
                    self.excluded_field.clear();
                }
            },
        }
        if !flow.writes.is_empty() {
            let pre = self.vals.clone();
            for &(f, w) in &flow.writes {
                let i = f.index();
                self.vals[i] = match w {
                    FieldWrite::Const(v) => AbsVal::Const(v),
                    FieldWrite::CopyOf(g) => pre[g.index()].clone(),
                    FieldWrite::Runtime(k) => AbsVal::Runtime(k),
                };
                self.written[i] = true;
                self.excluded_field.retain(|&(g, _)| g != f);
            }
        }
        Applied::Alive
    }

    fn val(&self, f: AbsField) -> &AbsVal {
        &self.vals[f.index()]
    }

    fn is_written(&self, f: AbsField) -> bool {
        self.written[f.index()]
    }
}

// ---------------------------------------------------------------------------
// Security predicates (abstract mirrors of innet-symnet::security)
// ---------------------------------------------------------------------------

/// Abstract tri-state: the symbolic `Tri` plus "can't tell".
#[derive(Debug, Clone, PartialEq)]
enum AbsTri {
    Holds,
    Unknown(RtOrigin),
    Violated(String),
    Top,
}

fn anti_spoof(s: &AbsState, assigned: u64) -> AbsTri {
    if !s.is_written(AbsField::IpSrc) {
        return AbsTri::Holds;
    }
    match s.val(AbsField::IpSrc) {
        AbsVal::Const(c) if *c == assigned => AbsTri::Holds,
        AbsVal::NarrowedRt(v, o) => {
            if *v == assigned {
                AbsTri::Holds
            } else {
                AbsTri::Unknown(*o)
            }
        }
        AbsVal::Ingress(AbsField::IpDst) => AbsTri::Holds,
        AbsVal::Runtime(o) => AbsTri::Unknown(*o),
        AbsVal::Const(c) => AbsTri::Violated(format!(
            "egress source {} is neither the assigned address nor invariant",
            Ipv4Addr::from(*c as u32)
        )),
        AbsVal::Ingress(_) => AbsTri::Violated(
            "egress source is neither the assigned address nor invariant".to_string(),
        ),
        AbsVal::Top => AbsTri::Top,
    }
}

fn ownership(s: &AbsState, assigned: u64, registered: &[u64]) -> AbsTri {
    let src_w = s.is_written(AbsField::IpSrc);
    let dst_w = s.is_written(AbsField::IpDst);
    let src = s.val(AbsField::IpSrc);
    let dst = s.val(AbsField::IpDst);
    // (1) Module originates traffic as itself.
    if src_w {
        let self_originated = matches!(src, AbsVal::Const(c) if *c == assigned)
            || matches!(src, AbsVal::NarrowedRt(v, _) if *v == assigned)
            || *src == AbsVal::Ingress(AbsField::IpDst);
        if self_originated {
            return AbsTri::Holds;
        }
    }
    // (2) Response: destination bound to the ingress source.
    if dst_w && *dst == AbsVal::Ingress(AbsField::IpSrc) {
        return AbsTri::Holds;
    }
    // (3) Delivery to a registered tenant address.
    if dst_w {
        let single = match dst {
            AbsVal::Const(c) | AbsVal::NarrowedRt(c, _) => Some(*c),
            _ => None,
        };
        if let Some(c) = single {
            if registered.contains(&c) {
                return AbsTri::Holds;
            }
        }
    }
    // With an unknown value in play the symbolic rules above might still
    // fire — don't guess.
    if (src_w && *src == AbsVal::Top) || (dst_w && *dst == AbsVal::Top) {
        return AbsTri::Top;
    }
    // Unknown-valued rewrites defer the decision to runtime.
    for (w, val) in [(src_w, src), (dst_w, dst)] {
        if w {
            if let AbsVal::Runtime(o) | AbsVal::NarrowedRt(_, o) = val {
                if matches!(o, RtOrigin::Decap | RtOrigin::Opaque) {
                    return AbsTri::Unknown(*o);
                }
            }
        }
    }
    AbsTri::Violated(
        "egress flow transits foreign traffic: not self-originated, not a response, \
         not a delivery to a registered address"
            .to_string(),
    )
}

fn default_off(s: &AbsState, registered: &[u64]) -> AbsTri {
    let dst = s.val(AbsField::IpDst);
    if *dst == AbsVal::Ingress(AbsField::IpSrc) {
        return AbsTri::Holds; // Implicit authorization.
    }
    let single = match dst {
        AbsVal::Const(c) | AbsVal::NarrowedRt(c, _) => Some(*c),
        _ => None,
    };
    if let Some(c) = single {
        return if registered.contains(&c) {
            AbsTri::Holds // Explicit authorization.
        } else {
            AbsTri::Violated(format!(
                "destination {} is not authorized",
                Ipv4Addr::from(c as u32)
            ))
        };
    }
    match dst {
        AbsVal::Runtime(o) => AbsTri::Unknown(*o),
        AbsVal::Ingress(_) => {
            AbsTri::Violated("destination is unconstrained foreign traffic".to_string())
        }
        AbsVal::Top => AbsTri::Top,
        AbsVal::Const(_) | AbsVal::NarrowedRt(..) => unreachable!("handled above"),
    }
}

// ---------------------------------------------------------------------------
// Worklist engine
// ---------------------------------------------------------------------------

struct Inconclusive;

fn resolve_summaries(
    cfg: &ClickConfig,
    registry: &Registry,
) -> Result<Vec<ElementSummary>, Inconclusive> {
    cfg.elements
        .iter()
        .map(|e| {
            registry
                .summary(&e.class, &e.args)
                .map_err(|_| Inconclusive)
        })
        .collect()
}

/// Runs the worklist over all paths, returning the abstract egress flows.
fn egress_states(cfg: &ClickConfig, registry: &Registry) -> Result<Vec<AbsState>, Inconclusive> {
    cfg.validate().map_err(|_| Inconclusive)?;
    let resolved = resolve_summaries(cfg, registry)?;
    let wires = wires(cfg, &element_index(cfg));

    // Any cycle (even a legitimate, queue-containing one) makes the
    // path-enumeration below diverge from SymNet's bounded exploration;
    // punt those to the real thing.
    let pairs = |i: usize| match &resolved[i].kind {
        SummaryKind::Flows(flows) => flows.iter().map(|f| (f.in_port, f.out_port)).collect(),
        SummaryKind::Egress | SummaryKind::Sink => Vec::new(),
    };
    let adj = flow_pair_adjacency(&wires, cfg.elements.len(), pairs, |_| false);
    if find_cycle(&adj).is_some() {
        return Err(Inconclusive);
    }

    let mut entries: Vec<usize> = cfg
        .elements
        .iter()
        .enumerate()
        .filter(|(_, e)| is_entry(&e.class))
        .map(|(i, _)| i)
        .collect();
    if entries.is_empty() && !cfg.elements.is_empty() {
        entries.push(0);
    }

    let mut egress = Vec::new();
    let mut work: Vec<(usize, usize, AbsState)> = entries
        .into_iter()
        .map(|e| (e, 0, AbsState::ingress()))
        .collect();
    let mut processed = 0usize;
    while let Some((e, in_port, state)) = work.pop() {
        processed += 1;
        if processed > MAX_STATES {
            return Err(Inconclusive);
        }
        let summary = &resolved[e];
        match &summary.kind {
            SummaryKind::Egress => egress.push(state),
            SummaryKind::Sink => {}
            SummaryKind::Flows(flows) => {
                for flow in flows.iter().filter(|f| f.in_port == in_port) {
                    let mut s = state.clone();
                    match s.apply(flow) {
                        Applied::Dead => continue,
                        Applied::Bail => return Err(Inconclusive),
                        Applied::Alive => {}
                    }
                    if let Some(&(t, tin)) = wires.get(&(e, flow.out_port)) {
                        work.push((t, tin, s));
                    }
                }
            }
        }
    }
    Ok(egress)
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// The analyzer's conclusion about one configuration (only produced when
/// it is certain SymNet would conclude the same).
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// The verdict SymNet would reach.
    pub verdict: Verdict,
    /// Number of abstract egress flows inspected.
    pub flows_checked: usize,
    /// Definite rule violations (nonempty only on `Reject`).
    pub violations: Vec<String>,
    /// Definite runtime-dependencies (nonempty only when sandboxing).
    pub unknowns: Vec<String>,
}

fn u(a: Ipv4Addr) -> u64 {
    u32::from(a) as u64
}

/// Checks the security rules by abstract interpretation alone.
///
/// Returns `Some` only when every rule is *decided* on every abstract
/// egress flow — in which case the verdict provably agrees with
/// [`innet_symnet::check_module`] — and `None` whenever anything is
/// inconclusive (unknown classes, cycles, budget, or residual `Top`s),
/// signalling the caller to fall back to full symbolic execution.
pub fn abstract_verdict(
    cfg: &ClickConfig,
    ctx: &SecurityContext,
    registry: &Registry,
) -> Option<AnalysisReport> {
    if ctx.class == RequesterClass::Operator {
        // Trusted: static analysis is advisory only.
        return Some(AnalysisReport {
            verdict: Verdict::Safe,
            flows_checked: 0,
            violations: Vec::new(),
            unknowns: Vec::new(),
        });
    }
    let flows = egress_states(cfg, registry).ok()?;
    let assigned = u(ctx.assigned_addr);
    let registered: Vec<u64> = ctx.registered.iter().map(|&a| u(a)).collect();

    let mut violations = Vec::new();
    let mut unknowns = Vec::new();
    let mut uncertain = false;
    for s in &flows {
        let mut tris = vec![
            ("anti-spoofing", anti_spoof(s, assigned)),
            ("ownership", ownership(s, assigned, &registered)),
        ];
        if ctx.class == RequesterClass::ThirdParty {
            tris.push(("default-off", default_off(s, &registered)));
        }
        for (rule, tri) in tris {
            // On a filtered flow only `Holds` is trustworthy: the flow
            // may not exist (no violation to report), or pattern
            // narrowing may have strengthened it into compliance.
            let tri = if s.filtered && tri != AbsTri::Holds {
                AbsTri::Top
            } else {
                tri
            };
            match tri {
                AbsTri::Holds => {}
                AbsTri::Top => uncertain = true,
                AbsTri::Unknown(o) => {
                    let acceptable = ctx.class == RequesterClass::Client && o == RtOrigin::Decap;
                    if !acceptable {
                        unknowns.push(format!("runtime-dependent ({}) flow: {rule}", o.name()));
                    }
                }
                AbsTri::Violated(why) => violations.push(format!("{rule}: {why}")),
            }
        }
    }

    // A single definite violation decides Reject no matter what else is
    // uncertain (SymNet can only find *more* violations).
    if !violations.is_empty() {
        return Some(AnalysisReport {
            verdict: Verdict::Reject,
            flows_checked: flows.len(),
            violations,
            unknowns: Vec::new(),
        });
    }
    if uncertain {
        return None;
    }
    let verdict = if unknowns.is_empty() {
        Verdict::Safe
    } else {
        Verdict::SafeWithSandbox
    };
    Some(AnalysisReport {
        verdict,
        flows_checked: flows.len(),
        violations: Vec::new(),
        unknowns,
    })
}

/// Human-readable field effects of one abstract egress flow (for the
/// `lint` example's summary table).
#[derive(Debug, Clone)]
pub struct FlowEffect {
    /// Whether the flow passed inexact filters (it may not exist).
    pub filtered: bool,
    /// `(field name, abstract value, ever written)` per header field.
    pub fields: Vec<(&'static str, String, bool)>,
}

/// Computes the abstract egress flows of `cfg` for display purposes.
///
/// Returns `None` when the interpretation is inconclusive (same
/// conditions as [`abstract_verdict`]).
pub fn flow_effects(cfg: &ClickConfig, registry: &Registry) -> Option<Vec<FlowEffect>> {
    let flows = egress_states(cfg, registry).ok()?;
    Some(
        flows
            .iter()
            .map(|s| FlowEffect {
                filtered: s.filtered,
                fields: ABS_FIELDS
                    .iter()
                    .map(|&f| (f.name(), render(f, s.val(f)), s.is_written(f)))
                    .collect(),
            })
            .collect(),
    )
}

fn render(f: AbsField, v: &AbsVal) -> String {
    let as_addr = matches!(f, AbsField::IpSrc | AbsField::IpDst);
    let c = |v: &u64| {
        if as_addr {
            Ipv4Addr::from(*v as u32).to_string()
        } else {
            v.to_string()
        }
    };
    match v {
        AbsVal::Ingress(g) => format!("ingress({})", g.name()),
        AbsVal::Const(v) => format!("const({})", c(v)),
        AbsVal::NarrowedRt(v, o) => format!("const({}) via runtime({})", c(v), o.name()),
        AbsVal::Runtime(o) => format!("runtime({})", o.name()),
        AbsVal::Top => "unknown".to_string(),
    }
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

    fn verdict_of(cfg: &str, class: RequesterClass) -> Option<Verdict> {
        let cfg = ClickConfig::parse(cfg).unwrap();
        abstract_verdict(&cfg, &ctx(class), &Registry::standard()).map(|r| r.verdict)
    }

    #[test]
    fn batcher_is_safe_for_everyone() {
        let cfg = r#"
            FromNetfront()
              -> IPFilter(allow udp dst port 1500)
              -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
              -> TimedUnqueue(120, 100)
              -> ToNetfront();
        "#;
        for class in [
            RequesterClass::ThirdParty,
            RequesterClass::Client,
            RequesterClass::Operator,
        ] {
            assert_eq!(verdict_of(cfg, class), Some(Verdict::Safe), "{class:?}");
        }
    }

    #[test]
    fn transit_is_rejected_for_tenants() {
        let cfg = "FromNetfront() -> Counter() -> ToNetfront();";
        assert_eq!(
            verdict_of(cfg, RequesterClass::ThirdParty),
            Some(Verdict::Reject)
        );
        assert_eq!(
            verdict_of(cfg, RequesterClass::Client),
            Some(Verdict::Reject)
        );
        assert_eq!(
            verdict_of(cfg, RequesterClass::Operator),
            Some(Verdict::Safe)
        );
    }

    #[test]
    fn spoofed_source_is_rejected() {
        let cfg = "FromNetfront() -> SetIPSrc(8.8.8.8) -> ToNetfront();";
        assert_eq!(
            verdict_of(cfg, RequesterClass::ThirdParty),
            Some(Verdict::Reject)
        );
    }

    #[test]
    fn responder_is_safe() {
        let cfg = "FromNetfront() -> ICMPPingResponder() -> ToNetfront();";
        assert_eq!(
            verdict_of(cfg, RequesterClass::ThirdParty),
            Some(Verdict::Safe)
        );
    }

    #[test]
    fn decap_is_sandboxed_for_third_party_safe_for_client() {
        let cfg = "FromNetfront() -> UDPTunnelDecap() -> ToNetfront();";
        assert_eq!(
            verdict_of(cfg, RequesterClass::ThirdParty),
            Some(Verdict::SafeWithSandbox)
        );
        assert_eq!(verdict_of(cfg, RequesterClass::Client), Some(Verdict::Safe));
    }

    #[test]
    fn opaque_vm_is_sandboxed() {
        let mut cfg = ClickConfig::new();
        cfg.add_element("in", "FromNetfront", &[]);
        cfg.add_element("vm", "StockX86VM", &[]);
        cfg.add_element("out", "ToNetfront", &[]);
        cfg.connect("in", 0, "vm", 0);
        cfg.connect("vm", 0, "out", 0);
        let r = abstract_verdict(
            &cfg,
            &ctx(RequesterClass::ThirdParty),
            &Registry::standard(),
        )
        .unwrap();
        assert_eq!(r.verdict, Verdict::SafeWithSandbox);
        assert!(!r.unknowns.is_empty());
    }

    #[test]
    fn firewall_loop_is_safe_and_decided() {
        // The Figure 1/2 shape: stateful firewall with the paper's
        // server S on the inside.
        let cfg = r#"
            client_in :: FromNetfront();
            fw :: StatefulFirewall(allow udp);
            s :: ServerS();
            out :: ToNetfront();
            client_in -> [0]fw;
            fw[0] -> s -> [1]fw;
            fw[1] -> out;
        "#;
        assert_eq!(
            verdict_of(cfg, RequesterClass::ThirdParty),
            Some(Verdict::Safe)
        );
    }

    #[test]
    fn queue_cycles_fall_back_to_symnet() {
        let mut cfg = ClickConfig::new();
        cfg.add_element("in", "FromNetfront", &[]);
        cfg.add_element("a", "Counter", &[]);
        cfg.add_element("q", "Queue", &[]);
        cfg.connect("in", 0, "a", 0);
        cfg.connect("a", 0, "q", 0);
        cfg.connect("q", 0, "a", 0);
        // add_element/connect build without validation; the cycle makes
        // the abstract interpretation bail.
        assert!(abstract_verdict(
            &cfg,
            &ctx(RequesterClass::ThirdParty),
            &Registry::standard()
        )
        .is_none());
    }

    #[test]
    fn tunnel_roundtrip_restores_invariants() {
        // Encap then decap on the same platform: the inner header is
        // restored exactly, so the flow stays decided (the write flags
        // survive, making anti-spoofing fall through to its origin
        // check — mirroring SymNet's global write records).
        let cfg = "FromNetfront() -> UDPTunnelEncap(192.0.2.10, 4789, 203.0.113.9, 4789) \
                   -> UDPTunnelDecap() -> ToNetfront();";
        let r = verdict_of(cfg, RequesterClass::Client);
        // src/dst written (encap) then restored to ingress variables:
        // anti-spoofing fails closed (Violated) exactly like SymNet.
        assert_eq!(r, Some(Verdict::Reject));
    }
}
