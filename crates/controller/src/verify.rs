//! Requirement verification: evaluating `reach` statements against the
//! compiled network model.
//!
//! The controller "runs a SYMNET reachability check for each requirement
//! given: it first creates a symbolic packet using the initial flow
//! definition …, injects it at the initial node …, then tracks the flow
//! through the network, splitting it whenever subflows can be routed via
//! different paths" (§4.3). A requirement is satisfied when at least one
//! symbolic flow visits the way-points in order, matching each hop's flow
//! specification at the time of visit, with every `const` field left
//! unwritten on the hop leading to it.

use std::collections::HashSet;
use std::sync::Arc;

use innet_policy::{ConstField, NodeRef, Requirement};
use innet_symnet::{
    entry_chain, pattern, summarize_chain, BranchOutcome, CheckStats, ExecOptions, Field, Observe,
    RangeSet, SymPacket, SymSummary,
};

use crate::netmodel::NetworkModel;

/// Errors raised during requirement verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A way-point names something that does not exist in the model.
    UnknownNode(String),
    /// The node kind cannot be used in this position (e.g. an element
    /// port as a traffic source).
    BadSource(String),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::UnknownNode(n) => write!(f, "unknown way-point '{n}'"),
            VerifyError::BadSource(n) => write!(f, "'{n}' cannot originate traffic"),
        }
    }
}

impl std::error::Error for VerifyError {}

fn const_field(f: ConstField) -> Field {
    match f {
        ConstField::Proto => Field::Proto,
        ConstField::SrcPort => Field::SrcPort,
        ConstField::DstPort => Field::DstPort,
        ConstField::SrcAddr => Field::IpSrc,
        ConstField::DstAddr => Field::IpDst,
        ConstField::Ttl => Field::Ttl,
        ConstField::Tos => Field::Tos,
        ConstField::Payload => Field::Payload,
    }
}

/// A resolved way-point: acceptable graph nodes, an optional input-port
/// filter, and an optional implicit destination constraint.
struct Waypoint {
    nodes: HashSet<usize>,
    in_port: Option<usize>,
    dst_within: Option<RangeSet>,
}

fn resolve_waypoint(model: &NetworkModel, node: &NodeRef) -> Result<Waypoint, VerifyError> {
    let mut nodes = HashSet::new();
    let mut in_port = None;
    let mut dst_within = None;
    match node {
        NodeRef::Internet => {
            nodes.insert(model.internet_dst);
        }
        NodeRef::Client => {
            for (_, _, dst) in &model.client_edges {
                nodes.insert(*dst);
            }
        }
        NodeRef::Addr(c) => {
            // An address way-point is wherever traffic for that prefix is
            // delivered: the edge sinks and the platform switches.
            nodes.insert(model.internet_dst);
            for (_, _, dst) in &model.client_edges {
                nodes.insert(*dst);
            }
            for idx in model.platform_switches.values() {
                nodes.insert(*idx);
            }
            dst_within = Some(RangeSet::range(c.first_u32() as u64, c.last_u32() as u64));
        }
        NodeRef::Named(name) => {
            if let Some(entries) = model.middlebox_entries.get(name) {
                nodes.extend(entries.iter().copied());
            } else if let Some(idx) = model.platform_switches.get(name) {
                nodes.insert(*idx);
            } else if let Some(idx) = model.module_ingress.get(name) {
                nodes.insert(*idx);
            } else {
                return Err(VerifyError::UnknownNode(name.clone()));
            }
        }
        NodeRef::ElementPort {
            module,
            element,
            port,
        } => {
            let idx = model
                .module_elements
                .get(&(module.clone(), element.clone()))
                .ok_or_else(|| VerifyError::UnknownNode(format!("{module}:{element}")))?;
            nodes.insert(*idx);
            in_port = Some(*port);
        }
    }
    Ok(Waypoint {
        nodes,
        in_port,
        dst_within,
    })
}

/// Injection points plus initial constraints for a requirement source.
fn resolve_source(
    model: &NetworkModel,
    node: &NodeRef,
) -> Result<Vec<(usize, Option<RangeSet>)>, VerifyError> {
    match node {
        NodeRef::Internet => {
            if model.ingress_filtering {
                // §7 ingress filtering: Internet traffic cannot claim an
                // operator-internal source prefix.
                let mut allowed = RangeSet::full();
                for c in &model.internal_prefixes {
                    allowed =
                        allowed.minus(&RangeSet::range(c.first_u32() as u64, c.last_u32() as u64));
                }
                Ok(vec![(model.internet_src, Some(allowed))])
            } else {
                Ok(vec![(model.internet_src, None)])
            }
        }
        NodeRef::Client => Ok(model
            .client_edges
            .iter()
            .map(|(c, src, _)| {
                (
                    *src,
                    Some(RangeSet::range(c.first_u32() as u64, c.last_u32() as u64)),
                )
            })
            .collect()),
        NodeRef::Addr(c) => {
            let set = RangeSet::range(c.first_u32() as u64, c.last_u32() as u64);
            let mut out = vec![(model.internet_src, Some(set.clone()))];
            for (sub, src, _) in &model.client_edges {
                if sub.overlaps(c) {
                    out.push((*src, Some(set.clone())));
                }
            }
            Ok(out)
        }
        other => Err(VerifyError::BadSource(other.to_string())),
    }
}

/// Whether a trace position `pos` satisfies way-point `wp` for flow
/// `flow`, given the hop's flow specification.
fn position_matches(
    flow: &SymPacket,
    hops: &[innet_symnet::Hop],
    pos: usize,
    wp: &Waypoint,
    spec: &innet_packet::pattern::PatternExpr,
) -> bool {
    let hop = &hops[pos];
    if !wp.nodes.contains(&hop.node) {
        return false;
    }
    if let Some(p) = wp.in_port {
        if hop.in_port != p {
            return false;
        }
    }
    let snap = flow.at_snapshot(hop.fields);
    if let Some(set) = &wp.dst_within {
        let mut s = snap.clone();
        if !s.constrain(Field::IpDst, set) {
            return false;
        }
        return pattern::satisfiable(&s, spec);
    }
    pattern::satisfiable(&snap, spec)
}

/// Searches for an increasing assignment of trace positions to way-points
/// `k..`, starting at trace position `start`, honoring const clauses.
#[allow(clippy::too_many_arguments)]
fn assign(
    flow: &SymPacket,
    hops: &[innet_symnet::Hop],
    req: &Requirement,
    wps: &[Waypoint],
    k: usize,
    start: usize,
    prev_pos: usize,
) -> bool {
    if k == wps.len() {
        return true;
    }
    for pos in start..hops.len() {
        if !position_matches(flow, hops, pos, &wps[k], &req.hops[k].flow) {
            continue;
        }
        // Const clause: the listed fields must not be written on the hop
        // from the previous way-point (or the source) to this one.
        let clean = req.hops[k]
            .const_fields
            .iter()
            .all(|&cf| !flow.written_between(const_field(cf), prev_pos, pos));
        if clean && assign(flow, hops, req, wps, k + 1, pos + 1, pos) {
            return true;
        }
    }
    false
}

/// Checks one requirement against the model. Returns `Ok(true)` when at
/// least one symbolic flow conforms. This is the whole-graph oracle path;
/// the controller's admission pipeline calls the crate-private
/// `check_requirement_summarized` instead.
pub fn check_requirement(model: &NetworkModel, req: &Requirement) -> Result<bool, VerifyError> {
    Ok(check_requirement_summarized(model, req, false)?.0)
}

/// [`check_requirement`] with an optional compositional walk over the
/// injection point's maximal chain-safe entry chain, plus the check's
/// [`CheckStats`].
///
/// When `use_summaries` is set, each source's entry chain is summarized
/// once per call ([`summarize_chain`]) and replayed for every injected
/// pattern branch; per-element execution resumes at the chain boundary.
/// The network model is compiled fresh per placement candidate and keeps
/// no composite configuration, so there is no canonical slice to key a
/// cross-request cache on — memoization here is per call (one summary
/// serving all of `pattern::satisfy`'s branches), unlike the admission
/// security check, which shares the controller's fleet-wide
/// chain-summary memo ([`innet_symnet::ModelCache`]).
///
/// The walk is only taken when the chain contains **no observed
/// way-point node**: summary replay records the chain's arrivals before
/// its writes, so a way-point *inside* the chain would snapshot fields
/// the chain had not yet written where real execution interleaves them.
/// With every way-point outside the chain, all chain write positions
/// precede all way-point positions in both modes, so `written_between`
/// and snapshot matching agree exactly (the differential suite holds the
/// two paths together). Injected packets are constrain-only refinements
/// of [`SymPacket::unconstrained`], as the summary exactness contract
/// requires.
pub(crate) fn check_requirement_summarized(
    model: &NetworkModel,
    req: &Requirement,
    use_summaries: bool,
) -> Result<(bool, CheckStats), VerifyError> {
    let mut stats = CheckStats::default();
    let wps: Vec<Waypoint> = req
        .hops
        .iter()
        .map(|h| resolve_waypoint(model, &h.node))
        .collect::<Result<_, _>>()?;
    let Some(last) = wps.last() else {
        return Ok((true, stats));
    };

    let mut observe: HashSet<usize> = HashSet::new();
    for wp in &wps {
        observe.extend(wp.nodes.iter().copied());
    }
    let opts = ExecOptions {
        max_hops: 200_000,
        max_node_visits: 6,
        observe: Observe::Nodes(observe.clone()),
    };

    for (src_node, src_constraint) in resolve_source(model, &req.from)? {
        // Summarize this source's entry chain once; every pattern branch
        // below replays it.
        let chain: Option<(innet_symnet::EntryChain, Arc<SymSummary>)> = if use_summaries {
            let c = entry_chain(&model.graph, src_node);
            if c.nodes.len() >= 2 && c.nodes.iter().all(|n| !observe.contains(n)) {
                summarize_chain(&model.graph, &c.nodes).map(|s| (c, Arc::new(s)))
            } else {
                None
            }
        } else {
            None
        };
        // Initial symbolic packet: unconstrained, then the source
        // constraint and the requirement's initial flow definition.
        let mut base = SymPacket::unconstrained();
        if let Some(set) = &src_constraint {
            if !base.constrain(Field::IpSrc, set) {
                continue;
            }
        }
        for branch in pattern::satisfy(&base, &req.from_flow) {
            let observations: Vec<(usize, SymPacket)> = match &chain {
                Some((c, s)) => {
                    stats.summary_chain_nodes += c.nodes.len() as u64;
                    let mut obs = Vec::new();
                    for (outcome, pkt) in s.apply(&branch, &c.nodes) {
                        // Egress branches leave the graph inside the
                        // chain, which contains no observed node — they
                        // cannot carry way-point observations.
                        if let BranchOutcome::Continue = outcome {
                            if let Some((n, p)) = c.cont {
                                let res = model.graph.run(n, p, pkt, &opts);
                                stats.hop_cap_bailouts += res.hop_cap_hits;
                                stats.visit_cap_bailouts += res.visit_cap_hits;
                                obs.extend(res.observations);
                            }
                        }
                    }
                    obs
                }
                None => {
                    let res = model.graph.run(src_node, 0, branch, &opts);
                    stats.hop_cap_bailouts += res.hop_cap_hits;
                    stats.visit_cap_bailouts += res.visit_cap_hits;
                    res.observations
                }
            };
            // Find observations at the last way-point and try to assign
            // all way-points along their traces.
            for (node, flow) in &observations {
                if !last.nodes.contains(node) {
                    continue;
                }
                // The observation's final trace entry is its arrival at
                // `node`; the assignment search covers ordering + specs.
                let hops = flow.hops();
                if assign(flow, &hops, req, &wps, 0, 0, 0) {
                    return Ok((true, stats));
                }
            }
        }
    }
    Ok((false, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netmodel::{compile, InstalledModule};
    use innet_click::{ClickConfig, Registry};
    use innet_topology::Topology;
    use std::net::Ipv4Addr;

    fn model_with_batcher() -> NetworkModel {
        let topo = Topology::figure3();
        let p3 = topo.index_of("platform3").unwrap();
        let module = InstalledModule {
            id: 1,
            name: "batcher".to_string(),
            platform: p3,
            addr: Ipv4Addr::new(203, 0, 113, 10),
            config: ClickConfig::parse(
                r#"
                FromNetfront()
                  -> IPFilter(allow udp dst port 1500)
                  -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
                  -> TimedUnqueue(120, 100)
                  -> dst :: ToNetfront();
                "#,
            )
            .unwrap(),
            sandboxed: false,
            owner: "mobile-7".to_string(),
        };
        compile(&topo, &[module], &Registry::standard()).unwrap()
    }

    #[test]
    fn figure4_requirement_holds() {
        let model = model_with_batcher();
        let req = Requirement::parse(
            "reach from internet udp \
             -> batcher:dst:0 dst 172.16.15.133 \
             -> client dst port 1500 const proto && dst port && payload",
        )
        .unwrap();
        assert!(check_requirement(&model, &req).unwrap());
    }

    #[test]
    fn wrong_port_requirement_fails() {
        let model = model_with_batcher();
        // The module filters to port 1500: traffic through the batcher
        // cannot arrive at the client on port 2250. (Without the module
        // way-point the border router delivers internet traffic to the
        // client subnet directly, so the plain variant holds trivially.)
        let req =
            Requirement::parse("reach from internet udp -> batcher:dst:0 -> client dst port 2250")
                .unwrap();
        assert!(!check_requirement(&model, &req).unwrap());
    }

    #[test]
    fn const_violation_detected() {
        let model = model_with_batcher();
        // The rewriter overwrites the destination address on the path from
        // the ingress to the batcher's sink, so `const dst host` on that
        // hop must fail…
        let req =
            Requirement::parse("reach from internet udp -> batcher:dst:0 const dst host -> client")
                .unwrap();
        assert!(!check_requirement(&model, &req).unwrap());
        // …while the same way-point chain without the const clause holds.
        let req2 =
            Requirement::parse("reach from internet udp -> batcher:dst:0 -> client dst port 1500")
                .unwrap();
        assert!(check_requirement(&model, &req2).unwrap());
        // And after the batcher's sink nothing rewrites the destination:
        // const on the final hop holds.
        let req3 = Requirement::parse(
            "reach from internet udp -> batcher:dst:0 -> client dst port 1500 const dst host && payload",
        )
        .unwrap();
        assert!(check_requirement(&model, &req3).unwrap());
    }

    #[test]
    fn waypoint_via_operator_middlebox() {
        let model = model_with_batcher();
        // HTTP traffic toward platform 2 passes the HTTP optimizer; the
        // optimizer's entry is reachable from the internet.
        let req = Requirement::parse("reach from internet tcp -> HTTPOptimizer").unwrap();
        // Platform 2 is behind natfw2 which drops unsolicited inbound, so
        // internet traffic cannot reach the optimizer at all.
        assert!(!check_requirement(&model, &req).unwrap());
    }

    #[test]
    fn unknown_waypoint_errors() {
        let model = model_with_batcher();
        let req = Requirement::parse("reach from internet -> nonexistent").unwrap();
        assert!(matches!(
            check_requirement(&model, &req),
            Err(VerifyError::UnknownNode(_))
        ));
    }

    #[test]
    fn client_sourced_traffic() {
        let model = model_with_batcher();
        // Clients can reach the internet (via the border default route).
        let req = Requirement::parse("reach from client -> internet").unwrap();
        assert!(check_requirement(&model, &req).unwrap());
    }

    #[test]
    fn ingress_filtering_constrains_internet_sources() {
        let mut model = model_with_batcher();
        model.ingress_filtering = true;
        // Reachability itself still holds for legitimate sources…
        let req =
            Requirement::parse("reach from internet udp -> batcher:dst:0 -> client dst port 1500")
                .unwrap();
        assert!(check_requirement(&model, &req).unwrap());
        // …but Internet traffic can no longer claim a client-subnet
        // source (the spoofed-authorization vector of §7).
        let spoofed =
            Requirement::parse("reach from internet src net 172.16.0.0/16 -> client").unwrap();
        assert!(!check_requirement(&model, &spoofed).unwrap());
        // Without filtering the spoofed variant is reachable.
        model.ingress_filtering = false;
        assert!(check_requirement(&model, &spoofed).unwrap());
    }

    #[test]
    fn summarized_requirements_agree_with_oracle() {
        let model = model_with_batcher();
        for text in [
            "reach from internet udp -> batcher:dst:0 dst 172.16.15.133 \
             -> client dst port 1500 const proto && dst port && payload",
            "reach from internet udp -> batcher:dst:0 -> client dst port 2250",
            "reach from internet udp -> batcher:dst:0 const dst host -> client",
            "reach from internet udp -> batcher:dst:0 -> client dst port 1500 \
             const dst host && payload",
            "reach from internet tcp -> HTTPOptimizer",
            "reach from client -> internet",
            "reach from internet src net 172.16.0.0/16 -> client",
        ] {
            let req = Requirement::parse(text).unwrap();
            let want = check_requirement(&model, &req).unwrap();
            let (got, _) = check_requirement_summarized(&model, &req, true).unwrap();
            assert_eq!(want, got, "summarized verdict diverged on: {text}");
        }
    }

    #[test]
    fn element_port_source_rejected() {
        let model = model_with_batcher();
        let req = Requirement::parse("reach from batcher:dst:0 -> client").unwrap();
        assert!(matches!(
            check_requirement(&model, &req),
            Err(VerifyError::BadSource(_))
        ));
    }
}
