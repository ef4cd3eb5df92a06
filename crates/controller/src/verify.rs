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

use innet_policy::{ConstField, NodeRef, Requirement};
use innet_symnet::{
    explore, pattern, CheckStats, ExecOptions, Field, Observe, RangeSet, SymPacket, Wiring,
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
    let topo = &model.topology;
    let mut nodes = HashSet::new();
    let mut in_port = None;
    let mut dst_within = None;
    match node {
        NodeRef::Internet => {
            nodes.insert(topo.internet_dst);
        }
        NodeRef::Client => {
            for (_, _, dst) in &topo.client_edges {
                nodes.insert(*dst);
            }
        }
        NodeRef::Addr(c) => {
            // An address way-point is wherever traffic for that prefix is
            // delivered: the edge sinks and the platform switches.
            nodes.insert(topo.internet_dst);
            for (_, _, dst) in &topo.client_edges {
                nodes.insert(*dst);
            }
            nodes.extend(topo.platforms.iter().map(|p| p.switch));
            dst_within = Some(RangeSet::range(c.first_u32() as u64, c.last_u32() as u64));
        }
        NodeRef::Named(name) => {
            if let Some(entries) = topo.middlebox_entries.get(name) {
                nodes.extend(entries.iter().copied());
            } else if let Some(p) = topo.platforms.iter().find(|p| p.name == *name) {
                nodes.insert(p.switch);
            } else if let Some(idx) = model.module_ingress(name) {
                nodes.insert(idx);
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
                .module_element(module, element)
                .ok_or_else(|| VerifyError::UnknownNode(format!("{module}:{element}")))?;
            nodes.insert(idx);
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
    let topo = &model.topology;
    match node {
        NodeRef::Internet => {
            if model.ingress_filtering {
                // §7 ingress filtering: Internet traffic cannot claim an
                // operator-internal source prefix.
                let mut allowed = RangeSet::full();
                for c in &topo.internal_prefixes {
                    allowed =
                        allowed.minus(&RangeSet::range(c.first_u32() as u64, c.last_u32() as u64));
                }
                Ok(vec![(topo.internet_src, Some(allowed))])
            } else {
                Ok(vec![(topo.internet_src, None)])
            }
        }
        NodeRef::Client => Ok(topo
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
            let mut out = vec![(topo.internet_src, Some(set.clone()))];
            for (sub, src, _) in &topo.client_edges {
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
/// least one symbolic flow conforms.
pub fn check_requirement(model: &NetworkModel, req: &Requirement) -> Result<bool, VerifyError> {
    Ok(check_requirement_counted(model, req)?.0)
}

/// [`check_requirement`] plus the exploration's [`CheckStats`]: the cap
/// bailouts admission folds into its ledger.
pub(crate) fn check_requirement_counted(
    model: &NetworkModel,
    req: &Requirement,
) -> Result<(bool, CheckStats), VerifyError> {
    let wps: Vec<Waypoint> = req
        .hops
        .iter()
        .map(|h| resolve_waypoint(model, &h.node))
        .collect::<Result<_, _>>()?;
    if wps.is_empty() {
        return Ok((true, CheckStats::default()));
    }
    let sources = resolve_source(model, &req.from)?;
    Ok(search(model, &sources, &wps, req))
}

/// Injects each source's initial flows into `net` and looks for one
/// symbolic flow that visits `wps` (not empty) in order.
fn search<W: Wiring>(
    net: &W,
    sources: &[(usize, Option<RangeSet>)],
    wps: &[Waypoint],
    req: &Requirement,
) -> (bool, CheckStats) {
    let mut stats = CheckStats::default();
    let last = &wps[wps.len() - 1];
    let observe = wps.iter().flat_map(|wp| wp.nodes.iter().copied());
    let opts = ExecOptions {
        max_hops: 200_000,
        max_node_visits: 6,
        observe: Observe::Nodes(observe.collect()),
    };

    for (src_node, src_constraint) in sources {
        // Initial symbolic packet: unconstrained, then the source
        // constraint and the requirement's initial flow definition.
        let mut base = SymPacket::unconstrained();
        if let Some(set) = src_constraint {
            if !base.constrain(Field::IpSrc, set) {
                continue;
            }
        }
        for branch in pattern::satisfy(&base, &req.from_flow) {
            let res = explore(net, *src_node, 0, branch, &opts);
            stats.hop_cap_bailouts += res.hop_cap_hits;
            stats.visit_cap_bailouts += res.visit_cap_hits;
            // Find observations at the last way-point and try to assign
            // all way-points along their traces.
            for (node, flow) in &res.observations {
                if !last.nodes.contains(node) {
                    continue;
                }
                // The observation's final trace entry is its arrival at
                // `node`; the assignment search covers ordering + specs.
                let hops = flow.hops();
                if assign(flow, &hops, req, wps, 0, 0, 0) {
                    return (true, stats);
                }
            }
        }
    }
    (false, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        netmodel::{compile, Flattened, InstalledModule},
        ClientRequest, Controller, HardeningPolicy,
    };
    use innet_click::{ClickConfig, Registry};
    use innet_symnet::RequesterClass;
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

    /// The requirement pool `reach_placement.rs` checks after every step.
    const POOL: &[&str] = &[
        "reach from client -> internet",
        "reach from internet udp -> client dst port 1500",
        "reach from internet tcp -> HTTPOptimizer",
        "reach from internet -> platform3",
        "reach from internet src net 172.16.0.0/16 -> client",
        "reach from internet -> gplatform0",
        "reach from internet udp -> b0:dst:0 -> client",
        "reach from client -> platform1",
        "reach from internet udp -> b27:dst:0 -> client",
    ];

    /// A way-point resolved on the flattened oracle's own name maps; the
    /// topology's way-points resolve on the part both models share.
    fn oracle_waypoint(
        model: &NetworkModel,
        flat: &Flattened,
        node: &NodeRef,
    ) -> Result<Waypoint, VerifyError> {
        let topo = &model.topology;
        let (found, in_port) = match node {
            NodeRef::ElementPort {
                module,
                element,
                port,
            } => {
                let key = (module.clone(), element.clone());
                (flat.module_elements.get(&key), Some(*port))
            }
            NodeRef::Named(name)
                if !topo.middlebox_entries.contains_key(name)
                    && !topo.platforms.iter().any(|p| p.name == *name) =>
            {
                (flat.module_ingress.get(name), None)
            }
            _ => return resolve_waypoint(model, node),
        };
        let node = found.ok_or_else(|| VerifyError::UnknownNode(node.to_string()))?;
        Ok(Waypoint {
            nodes: HashSet::from([*node]),
            in_port,
            dst_within: None,
        })
    }

    /// `check_requirement`, run on the flattened oracle.
    fn oracle_check(model: &NetworkModel, flat: &Flattened, req: &Requirement) -> Option<bool> {
        let wps: Vec<Waypoint> = req
            .hops
            .iter()
            .map(|h| oracle_waypoint(model, flat, &h.node))
            .collect::<Result<_, _>>()
            .ok()?;
        let sources = resolve_source(model, &req.from).ok()?;
        Some(search(&flat.graph, &sources, &wps, req).0)
    }

    /// `edges` with each target named by `name`, sorted.
    fn named(
        edges: Vec<(usize, usize, usize)>,
        name: impl Fn(usize) -> String,
    ) -> Vec<(usize, String, usize)> {
        let mut named: Vec<_> = edges
            .into_iter()
            .map(|(port, to, to_port)| (port, name(to), to_port))
            .collect();
        named.sort();
        named
    }

    /// The controller's model and the oracle flattened from its modules
    /// have the same nodes and edges, and agree on every rule in `rules`;
    /// building the model memoizes no graph. Returns how many rules hold.
    ///
    /// Nodes are matched by name: the graph memo may number a module's
    /// nodes in another declaration order of its configuration.
    fn assert_agrees(c: &Controller, rules: &[String], label: &str) -> usize {
        let memoized = c.models.graphs_len();
        let model = c.network_model().unwrap();
        assert_eq!(c.models.graphs_len(), memoized, "{label}: graph memo grew");
        let flat = model.flattened(c.modules(), &c.registry).unwrap();
        assert_eq!(model.len(), flat.graph.len(), "{label}: node count");
        let mut names = HashSet::new();
        for n in 0..model.len() {
            let name = model.node_name(n);
            assert!(names.insert(name.clone()), "{label}: two nodes {name}");
            let oracle = flat.graph.node_index(&name);
            let oracle = oracle.unwrap_or_else(|_| panic!("{label}: no oracle node {name}"));
            assert_eq!(
                named(model.out_edges(n), |to| model.node_name(to).into_owned()),
                named(flat.graph.out_edges(oracle), |to| {
                    flat.graph.node_name(to).to_string()
                }),
                "{label}: edges of {name}"
            );
        }
        let mut holding = 0;
        for text in rules {
            let req = Requirement::parse(text).unwrap();
            let got = check_requirement(&model, &req).ok();
            let want = oracle_check(&model, &flat, &req);
            assert_eq!(got, want, "{label}: {text}");
            holding += usize::from(got == Some(true));
        }
        holding
    }

    /// A deterministic generator: xorshift64.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// The configuration of the re-used module `dup`, its elements
    /// declared in order 0 or 1; `src` sits in order 1 where order 0 has
    /// the rewriter, past the filter.
    fn dup(order: usize) -> String {
        let decls = [
            "src :: FromNetfront();",
            "f :: IPFilter(allow udp dst port 1500);",
            "rw :: IPRewriter(pattern - - 172.16.15.133 - 0 0);",
            "dst :: ToNetfront();",
        ];
        let order = [[0, 1, 2, 3], [1, 2, 0, 3]][order];
        let decls: Vec<&str> = order.iter().map(|&d| decls[d]).collect();
        format!("{} src -> f -> rw -> dst;", decls.join(" "))
    }

    /// Request `i` of the mix, of one of eight kinds in turn, and the
    /// tenant asking for it.
    fn request(rng: &mut Rng, i: usize) -> (&'static str, String) {
        let port = 1_024 + rng.below(30_000);
        match i % 8 {
            // `adm-reach`'s shape: satisfiable unless the port is off.
            0 | 1 => {
                let want = port + rng.below(2);
                let text = format!(
                    "module b{i}:\nFromNetfront() -> IPFilter(allow udp dst port {port}) \
                     -> IPRewriter(pattern - - 172.16.15.133 - 0 0) \
                     -> TimedUnqueue(120, 100) -> dst :: ToNetfront();\n\
                     reach from internet udp -> b{i}:dst:0 -> client dst port {want}"
                );
                ("tenant", text)
            }
            // A standing module under a name that is used again and again.
            2 => ("tenant", format!("module dup:\n{}", dup(1))),
            // A `$SELF` tunnel: two interfaces, checked where it lands.
            3 => {
                let text = format!(
                    "module tun{i}:\n\
                     FromNetfront(0) -> UDPTunnelEncap($SELF, 7000, 172.16.15.133, 7001) \
                     -> ToNetfront(1);\n\
                     FromNetfront(1) -> UDPTunnelDecap() -> ToNetfront(0);\n\
                     reach from internet -> tun{i}"
                );
                ("tenant", text)
            }
            // Stock modules, one carrying a requirement.
            4 => ("cdn", format!("stock dns{i}: geo-dns")),
            5 => {
                let text = format!(
                    "stock edge{i}: reverse-proxy\n\nreach from internet tcp dst port 80 -> edge{i}"
                );
                ("cdn", text)
            }
            // Opaque and transit stock for a third party: sandboxed.
            6 => {
                let kind = ["x86-vm", "explicit-proxy"][rng.below(2) as usize];
                let text = format!("stock vm{i}: {kind}\n\nreach from internet -> vm{i}");
                ("cdn", text)
            }
            // Two exits on one interface.
            _ => {
                let text = format!(
                    "module two{i}:\nsrc :: FromNetfront(0); \
                     c :: IPClassifier(udp dst port 9, -); \
                     a :: ToNetfront(0); b :: ToNetfront(0); src -> c; \
                     c[0] -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> a; \
                     c[1] -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> b;\n\
                     reach from internet udp -> two{i}:a:0 -> client dst port 9"
                );
                ("tenant", text)
            }
        }
    }

    /// Deploys the mix on `topo` with kills, a policy and ingress
    /// filtering between, holding the model to the oracle after every
    /// step.
    fn drive(label: &str, mut topo: Topology, seed: u64) {
        for node in &mut topo.nodes {
            if let innet_topology::NodeKind::Platform(spec) = &mut node.kind {
                spec.capacity = 4;
            }
        }
        let mut c = Controller::new(topo);
        let owner = Ipv4Addr::new(172, 16, 15, 133);
        c.register_client("tenant", RequesterClass::Client, vec![owner]);
        let third = Ipv4Addr::new(198, 51, 100, 1);
        c.register_client("cdn", RequesterClass::ThirdParty, vec![third]);
        let mut rng = Rng(seed);
        let (mut requests, mut deployed, mut sandboxed) = (0, 0, 0);
        let (mut checked, mut holding) = (0, 0);
        for i in 0..24 {
            let label = format!("{label} seed {seed} step {i}");
            if i == 12 {
                c.add_operator_policy(Requirement::parse("reach from client -> internet").unwrap());
            }
            if i % 8 == 4 {
                let on = !c.hardening().ingress_filtering;
                c.set_hardening(HardeningPolicy {
                    ingress_filtering: on,
                    ..c.hardening()
                });
            }
            if rng.below(4) == 0 && !c.modules().is_empty() {
                let victim = c.modules()[rng.below(c.modules().len() as u64) as usize].id;
                c.kill(victim).unwrap();
            } else {
                let (client, text) = request(&mut rng, requests);
                if text.starts_with("module dup:") {
                    // The same module declared in the other order came
                    // first: the graph memo serves the new one its graph.
                    let first = ClickConfig::parse(&dup(0)).unwrap();
                    c.models.graph(&first, &c.registry).unwrap();
                }
                let outcome = c.deploy(client, ClientRequest::parse(&text).unwrap());
                requests += 1;
                deployed += usize::from(outcome.is_ok());
                sandboxed += usize::from(outcome.is_ok_and(|r| r.sandboxed));
            }
            // The pool, every module by name, and every element of the
            // newest module and of one module drawn at random.
            let mut rules: Vec<String> = POOL.iter().map(|r| r.to_string()).collect();
            let modules = c.modules();
            rules.extend(
                modules
                    .iter()
                    .map(|m| format!("reach from internet -> {}", m.name)),
            );
            if let Some(newest) = modules.last() {
                let drawn = &modules[rng.below(modules.len() as u64) as usize];
                for m in [newest, drawn] {
                    for e in &m.config.elements {
                        let (m, e) = (&m.name, &e.name);
                        rules.push(format!("reach from internet udp -> {m}:{e}:0 -> client"));
                    }
                }
            }
            checked += rules.len();
            holding += assert_agrees(&c, &rules, &label);
        }
        println!("{label}: {deployed} of {requests} deployed, {sandboxed} sandboxed, {holding} of {checked} rules hold");
        assert!(
            deployed >= 8 && sandboxed > 0,
            "{label}: too few deploys landed"
        );
        assert!(
            holding > 0 && holding < checked,
            "{label}: the rules do not discriminate"
        );
    }

    #[test]
    fn stitched_model_agrees_with_the_flattened_oracle() {
        let seed = 0x5eed_2015_0421;
        println!("seed {seed}");
        drive("figure3", Topology::figure3(), seed);
        let params = innet_topology::GenerateParams {
            middleboxes: 7,
            platform_every: 2,
            seed,
        };
        drive("generate{7, 2}", innet_topology::generate(&params), seed);
    }

    #[test]
    fn a_module_declared_in_another_order_than_its_memoized_graph_is_entered_at_its_netfronts() {
        let registry = Registry::standard();
        let topo = Topology::figure3();
        let module = |decls: String| InstalledModule {
            id: 1,
            name: "m".to_string(),
            platform: topo.index_of("platform3").unwrap(),
            addr: Ipv4Addr::new(203, 0, 113, 10),
            config: ClickConfig::parse(&format!("{decls} src -> f -> rw -> dst;")).unwrap(),
            sandboxed: false,
            owner: "mobile-7".to_string(),
        };
        let filter = "f :: IPFilter(allow udp dst port 1500);";
        let rewriter = "rw :: IPRewriter(pattern - - 172.16.15.133 - 0 0);";
        let first = module(format!(
            "src :: FromNetfront(); {filter} {rewriter} dst :: ToNetfront();"
        ));
        // `src` where the first order has the rewriter, past the filter.
        let reordered = module(format!(
            "{filter} {rewriter} src :: FromNetfront(); dst :: ToNetfront();"
        ));
        let memos = innet_symnet::ModelCache::default();
        memos.graph(&first.config, &registry).unwrap();
        let model = NetworkModel::topology(&topo, &registry).unwrap();
        let model = model
            .with_modules([&reordered], |cfg| memos.graph(cfg, &registry))
            .unwrap();
        let flat = model
            .flattened(std::slice::from_ref(&reordered), &registry)
            .unwrap();

        let ingress = model.module_ingress("m").unwrap();
        let fan = named(model.out_edges(ingress), |to| {
            model.node_name(to).into_owned()
        });
        assert_eq!(fan, [(0, "platform3/m#1/src".to_string(), 0)]);
        let oracle_ingress = flat.module_ingress["m"];
        let oracle_fan = named(flat.graph.out_edges(oracle_ingress), |to| {
            flat.graph.node_name(to).to_string()
        });
        assert_eq!(fan, oracle_fan);
        for (text, holds) in [
            ("reach from internet tcp -> m:dst:0", false),
            (
                "reach from internet udp -> m:dst:0 -> client dst port 1500",
                true,
            ),
        ] {
            let req = Requirement::parse(text).unwrap();
            assert_eq!(check_requirement(&model, &req).ok(), Some(holds), "{text}");
            assert_eq!(oracle_check(&model, &flat, &req), Some(holds), "{text}");
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
