//! The network model: the operator's topology with the installed
//! processing modules on it, as one symbolic network that requirement
//! verification walks.
//!
//! This is the "compile" phase of the controller (Figure 10 reports its
//! cost separately from the checking phase). A model is assembled from
//! three parts, all held by reference:
//!
//! * **The topology part** (`NetworkModel::topology`): every router
//!   becomes an LPM branching model, every operator middlebox is flattened
//!   element by element, and every platform gets an empty vswitch demux
//!   node and an uplink. It depends on nothing but the topology and the
//!   element registry, and a controller's topology is fixed for its
//!   lifetime, so the controller builds it once and every model shares it
//!   (`Arc`).
//! * **One segment per hosted module** (`NetworkModel::with_modules`):
//!   the module's wired `SymGraph`, shared, its nodes numbered from an
//!   offset past every node before it, then one ingress fan node. The
//!   controller takes the graph from its `ModelCache` when the memo holds
//!   it, and builds one it does not keep otherwise, so an unsandboxed
//!   Click candidate's segment is the graph the admission security check
//!   walked a moment earlier, and building models never grows the memo.
//! * **Per hosting platform, the glue**: a demux with one `dst host
//!   <addr>` rule per module, mirroring the OpenFlow rules the controller
//!   installs at runtime. Demux output `i` feeds module `i`'s fan, the fan
//!   feeds each of the module's `FromNetfront`s in declaration order, and
//!   whatever the module emits (its `ToNetfront`s) continues at the
//!   platform uplink.
//!
//! The symbolic engine walks the model through [`Wiring`], dispatching on
//! the node number, so adding modules copies no graph, builds no element
//! model and formats no name. Node names and edges are those of the one
//! graph that flattening every module into a copy of the topology part
//! gives; the tests keep that flattening as the oracle. So are node
//! numbers, except that a memoized module graph numbers its nodes in the
//! declaration order of the first configuration with its canonical text,
//! which may differ from the module's own: its netfronts and way-points
//! are found by name. Names are rendered only on request
//! ([`NetworkModel::node_name`]).
//!
//! [`compile`] builds a model from scratch.

use std::borrow::Cow;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use innet_click::{class_info, ClickConfig, Netfront, Registry};
use innet_packet::{
    pattern::{Atom, Dir, PatternExpr},
    Cidr,
};
use innet_symnet::{
    build_sym_graph, model_for, DropModel, EgressModel, IdentityModel, IpClassifierModel,
    SymElement, SymError, SymGraph, SymOut, SymPacket, Wiring,
};
use innet_topology::{NodeId, NodeKind, Topology};

/// The output a module's egress is moved to: wired to the hosting
/// platform's uplink.
const UPLINK: usize = usize::MAX;

/// A processing module the controller has committed to a platform.
#[derive(Debug, Clone)]
pub struct InstalledModule {
    /// Controller-unique id.
    pub id: u64,
    /// Unique module name (referenced by `module:element:port`
    /// way-points).
    pub name: String,
    /// Platform hosting the module.
    pub platform: NodeId,
    /// Address assigned to the module.
    pub addr: Ipv4Addr,
    /// The (possibly sandbox-wrapped) configuration that runs.
    pub config: ClickConfig,
    /// Whether a sandbox was injected.
    pub sandboxed: bool,
    /// Owner (client id).
    pub owner: String,
}

/// The operator's network with no module installed.
pub(crate) struct TopologyPart {
    /// Routers, flattened middleboxes, edges and platforms, wired.
    pub(crate) graph: SymGraph,
    /// Number of topology nodes.
    nodes: usize,
    /// Injection node for Internet-originated traffic.
    pub(crate) internet_src: usize,
    /// Egress sink for traffic leaving toward the Internet.
    pub(crate) internet_dst: usize,
    /// Per client subnet: (subnet, injection node, egress sink).
    pub(crate) client_edges: Vec<(Cidr, usize, usize)>,
    /// Topology middlebox name → its entry (`FromNetfront`) nodes.
    pub(crate) middlebox_entries: HashMap<String, Vec<usize>>,
    /// Operator-internal prefixes (platform pools + client subnets).
    pub(crate) internal_prefixes: Vec<Cidr>,
    /// Every platform, in topology order.
    pub(crate) platforms: Vec<Platform>,
    /// Per graph node, the platform (index into `platforms`) whose demux
    /// it is.
    demux_of: Vec<Option<usize>>,
}

/// Where a platform sits in the topology part.
pub(crate) struct Platform {
    /// Its topology node.
    node: NodeId,
    /// Its topology name.
    pub(crate) name: String,
    /// Its vswitch demux node.
    pub(crate) switch: usize,
    /// Its uplink node.
    uplink: usize,
}

/// A hosting platform's demux: one rule per module it hosts.
struct Demux {
    rules: IpClassifierModel,
    /// The segment output 0 feeds; output `i` feeds the `i`th after it.
    first: usize,
    /// Number of modules hosted.
    count: usize,
}

/// One hosted module in a [`NetworkModel`].
pub(crate) struct Segment {
    /// The module's wired graph, shared.
    pub(crate) graph: Arc<SymGraph>,
    /// Model node number of the graph's node 0. The ingress fan is the
    /// node after the graph's last.
    offset: usize,
    /// Module name.
    name: String,
    /// Module id.
    id: u64,
    /// Hosting platform (index into the topology part's `platforms`).
    platform: usize,
    /// Graph nodes of the `FromNetfront`s, in the module configuration's
    /// declaration order: fan output `i` feeds the `i`th.
    entries: Vec<usize>,
    /// Graph nodes of the `ToNetfront`s.
    exits: Vec<usize>,
}

impl Segment {
    fn ingress(&self) -> usize {
        self.offset + self.graph.len()
    }
}

/// The compiled network model plus the name maps requirement
/// verification needs: the shared topology part with modules on it.
pub struct NetworkModel {
    pub(crate) topology: Arc<TopologyPart>,
    /// Per platform, as the topology part lists them: its demux, or
    /// `None` when it hosts no module and the empty demux drops all.
    demux: Vec<Option<Demux>>,
    /// The hosted modules, in node order.
    pub(crate) segments: Vec<Segment>,
    /// Number of nodes.
    len: usize,
    /// When set, Internet-sourced symbolic traffic is constrained to
    /// sources *outside* the internal prefixes (§7 ingress filtering).
    pub ingress_filtering: bool,
}

fn iface_of(args: &[String]) -> u16 {
    args.first()
        .and_then(|a| a.trim().parse().ok())
        .unwrap_or(0)
}

/// Where flattened configs expose their boundary, in declaration order:
/// `(iface, node)` per netfront. Netfronts may share an interface; every
/// one is kept.
struct FlatConfig {
    /// Nodes accepting external delivery on input 0.
    entries: Vec<(u16, usize)>,
    /// Nodes emitting external transmissions on output 0.
    exits: Vec<(u16, usize)>,
}

/// Flattens `cfg` into `graph` with names prefixed `prefix/`.
/// `FromNetfront(i)`/`ToNetfront(i)` become identity boundary nodes
/// recorded in the returned [`FlatConfig`].
fn flatten_config(
    graph: &mut SymGraph,
    prefix: &str,
    cfg: &ClickConfig,
    registry: &Registry,
) -> Result<FlatConfig, SymError> {
    let mut flat = FlatConfig {
        entries: Vec::new(),
        exits: Vec::new(),
    };
    for decl in &cfg.elements {
        let name = format!("{prefix}/{}", decl.name);
        match class_info(&decl.class).and_then(|c| c.netfront) {
            Some(Netfront::Entry) => {
                let idx = graph.add_node(&name, Box::new(IdentityModel))?;
                flat.entries.push((iface_of(&decl.args), idx));
            }
            Some(Netfront::Exit) => {
                let idx = graph.add_node(&name, Box::new(IdentityModel))?;
                flat.exits.push((iface_of(&decl.args), idx));
            }
            None => {
                graph.add_shared(&name, model_for(&decl.class, &decl.args, registry)?.model)?;
            }
        }
    }
    for c in &cfg.connections {
        graph.connect_names(
            &format!("{prefix}/{}", c.from.element),
            c.from.port,
            &format!("{prefix}/{}", c.to.element),
            c.to.port,
        )?;
    }
    Ok(flat)
}

/// Compiles the topology and installed modules into a [`NetworkModel`]:
/// the topology part, then the modules on it, each module's graph built
/// afresh. `modules` is anything that yields them by reference, in
/// installation order.
pub fn compile<'a>(
    topo: &Topology,
    modules: impl IntoIterator<Item = &'a InstalledModule>,
    registry: &Registry,
) -> Result<NetworkModel, SymError> {
    NetworkModel::topology(topo, registry)?
        .with_modules(modules, |cfg| build_sym_graph(cfg, registry).map(Arc::new))
}

impl NetworkModel {
    /// The model of `topo` with no module installed: edges, routers,
    /// flattened middleboxes, and per platform an empty demux (all
    /// traffic entering it drops) and an uplink. A pure function of its
    /// arguments.
    pub(crate) fn topology(topo: &Topology, registry: &Registry) -> Result<NetworkModel, SymError> {
        // Every node's link ports, in one pass over the links.
        let mut ports: Vec<Vec<usize>> = vec![Vec::new(); topo.nodes.len()];
        for l in &topo.links {
            for (node, port) in [(l.from, l.from_port), (l.to, l.to_port)] {
                if let Some(used) = ports.get_mut(node) {
                    used.push(port);
                }
            }
        }
        for used in &mut ports {
            used.sort_unstable();
            used.dedup();
        }

        let mut graph = SymGraph::new();
        // (topo node, port) → the (sym node, sym out port)s transmitting
        // on it, and the (sym node, in port) receiving from it.
        let mut out_map: HashMap<(NodeId, usize), Vec<(usize, usize)>> = HashMap::new();
        let mut in_map: HashMap<(NodeId, usize), (usize, usize)> = HashMap::new();

        let mut internet_src = None;
        let mut internet_dst = None;
        let mut client_edges = Vec::new();
        let mut internal_prefixes = Vec::new();
        let mut middlebox_entries = HashMap::new();
        let mut platforms = Vec::new();

        for (id, node) in topo.nodes.iter().enumerate() {
            match &node.kind {
                NodeKind::Internet => {
                    let src =
                        graph.add_node(format!("{}.src", node.name), Box::new(IdentityModel))?;
                    let dst = graph.add_node(
                        format!("{}.dst", node.name),
                        Box::new(EgressModel(id as u16)),
                    )?;
                    internet_src = Some(src);
                    internet_dst = Some(dst);
                    for &p in &ports[id] {
                        out_map.insert((id, p), vec![(src, 0)]);
                        in_map.insert((id, p), (dst, 0));
                    }
                }
                NodeKind::ClientSubnet(cidr) => {
                    internal_prefixes.push(*cidr);
                    let src =
                        graph.add_node(format!("{}.src", node.name), Box::new(IdentityModel))?;
                    let dst = graph.add_node(
                        format!("{}.dst", node.name),
                        Box::new(EgressModel(id as u16)),
                    )?;
                    client_edges.push((*cidr, src, dst));
                    for &p in &ports[id] {
                        out_map.insert((id, p), vec![(src, 0)]);
                        in_map.insert((id, p), (dst, 0));
                    }
                }
                NodeKind::Router(routes) => {
                    let args: Vec<String> =
                        routes.iter().map(|(c, p)| format!("{c} {p}")).collect();
                    let lookup = model_for("StaticIPLookup", &args, registry)?.model;
                    let idx = graph.add_shared(&node.name, lookup)?;
                    for &p in &ports[id] {
                        out_map.insert((id, p), vec![(idx, p)]);
                        in_map.insert((id, p), (idx, 0));
                    }
                }
                NodeKind::Middlebox(cfg) => {
                    let flat = flatten_config(&mut graph, &node.name, cfg, registry)?;
                    let entries = flat.entries.iter().map(|&(_, entry)| entry).collect();
                    middlebox_entries.insert(node.name.clone(), entries);
                    // A link delivers to one element per interface, the
                    // last declared, as the runtime's interface table
                    // keeps it; every element transmitting on an
                    // interface reaches its link.
                    for (iface, entry) in flat.entries {
                        in_map.insert((id, iface as usize), (entry, 0));
                    }
                    for (iface, exit) in flat.exits {
                        let senders = out_map.entry((id, iface as usize)).or_default();
                        senders.push((exit, 0));
                    }
                }
                NodeKind::Platform(spec) => {
                    internal_prefixes.push(spec.addr_pool);
                    // The vswitch demux; `with_modules` gives it one rule
                    // per module.
                    let switch =
                        graph.add_node(format!("{}/switch", node.name), Box::new(DropModel))?;
                    let uplink =
                        graph.add_node(format!("{}/out", node.name), Box::new(IdentityModel))?;
                    platforms.push(Platform {
                        node: id,
                        name: node.name.clone(),
                        switch,
                        uplink,
                    });
                    for &p in &ports[id] {
                        in_map.insert((id, p), (switch, 0));
                        out_map.insert((id, p), vec![(uplink, 0)]);
                    }
                }
            }
        }

        // Wire topology links.
        for l in &topo.links {
            let Some(senders) = out_map.get(&(l.from, l.from_port)) else {
                continue;
            };
            let Some(&(tn, tp)) = in_map.get(&(l.to, l.to_port)) else {
                continue;
            };
            for &(sn, sp) in senders {
                graph.connect(sn, sp, tn, tp);
            }
        }

        let mut demux_of = vec![None; graph.len()];
        for (i, p) in platforms.iter().enumerate() {
            demux_of[p.switch] = Some(i);
        }
        let no_internet = || SymError::Config("topology has no internet edge".to_string());
        let topology = TopologyPart {
            nodes: topo.nodes.len(),
            internet_src: internet_src.ok_or_else(no_internet)?,
            internet_dst: internet_dst.ok_or_else(no_internet)?,
            client_edges,
            middlebox_entries,
            internal_prefixes,
            platforms,
            demux_of,
            graph,
        };
        Ok(NetworkModel {
            len: topology.graph.len(),
            demux: topology.platforms.iter().map(|_| None).collect(),
            topology: Arc::new(topology),
            segments: Vec::new(),
            ingress_filtering: false,
        })
    }

    /// This model's topology part, shared, with `modules` installed: on
    /// each hosting platform a demux with one `dst host <addr>` rule per
    /// module, and behind it one segment per module holding the graph
    /// `graph_of` gives for its configuration. A module on a node that
    /// is no platform is on no platform, and left out.
    ///
    /// `graph_of` may number a configuration's nodes in the declaration
    /// order of another configuration with the same canonical text, as
    /// the `ModelCache` does when that one came first: a segment finds
    /// the configuration's netfronts in its graph by name.
    pub(crate) fn with_modules<'a>(
        &self,
        modules: impl IntoIterator<Item = &'a InstalledModule>,
        mut graph_of: impl FnMut(&ClickConfig) -> Result<Arc<SymGraph>, SymError>,
    ) -> Result<NetworkModel, SymError> {
        let topology = Arc::clone(&self.topology);
        let mut hosted: Vec<Vec<&InstalledModule>> = vec![Vec::new(); topology.nodes];
        for m in modules {
            if let Some(local) = hosted.get_mut(m.platform) {
                local.push(m);
            }
        }

        let mut demux = Vec::with_capacity(topology.platforms.len());
        let mut segments = Vec::new();
        let mut len = topology.graph.len();
        for (platform, p) in topology.platforms.iter().enumerate() {
            let local = &hosted[p.node];
            if local.is_empty() {
                demux.push(None);
                continue;
            }
            let dst_host =
                |m: &&InstalledModule| PatternExpr::Atom(Atom::Net(Dir::Dst, Cidr::host(m.addr)));
            demux.push(Some(Demux {
                rules: IpClassifierModel::new(local.iter().map(dst_host).collect()),
                first: segments.len(),
                count: local.len(),
            }));
            for m in local {
                let graph = graph_of(&m.config)?;
                debug_assert_eq!(graph.len(), m.config.elements.len());
                // Found by name, in this configuration's order: the graph
                // may number its nodes in another's.
                let netfronts = |role| -> Result<Vec<usize>, SymError> {
                    let decls = m.config.elements.iter();
                    decls
                        .filter(|d| class_info(&d.class).and_then(|c| c.netfront) == Some(role))
                        .map(|d| graph.node_index(&d.name))
                        .collect()
                };
                let entries = netfronts(Netfront::Entry)?;
                let exits = netfronts(Netfront::Exit)?;
                let segment = Segment {
                    offset: len,
                    name: m.name.clone(),
                    id: m.id,
                    platform,
                    entries,
                    exits,
                    graph,
                };
                len = segment.ingress() + 1;
                segments.push(segment);
            }
        }
        Ok(NetworkModel {
            topology,
            demux,
            segments,
            len,
            ingress_filtering: self.ingress_filtering,
        })
    }

    fn demux_at(&self, node: usize) -> Option<&Demux> {
        let platform = (*self.topology.demux_of.get(node)?)?;
        self.demux[platform].as_ref()
    }

    /// The segment holding model node `node`, which is past the topology
    /// part.
    fn segment_of(&self, node: usize) -> &Segment {
        let after = self.segments.partition_point(|s| s.offset <= node);
        &self.segments[after - 1]
    }

    /// The ingress fan of the module called `name`: the later instance's,
    /// when two share the name.
    pub(crate) fn module_ingress(&self, name: &str) -> Option<usize> {
        let mut named = self.segments.iter().rev().filter(|s| s.name == name);
        named.next().map(Segment::ingress)
    }

    /// The node of `element` in the module called `module`: the later
    /// instance's that has one, when two share the name.
    pub(crate) fn module_element(&self, module: &str, element: &str) -> Option<usize> {
        let mut named = self.segments.iter().rev().filter(|s| s.name == module);
        named.find_map(|s| Some(s.offset + s.graph.node_index(element).ok()?))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the model has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Name of node `node`: the topology part's as built, and
    /// `<platform>/<module>#<id>/<element>` for a module's element (its
    /// ingress fan: `…/__ingress`), rendered on request.
    pub fn node_name(&self, node: usize) -> Cow<'_, str> {
        let topo = &self.topology;
        if node < topo.graph.len() {
            return Cow::Borrowed(topo.graph.node_name(node));
        }
        let s = self.segment_of(node);
        let local = node - s.offset;
        let element = match local < s.graph.len() {
            true => s.graph.node_name(local),
            false => "__ingress",
        };
        let platform = &topo.platforms[s.platform].name;
        Cow::Owned(format!("{platform}/{}#{}/{element}", s.name, s.id))
    }

    /// Every edge leaving `node`, as `(from_port, to, to_port)`, sorted.
    /// A module's `ToNetfront` lists its way on to the uplink as output 0.
    pub fn out_edges(&self, node: usize) -> Vec<(usize, usize, usize)> {
        let topo = &self.topology;
        if node < topo.graph.len() {
            return match self.demux_at(node) {
                Some(d) => (0..d.count)
                    .map(|i| (i, self.segments[d.first + i].ingress(), 0))
                    .collect(),
                None => topo.graph.out_edges(node),
            };
        }
        let s = self.segment_of(node);
        let local = node - s.offset;
        if local == s.graph.len() {
            let fan = s.entries.iter().enumerate();
            return fan.map(|(i, &e)| (i, s.offset + e, 0)).collect();
        }
        let mut edges = s.graph.out_edges(local);
        for e in &mut edges {
            e.1 += s.offset;
        }
        if s.exits.contains(&local) {
            edges.push((0, topo.platforms[s.platform].uplink, 0));
            edges.sort_unstable();
        }
        edges
    }
}

impl Wiring for NetworkModel {
    fn exec(&self, node: usize, port: usize, pkt: SymPacket) -> Vec<SymOut> {
        let topo = &self.topology.graph;
        if node < topo.len() {
            return match self.demux_at(node) {
                Some(d) => d.rules.exec(port, pkt),
                None => topo.exec(node, port, pkt),
            };
        }
        let s = self.segment_of(node);
        let local = node - s.offset;
        if local == s.graph.len() {
            // The ingress fan: every interface gets the delivery.
            let fan = 0..s.entries.len();
            return fan.map(|i| SymOut::Port(i, pkt.clone())).collect();
        }
        let outs = s.graph.exec(local, port, pkt);
        let to_uplink = |out| match out {
            SymOut::Egress(_, branch) => SymOut::Port(UPLINK, branch),
            out => out,
        };
        outs.into_iter().map(to_uplink).collect()
    }

    fn next(&self, node: usize, out_port: usize) -> Option<(usize, usize)> {
        let topo = &self.topology.graph;
        if node < topo.len() {
            return match self.demux_at(node) {
                Some(d) if out_port < d.count => {
                    Some((self.segments[d.first + out_port].ingress(), 0))
                }
                Some(_) => None,
                None => topo.edge_target(node, out_port),
            };
        }
        let s = self.segment_of(node);
        let local = node - s.offset;
        if local == s.graph.len() {
            return s.entries.get(out_port).map(|&e| (s.offset + e, 0));
        }
        if out_port == UPLINK {
            return Some((self.topology.platforms[s.platform].uplink, 0));
        }
        let (to, to_port) = s.graph.edge_target(local, out_port)?;
        Some((s.offset + to, to_port))
    }
}

/// The construction the segments replaced, kept as their oracle: one
/// graph holding a copy of the topology part with every module flattened
/// into it element by element, and the name-keyed way-point maps (on a
/// name clash the later instance wins).
#[cfg(test)]
pub(crate) struct Flattened {
    pub(crate) graph: SymGraph,
    pub(crate) module_elements: HashMap<(String, String), usize>,
    pub(crate) module_ingress: HashMap<String, usize>,
}

#[cfg(test)]
impl NetworkModel {
    /// [`Flattened`]: this model's topology part with `modules` on it.
    pub(crate) fn flattened(
        &self,
        modules: &[InstalledModule],
        registry: &Registry,
    ) -> Result<Flattened, SymError> {
        use innet_symnet::AnyOutputModel;

        let mut flat = Flattened {
            graph: self.topology.graph.clone(),
            module_elements: HashMap::new(),
            module_ingress: HashMap::new(),
        };
        let graph = &mut flat.graph;
        for p in &self.topology.platforms {
            let local: Vec<&InstalledModule> =
                modules.iter().filter(|m| m.platform == p.node).collect();
            if local.is_empty() {
                continue;
            }
            let rules: Vec<String> = local
                .iter()
                .map(|m| format!("dst host {}", m.addr))
                .collect();
            graph.set_model(p.switch, model_for("IPClassifier", &rules, registry)?.model);
            for (mi, module) in local.iter().enumerate() {
                let prefix = format!("{}/{}#{}", p.name, module.name, module.id);
                let ports = flatten_config(graph, &prefix, &module.config, registry)?;
                for decl in &module.config.elements {
                    let idx = graph.node_index(&format!("{prefix}/{}", decl.name))?;
                    let key = (module.name.clone(), decl.name.clone());
                    flat.module_elements.insert(key, idx);
                }
                // Fan external deliveries to every module interface.
                let ingress = graph.add_node(
                    format!("{prefix}/__ingress"),
                    Box::new(AnyOutputModel {
                        n: ports.entries.len().max(1),
                    }),
                )?;
                flat.module_ingress.insert(module.name.clone(), ingress);
                graph.connect(p.switch, mi, ingress, 0);
                for (fan, &(_, entry)) in ports.entries.iter().enumerate() {
                    graph.connect(ingress, fan, entry, 0);
                }
                // Every module exit feeds the platform uplink.
                for &(_, exit) in &ports.exits {
                    graph.connect(exit, 0, p.uplink, 0);
                }
            }
        }
        Ok(flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use innet_symnet::{explore, ExecOptions, Field};

    fn module(name: &str, config: &str) -> InstalledModule {
        let topo = Topology::figure3();
        InstalledModule {
            id: 1,
            name: name.to_string(),
            platform: topo.index_of("platform3").unwrap(),
            addr: Ipv4Addr::new(203, 0, 113, 10),
            config: ClickConfig::parse(config).unwrap(),
            sandboxed: false,
            owner: "c1".to_string(),
        }
    }

    #[test]
    fn compiles_figure3() {
        let topo = Topology::figure3();
        let model = compile(&topo, &[], &Registry::standard()).unwrap();
        assert!(model.len() > 10);
        assert_eq!(model.topology.client_edges.len(), 1);
        assert_eq!(model.topology.platforms.len(), 3);
        assert!(model
            .topology
            .middlebox_entries
            .contains_key("HTTPOptimizer"));
    }

    #[test]
    fn traffic_reaches_installed_module() {
        let topo = Topology::figure3();
        let module = module(
            "batcher",
            "FromNetfront() -> IPFilter(allow udp dst port 1500) \
             -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();",
        );
        let model = compile(&topo, &[module], &Registry::standard()).unwrap();
        let res = explore(
            &model,
            model.topology.internet_src,
            0,
            SymPacket::unconstrained(),
            &ExecOptions::default(),
        );
        // Some flow must exit at the client edge with the rewritten
        // destination.
        let client_sink_iface = topo.index_of("clients").unwrap() as u16;
        let delivered: Vec<_> = res
            .egress
            .iter()
            .filter(|(iface, flow)| {
                *iface == client_sink_iface
                    && flow.provably_eq(
                        Field::IpDst,
                        u32::from(Ipv4Addr::new(172, 16, 15, 133)) as u64,
                    )
            })
            .collect();
        assert!(
            !delivered.is_empty(),
            "internet UDP flow reaches the client via the module; egress count = {}",
            res.egress.len()
        );
    }

    #[test]
    fn empty_platform_blackholes() {
        let topo = Topology::figure3();
        let model = compile(&topo, &[], &Registry::standard()).unwrap();
        let res = explore(
            &model,
            model.topology.internet_src,
            0,
            SymPacket::unconstrained(),
            &ExecOptions::default(),
        );
        // Without modules, nothing can come back out of a platform: all
        // egress flows exit at the internet or client edges only.
        for (iface, _) in &res.egress {
            let name = topo.node(*iface as usize).name.as_str();
            assert!(name == "internet" || name == "clients", "egress at {name}");
        }
    }

    #[test]
    fn the_demux_rules_are_the_parsed_ones() {
        let addr = Ipv4Addr::new(203, 0, 113, 10);
        let parsed: PatternExpr = format!("dst host {addr}").parse().unwrap();
        assert_eq!(
            parsed,
            PatternExpr::Atom(Atom::Net(Dir::Dst, Cidr::host(addr)))
        );
    }

    #[test]
    fn every_netfront_is_wired_and_the_fan_follows_declaration_order() {
        // Two interfaces, declared 1 before 0, and two exits on one.
        let module = module(
            "m",
            "late :: FromNetfront(1); early :: FromNetfront(0); \
             a :: ToNetfront(0); b :: ToNetfront(0); late -> a; early -> b;",
        );
        let registry = Registry::standard();
        let model = compile(&Topology::figure3(), [&module], &registry).unwrap();
        let s = &model.segments[0];
        let uplink = model.topology.platforms[s.platform].uplink;
        let name = |n: usize| model.node_name(n).into_owned();
        let fan: Vec<String> = model
            .out_edges(s.ingress())
            .iter()
            .map(|e| name(e.1))
            .collect();
        assert_eq!(fan, ["platform3/m#1/late", "platform3/m#1/early"]);
        for exit in ["a", "b"] {
            let node = model.module_element("m", exit).unwrap();
            assert_eq!(model.out_edges(node), [(0, uplink, 0)], "{exit}");
            assert_eq!(model.next(node, UPLINK), Some((uplink, 0)));
        }

        // The oracle wires the same.
        let flat = model.flattened(&[module], &registry).unwrap();
        for n in 0..model.len() {
            assert_eq!(model.out_edges(n), flat.graph.out_edges(n), "{}", name(n));
        }
    }
}
