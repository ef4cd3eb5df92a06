//! Compiling a topology plus installed processing modules into one flat
//! symbolic graph.
//!
//! This is the "compile" phase of the controller (Figure 10 reports its
//! cost separately from the checking phase), in two parts:
//!
//! * **The topology model** (`NetworkModel::topology`): every router
//!   becomes an LPM branching model, every operator middlebox is flattened
//!   element by element, and every platform gets an empty vswitch demux
//!   node and an uplink. It depends on nothing but the topology and the
//!   element registry, and a controller's topology is fixed for its
//!   lifetime, so the controller builds it once and keeps it.
//! * **The modules on it** (`NetworkModel::with_modules`): a copy of the
//!   topology model — its node models are shared (`Arc`), so the copy
//!   costs names and edges — with every installed module flattened onto
//!   its platform and the platform's demux steering traffic by module
//!   address, mirroring the OpenFlow rules the controller installs at
//!   runtime.
//!
//! [`compile`] is the two in sequence.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use innet_click::{ClickConfig, Registry};
use innet_packet::Cidr;
use innet_symnet::{
    model_for, AnyOutputModel, DropModel, EgressModel, IdentityModel, SymError, SymGraph,
};
use innet_topology::{NodeId, NodeKind, Topology};

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

/// The compiled network model plus the name maps requirement verification
/// needs.
#[derive(Clone)]
pub struct NetworkModel {
    /// The flat symbolic graph.
    pub graph: SymGraph,
    /// Injection node for Internet-originated traffic.
    pub internet_src: usize,
    /// Egress sink for traffic leaving toward the Internet.
    pub internet_dst: usize,
    /// Per client subnet: (subnet, injection node, egress sink).
    pub client_edges: Vec<(Cidr, usize, usize)>,
    /// `(module name, element name)` → graph node.
    pub module_elements: HashMap<(String, String), usize>,
    /// Topology middlebox name → its entry (FromNetfront) nodes.
    pub middlebox_entries: HashMap<String, Vec<usize>>,
    /// Platform name → its vswitch demux node.
    pub platform_switches: HashMap<String, usize>,
    /// Module name → its ingress fan node.
    pub module_ingress: HashMap<String, usize>,
    /// Operator-internal prefixes (platform pools + client subnets).
    pub internal_prefixes: Vec<Cidr>,
    /// When set, Internet-sourced symbolic traffic is constrained to
    /// sources *outside* the internal prefixes (§7 ingress filtering).
    pub ingress_filtering: bool,
    /// Per platform, in topology order: (topology node, demux node,
    /// uplink node) — where `with_modules` attaches modules.
    platforms: Vec<(NodeId, usize, usize)>,
}

fn iface_of(args: &[String]) -> u16 {
    args.first()
        .and_then(|a| a.trim().parse().ok())
        .unwrap_or(0)
}

/// Where flattened configs expose their boundary ports.
struct FlatConfig {
    /// iface → (node, in port 0) accepting external delivery.
    entries: HashMap<u16, usize>,
    /// iface → (node emitting on out port 0) for external transmission.
    exits: HashMap<u16, usize>,
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
        entries: HashMap::new(),
        exits: HashMap::new(),
    };
    for decl in &cfg.elements {
        let name = format!("{prefix}/{}", decl.name);
        match decl.class.as_str() {
            "FromNetfront" | "FromDevice" => {
                let idx = graph.add_node(&name, Box::new(IdentityModel("FromNetfront")))?;
                flat.entries.insert(iface_of(&decl.args), idx);
            }
            "ToNetfront" | "ToDevice" => {
                let idx = graph.add_node(&name, Box::new(IdentityModel("ToNetfront")))?;
                flat.exits.insert(iface_of(&decl.args), idx);
            }
            other => {
                graph.add_node(&name, model_for(other, &decl.args, registry)?)?;
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
/// the topology model, then the modules on it. `modules` is anything that
/// yields them by reference, in installation order — a slice, or the
/// installed set chained with a candidate the placement stage pretends
/// is there, without copying either.
pub fn compile<'a>(
    topo: &Topology,
    modules: impl IntoIterator<Item = &'a InstalledModule>,
    registry: &Registry,
) -> Result<NetworkModel, SymError> {
    NetworkModel::topology(topo, registry)?.with_modules(topo, modules, registry)
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
        // (topo node, port) → (sym node, sym out port) and (sym node, in port).
        let mut out_map: HashMap<(NodeId, usize), (usize, usize)> = HashMap::new();
        let mut in_map: HashMap<(NodeId, usize), (usize, usize)> = HashMap::new();

        let mut internet_src = None;
        let mut internet_dst = None;
        let mut client_edges = Vec::new();
        let mut internal_prefixes = Vec::new();
        let mut middlebox_entries = HashMap::new();
        let mut platform_switches = HashMap::new();
        let mut platforms = Vec::new();

        for (id, node) in topo.nodes.iter().enumerate() {
            match &node.kind {
                NodeKind::Internet => {
                    let src = graph.add_node(
                        format!("{}.src", node.name),
                        Box::new(IdentityModel("Edge")),
                    )?;
                    let dst = graph.add_node(
                        format!("{}.dst", node.name),
                        Box::new(EgressModel(id as u16)),
                    )?;
                    internet_src = Some(src);
                    internet_dst = Some(dst);
                    for &p in &ports[id] {
                        out_map.insert((id, p), (src, 0));
                        in_map.insert((id, p), (dst, 0));
                    }
                }
                NodeKind::ClientSubnet(cidr) => {
                    internal_prefixes.push(*cidr);
                    let src = graph.add_node(
                        format!("{}.src", node.name),
                        Box::new(IdentityModel("Edge")),
                    )?;
                    let dst = graph.add_node(
                        format!("{}.dst", node.name),
                        Box::new(EgressModel(id as u16)),
                    )?;
                    client_edges.push((*cidr, src, dst));
                    for &p in &ports[id] {
                        out_map.insert((id, p), (src, 0));
                        in_map.insert((id, p), (dst, 0));
                    }
                }
                NodeKind::Router(routes) => {
                    let args: Vec<String> =
                        routes.iter().map(|(c, p)| format!("{c} {p}")).collect();
                    let idx = graph
                        .add_node(&node.name, model_for("StaticIPLookup", &args, registry)?)?;
                    for &p in &ports[id] {
                        out_map.insert((id, p), (idx, p));
                        in_map.insert((id, p), (idx, 0));
                    }
                }
                NodeKind::Middlebox(cfg) => {
                    let flat = flatten_config(&mut graph, &node.name, cfg, registry)?;
                    middlebox_entries
                        .insert(node.name.clone(), flat.entries.values().copied().collect());
                    for (&iface, &entry) in &flat.entries {
                        in_map.insert((id, iface as usize), (entry, 0));
                    }
                    for (&iface, &exit) in &flat.exits {
                        out_map.insert((id, iface as usize), (exit, 0));
                    }
                }
                NodeKind::Platform(spec) => {
                    internal_prefixes.push(spec.addr_pool);
                    // The vswitch demux; `with_modules` gives it one rule
                    // per module.
                    let switch = graph.add_node(
                        format!("{}/switch", node.name),
                        Box::new(DropModel("EmptyPlatform")),
                    )?;
                    let out = graph.add_node(
                        format!("{}/out", node.name),
                        Box::new(IdentityModel("PlatformUplink")),
                    )?;
                    platform_switches.insert(node.name.clone(), switch);
                    platforms.push((id, switch, out));
                    for &p in &ports[id] {
                        in_map.insert((id, p), (switch, 0));
                        out_map.insert((id, p), (out, 0));
                    }
                }
            }
        }

        // Wire topology links.
        for l in &topo.links {
            let Some(&(sn, sp)) = out_map.get(&(l.from, l.from_port)) else {
                continue;
            };
            let Some(&(tn, tp)) = in_map.get(&(l.to, l.to_port)) else {
                continue;
            };
            graph.connect(sn, sp, tn, tp);
        }

        Ok(NetworkModel {
            graph,
            internet_src: internet_src
                .ok_or_else(|| SymError::Config("topology has no internet edge".to_string()))?,
            internet_dst: internet_dst
                .ok_or_else(|| SymError::Config("topology has no internet edge".to_string()))?,
            client_edges,
            module_elements: HashMap::new(),
            middlebox_entries,
            platform_switches,
            module_ingress: HashMap::new(),
            internal_prefixes,
            ingress_filtering: false,
            platforms,
        })
    }

    /// A copy of this topology model (built from `topo` by
    /// [`NetworkModel::topology`]) with `modules` installed: on each
    /// hosting platform the demux becomes one `dst host <addr>` rule per
    /// module — mirroring the installed OpenFlow rules — and each module
    /// is flattened behind it, its exits feeding the platform uplink. A
    /// module on a node that is no platform is on no platform, and left
    /// out.
    pub(crate) fn with_modules<'a>(
        &self,
        topo: &Topology,
        modules: impl IntoIterator<Item = &'a InstalledModule>,
        registry: &Registry,
    ) -> Result<NetworkModel, SymError> {
        let mut hosted: Vec<Vec<&InstalledModule>> = vec![Vec::new(); topo.nodes.len()];
        for m in modules {
            if let Some(local) = hosted.get_mut(m.platform) {
                local.push(m);
            }
        }

        let mut model = self.clone();
        let graph = &mut model.graph;
        for &(id, switch, out) in &self.platforms {
            let local = &hosted[id];
            if local.is_empty() {
                continue;
            }
            let rules: Vec<String> = local
                .iter()
                .map(|m| format!("dst host {}", m.addr))
                .collect();
            graph.set_model(switch, model_for("IPClassifier", &rules, registry)?);

            for (mi, module) in local.iter().enumerate() {
                // Graph node names must be unique, but module names may
                // repeat across deployments — the id disambiguates.
                // Way-point lookups still go through the name-keyed maps
                // below (later instances win on a name clash).
                let prefix = format!("{}/{}#{}", topo.node(id).name, module.name, module.id);
                let flat = flatten_config(graph, &prefix, &module.config, registry)?;
                for decl in &module.config.elements {
                    let idx = graph.node_index(&format!("{prefix}/{}", decl.name))?;
                    model
                        .module_elements
                        .insert((module.name.clone(), decl.name.clone()), idx);
                }
                // Fan external deliveries to every module interface.
                let ingress = graph.add_node(
                    format!("{prefix}/__ingress"),
                    Box::new(AnyOutputModel {
                        name: "ModuleIngress",
                        n: flat.entries.len().max(1),
                    }),
                )?;
                model.module_ingress.insert(module.name.clone(), ingress);
                graph.connect(switch, mi, ingress, 0);
                for (fan, (_iface, entry)) in flat.entries.iter().enumerate() {
                    graph.connect(ingress, fan, *entry, 0);
                }
                // Every module exit feeds the platform uplink.
                for (_iface, exit) in flat.exits {
                    graph.connect(exit, 0, out, 0);
                }
            }
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use innet_symnet::{ExecOptions, Field, SymPacket};

    #[test]
    fn compiles_figure3() {
        let topo = Topology::figure3();
        let model = compile(&topo, &[], &Registry::standard()).unwrap();
        assert!(model.graph.len() > 10);
        assert_eq!(model.client_edges.len(), 1);
        assert_eq!(model.platform_switches.len(), 3);
        assert!(model.middlebox_entries.contains_key("HTTPOptimizer"));
    }

    #[test]
    fn traffic_reaches_installed_module() {
        let topo = Topology::figure3();
        let p3 = topo.index_of("platform3").unwrap();
        let module = InstalledModule {
            id: 1,
            name: "batcher".to_string(),
            platform: p3,
            addr: Ipv4Addr::new(203, 0, 113, 10),
            config: ClickConfig::parse(
                "FromNetfront() -> IPFilter(allow udp dst port 1500) \
                 -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> ToNetfront();",
            )
            .unwrap(),
            sandboxed: false,
            owner: "c1".to_string(),
        };
        let model = compile(&topo, &[module], &Registry::standard()).unwrap();
        let res = model.graph.run(
            model.internet_src,
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
        let res = model.graph.run(
            model.internet_src,
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
}
