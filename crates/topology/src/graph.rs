//! Topology data model.

use innet_click::ClickConfig;
use innet_packet::Cidr;
use serde::{Deserialize, Serialize};

/// Index of a node within a [`Topology`].
pub type NodeId = usize;

/// Default link capacity when none is specified: 10 GbE, the paper's
/// testbed NICs (§6 "10Gb Ethernet").
pub const DEFAULT_LINK_BANDWIDTH_BPS: u64 = 10_000_000_000;

/// Default one-way link latency when none is specified: 50 µs, a
/// same-PoP wire. Wide-area links set their own (see
/// [`crate::generate_fleet`]).
pub const DEFAULT_LINK_LATENCY_NS: u64 = 50_000;

/// Deployment attributes of a processing platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Address pool from which module addresses are assigned.
    pub addr_pool: Cidr,
    /// Whether traffic from the Internet can reach this platform at all
    /// (the paper's Figure 3: Platforms 1 and 2 are not reachable from
    /// the outside, only Platform 3 is).
    pub external: bool,
    /// Maximum number of concurrent processing modules.
    pub capacity: usize,
    /// Physical memory in MB (drives the VM-count model of §6).
    pub mem_mb: u64,
    /// CPU cores.
    pub cores: u32,
}

impl Default for PlatformSpec {
    fn default() -> Self {
        PlatformSpec {
            addr_pool: "192.0.2.0/24".parse().expect("valid literal"),
            external: true,
            capacity: 1000,
            mem_mb: 16 * 1024,
            cores: 4,
        }
    }
}

/// What a topology node is.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NodeKind {
    /// The Internet edge: arbitrary external traffic enters and leaves
    /// here.
    Internet,
    /// A subnet of the operator's own customers.
    ClientSubnet(Cidr),
    /// A router: longest-prefix-match over `(prefix, output port)`.
    Router(Vec<(Cidr, usize)>),
    /// An operator middlebox expressed as a Click configuration whose
    /// `FromNetfront(i)`/`ToNetfront(i)` elements bind to the node's
    /// topology ports.
    Middlebox(ClickConfig),
    /// A processing platform.
    Platform(PlatformSpec),
}

/// A named topology node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopoNode {
    /// Unique node name.
    pub name: String,
    /// Node kind and configuration.
    pub kind: NodeKind,
}

/// A directed link between node ports, with capacity attributes.
///
/// Bandwidth and latency are integers (bits per second, nanoseconds) so
/// the struct stays `Eq + Hash` and generation stays bit-identical
/// across platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Link {
    /// Source node.
    pub from: NodeId,
    /// Source output port.
    pub from_port: usize,
    /// Destination node.
    pub to: NodeId,
    /// Destination input port.
    pub to_port: usize,
    /// Link capacity in bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation latency in nanoseconds.
    pub latency_ns: u64,
}

/// Attributes of a shortest (minimum-latency) path between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathAttrs {
    /// Total one-way latency along the path in nanoseconds.
    pub latency_ns: u64,
    /// Bottleneck (minimum) link bandwidth along the path.
    pub bandwidth_bps: u64,
    /// Number of links traversed.
    pub hops: u32,
}

/// One outgoing link as the shortest-path search reads it.
#[derive(Debug, Clone, Copy, Default)]
struct Edge {
    to: NodeId,
    latency_ns: u64,
    bandwidth_bps: u64,
}

/// A topology's links in compressed sparse-row form, built once by
/// [`Topology::adjacency`] and queried for any number of shortest-path
/// trees: node `n`'s outgoing edges are `edges[offsets[n]..offsets[n +
/// 1]]`, in the order their links appear in [`Topology::links`].
#[derive(Debug, Clone)]
pub struct Adjacency {
    offsets: Vec<usize>,
    edges: Vec<Edge>,
}

impl Adjacency {
    /// Minimum-latency paths from `src` to every node (Dijkstra over
    /// [`Link::latency_ns`], deterministic: ties break on the smaller
    /// node id). `result[n]` is `None` when `n` is unreachable; the
    /// source itself gets a zero-latency, infinite-bandwidth path. An
    /// out-of-range `src` reaches nothing.
    pub fn paths_from(&self, src: NodeId) -> Vec<Option<PathAttrs>> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let n = self.offsets.len() - 1;
        let mut out: Vec<Option<PathAttrs>> = vec![None; n];
        if src >= n {
            return out;
        }
        let mut heap: BinaryHeap<Reverse<(u64, NodeId)>> = BinaryHeap::new();
        out[src] = Some(PathAttrs {
            latency_ns: 0,
            bandwidth_bps: u64::MAX,
            hops: 0,
        });
        heap.push(Reverse((0, src)));
        while let Some(Reverse((dist, node))) = heap.pop() {
            let Some(cur) = out[node] else { continue };
            if dist > cur.latency_ns {
                continue; // Stale heap entry.
            }
            for e in &self.edges[self.offsets[node]..self.offsets[node + 1]] {
                let cand = PathAttrs {
                    latency_ns: cur.latency_ns.saturating_add(e.latency_ns),
                    bandwidth_bps: cur.bandwidth_bps.min(e.bandwidth_bps),
                    hops: cur.hops.saturating_add(1),
                };
                let better = match out[e.to] {
                    None => true,
                    // Strict improvement only: equal-latency alternatives
                    // keep the first (lowest-id-reached) path, so the
                    // result is independent of heap internals.
                    Some(p) => cand.latency_ns < p.latency_ns,
                };
                if better {
                    out[e.to] = Some(cand);
                    heap.push(Reverse((cand.latency_ns, e.to)));
                }
            }
        }
        out
    }
}

/// Errors raised while building a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopoError {
    /// A node name was used twice.
    DuplicateName(String),
    /// A referenced node does not exist.
    UnknownNode(String),
}

impl std::fmt::Display for TopoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopoError::DuplicateName(n) => write!(f, "duplicate node '{n}'"),
            TopoError::UnknownNode(n) => write!(f, "unknown node '{n}'"),
        }
    }
}

impl std::error::Error for TopoError {}

/// The operator's network graph.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// Nodes, indexed by [`NodeId`].
    pub nodes: Vec<TopoNode>,
    /// Directed links.
    pub links: Vec<Link>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Adds a node, returning its id.
    pub fn add(&mut self, name: impl Into<String>, kind: NodeKind) -> Result<NodeId, TopoError> {
        let name = name.into();
        if self.index_of(&name).is_some() {
            return Err(TopoError::DuplicateName(name));
        }
        self.nodes.push(TopoNode { name, kind });
        Ok(self.nodes.len() - 1)
    }

    /// Looks up a node id by name.
    pub fn index_of(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> &TopoNode {
        &self.nodes[id]
    }

    /// Adds a directed link with default capacity attributes.
    pub fn link(&mut self, from: NodeId, from_port: usize, to: NodeId, to_port: usize) {
        self.link_with(
            from,
            from_port,
            to,
            to_port,
            DEFAULT_LINK_BANDWIDTH_BPS,
            DEFAULT_LINK_LATENCY_NS,
        );
    }

    /// Adds a directed link with explicit bandwidth and latency.
    #[allow(clippy::too_many_arguments)]
    pub fn link_with(
        &mut self,
        from: NodeId,
        from_port: usize,
        to: NodeId,
        to_port: usize,
        bandwidth_bps: u64,
        latency_ns: u64,
    ) {
        self.links.push(Link {
            from,
            from_port,
            to,
            to_port,
            bandwidth_bps,
            latency_ns,
        });
    }

    /// Adds a pair of links wiring `a` and `b` in both directions on the
    /// given ports (out and in share the port index on each side).
    pub fn link_bidir(&mut self, a: NodeId, a_port: usize, b: NodeId, b_port: usize) {
        self.link(a, a_port, b, b_port);
        self.link(b, b_port, a, a_port);
    }

    /// Like [`Topology::link_bidir`] but with explicit bandwidth and
    /// latency shared by both directions.
    #[allow(clippy::too_many_arguments)]
    pub fn link_bidir_with(
        &mut self,
        a: NodeId,
        a_port: usize,
        b: NodeId,
        b_port: usize,
        bandwidth_bps: u64,
        latency_ns: u64,
    ) {
        self.link_with(a, a_port, b, b_port, bandwidth_bps, latency_ns);
        self.link_with(b, b_port, a, a_port, bandwidth_bps, latency_ns);
    }

    /// The link leaving `(node, port)`, if any.
    pub fn out_link(&self, from: NodeId, from_port: usize) -> Option<&Link> {
        self.links
            .iter()
            .find(|l| l.from == from && l.from_port == from_port)
    }

    /// All platform node ids.
    pub fn platforms(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Platform(_)))
            .map(|(i, _)| i)
            .collect()
    }

    /// All client-subnet node ids with their CIDRs, ascending by id.
    pub fn client_subnets(&self) -> Vec<(NodeId, Cidr)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match &n.kind {
                NodeKind::ClientSubnet(cidr) => Some((i, *cidr)),
                _ => None,
            })
            .collect()
    }

    /// The PoP index a node belongs to, parsed from the `"pop{N}-"`
    /// name prefix that [`crate::generate_fleet`] assigns (core and
    /// aggregation nodes belong to no PoP).
    pub fn pop_of(&self, id: NodeId) -> Option<usize> {
        let name = &self.nodes.get(id)?.name;
        let rest = name.strip_prefix("pop")?;
        let digits = rest.split('-').next()?;
        digits.parse().ok()
    }

    /// Node ids in PoP `pop` (see [`Topology::pop_of`]), ascending.
    pub fn pop_members(&self, pop: usize) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.pop_of(i) == Some(pop))
            .collect()
    }

    /// Minimum-latency paths from `src` to every node: a one-shot
    /// [`Adjacency::paths_from`]. Callers that ask for more than one tree
    /// build the [`Topology::adjacency`] once and query it instead.
    ///
    /// The controller's placement scoring and the fleet fabric both
    /// lean on these trees: latency drives candidate ranking and
    /// cross-host delivery times, bottleneck bandwidth drives link
    /// headroom and migration transfer cost.
    pub fn paths_from(&self, src: NodeId) -> Vec<Option<PathAttrs>> {
        self.adjacency().paths_from(src)
    }

    /// The links as a compressed adjacency (see [`Adjacency`]). Links
    /// with an endpoint outside the node list are left out.
    pub fn adjacency(&self) -> Adjacency {
        let n = self.nodes.len();
        let valid = |l: &&Link| l.from < n && l.to < n;
        // Counting pass: offsets[i + 1] holds node i's out-degree, then
        // the prefix sum turns it into the end of i's edge run.
        let mut offsets = vec![0usize; n + 1];
        for l in self.links.iter().filter(valid) {
            offsets[l.from + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Fill pass, in link order: `next[i]` is node i's next free slot.
        let mut next = offsets[..n].to_vec();
        let mut edges = vec![Edge::default(); offsets[n]];
        for l in self.links.iter().filter(valid) {
            edges[next[l.from]] = Edge {
                to: l.to,
                latency_ns: l.latency_ns,
                bandwidth_bps: l.bandwidth_bps,
            };
            next[l.from] += 1;
        }
        Adjacency { offsets, edges }
    }

    /// Count of middlebox nodes (the x-axis of Figure 10).
    pub fn middlebox_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Middlebox(_)))
            .count()
    }

    /// The paper's Figure 3 topology.
    ///
    /// ```text
    /// internet ── border router ──┬── nat&fw1 ── platform1
    ///                             ├── nat&fw2 ── http-optimizer ── platform2
    ///                             ├── platform3            (externally reachable)
    ///                             └── clients (172.16.0.0/16)
    /// ```
    ///
    /// Platforms 1 and 2 sit behind operator NAT/firewall middleboxes and
    /// are not reachable from the Internet; HTTP traffic toward clients
    /// is steered through the HTTP optimizer.
    pub fn figure3() -> Topology {
        let mut t = Topology::new();
        let internet = t.add("internet", NodeKind::Internet).expect("fresh");
        let clients = t
            .add(
                "clients",
                NodeKind::ClientSubnet("172.16.0.0/16".parse().expect("valid literal")),
            )
            .expect("fresh");

        // Border router: port 0 internet, 1..=3 platforms, 4 clients.
        let router = t
            .add(
                "border",
                NodeKind::Router(vec![
                    ("192.0.2.0/24".parse().expect("valid"), 1),
                    ("198.51.100.0/24".parse().expect("valid"), 2),
                    ("203.0.113.0/24".parse().expect("valid"), 3),
                    ("172.16.0.0/16".parse().expect("valid"), 4),
                    (Cidr::ANY, 0),
                ]),
            )
            .expect("fresh");

        // Operator middleboxes guarding platforms 1 and 2: stateful
        // firewalls that only let operator-side traffic out.
        let fw_cfg = ClickConfig::parse(
            r#"
            in  :: FromNetfront(0);
            out :: FromNetfront(1);
            fw  :: StatefulFirewall(allow tcp, allow udp, allow icmp);
            to_in  :: ToNetfront(0);
            to_out :: ToNetfront(1);
            in  -> [1]fw;  fw[1] -> to_out;
            out -> [0]fw;  fw[0] -> to_in;
            "#,
        )
        .expect("valid literal config");
        let natfw1 = t
            .add("natfw1", NodeKind::Middlebox(fw_cfg.clone()))
            .expect("fresh");
        let natfw2 = t.add("natfw2", NodeKind::Middlebox(fw_cfg)).expect("fresh");

        // The HTTP optimizer on the path to platform 2 (it rewrites the
        // TOS byte of web traffic; what matters is that it *modifies*
        // HTTP flows, which the static checks must notice).
        let http_opt_cfg = ClickConfig::parse(
            r#"
            in :: FromNetfront(0);
            c  :: IPClassifier(tcp src port 80 or tcp dst port 80, -);
            opt :: SetTOS(46);
            out :: ToNetfront(1);
            rin :: FromNetfront(1);
            rout :: ToNetfront(0);
            in -> c; c[0] -> opt -> out; c[1] -> out;
            rin -> rout;
            "#,
        )
        .expect("valid literal config");
        let http_opt = t
            .add("HTTPOptimizer", NodeKind::Middlebox(http_opt_cfg))
            .expect("fresh");

        let p1 = t
            .add(
                "platform1",
                NodeKind::Platform(PlatformSpec {
                    addr_pool: "192.0.2.0/24".parse().expect("valid"),
                    external: false,
                    ..PlatformSpec::default()
                }),
            )
            .expect("fresh");
        let p2 = t
            .add(
                "platform2",
                NodeKind::Platform(PlatformSpec {
                    addr_pool: "198.51.100.0/24".parse().expect("valid"),
                    external: false,
                    ..PlatformSpec::default()
                }),
            )
            .expect("fresh");
        let p3 = t
            .add(
                "platform3",
                NodeKind::Platform(PlatformSpec {
                    addr_pool: "203.0.113.0/24".parse().expect("valid"),
                    external: true,
                    ..PlatformSpec::default()
                }),
            )
            .expect("fresh");

        t.link_bidir(internet, 0, router, 0);
        t.link_bidir(router, 1, natfw1, 0);
        t.link_bidir(natfw1, 1, p1, 0);
        t.link_bidir(router, 2, natfw2, 0);
        t.link_bidir(natfw2, 1, http_opt, 0);
        t.link_bidir(http_opt, 1, p2, 0);
        t.link_bidir(router, 3, p3, 0);
        t.link_bidir(router, 4, clients, 0);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, generate_fleet, FleetParams, GenerateParams};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The Dijkstra `Adjacency::paths_from` replaced, kept as its
    /// oracle: it rebuilds per-node link lists on every call.
    fn reference_paths_from(t: &Topology, src: NodeId) -> Vec<Option<PathAttrs>> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let n = t.nodes.len();
        let mut out: Vec<Option<PathAttrs>> = vec![None; n];
        if src >= n {
            return out;
        }
        let mut adj: Vec<Vec<(NodeId, u64, u64)>> = vec![Vec::new(); n];
        for l in &t.links {
            if l.from < n && l.to < n {
                adj[l.from].push((l.to, l.latency_ns, l.bandwidth_bps));
            }
        }
        let mut heap: BinaryHeap<Reverse<(u64, NodeId)>> = BinaryHeap::new();
        out[src] = Some(PathAttrs {
            latency_ns: 0,
            bandwidth_bps: u64::MAX,
            hops: 0,
        });
        heap.push(Reverse((0, src)));
        while let Some(Reverse((dist, node))) = heap.pop() {
            let Some(cur) = out[node] else { continue };
            if dist > cur.latency_ns {
                continue;
            }
            for &(next, lat, bw) in &adj[node] {
                let cand = PathAttrs {
                    latency_ns: cur.latency_ns.saturating_add(lat),
                    bandwidth_bps: cur.bandwidth_bps.min(bw),
                    hops: cur.hops.saturating_add(1),
                };
                let better = match out[next] {
                    None => true,
                    Some(p) => cand.latency_ns < p.latency_ns,
                };
                if better {
                    out[next] = Some(cand);
                    heap.push(Reverse((cand.latency_ns, next)));
                }
            }
        }
        out
    }

    /// Whole rows from one adjacency against the oracle, for every
    /// source and two past the last node.
    fn assert_rows_match(t: &Topology, what: &str) {
        let adj = t.adjacency();
        for src in 0..t.nodes.len() + 2 {
            assert_eq!(
                adj.paths_from(src),
                reference_paths_from(t, src),
                "{what}: row from source {src}"
            );
        }
    }

    /// A multigraph built to hit the tie rule: few distinct latencies
    /// (zero included), parallel links, self-loops, links to and from
    /// nodes that do not exist, and nodes no link reaches.
    fn random_multigraph(rng: &mut StdRng) -> Topology {
        let mut t = Topology::new();
        let n = rng.gen_range(0..=12usize);
        for i in 0..n {
            t.add(format!("n{i}"), NodeKind::Internet).unwrap();
        }
        for _ in 0..rng.gen_range(0..=4 * n + 2) {
            let from = rng.gen_range(0..n + 2);
            let to = match rng.gen_range(0..6u32) {
                0 => from,
                _ => rng.gen_range(0..n + 2),
            };
            let latency = [0, 1, 1, 2, 3, 5][rng.gen_range(0..6usize)];
            let bandwidth = [1, 10, 100, u64::MAX][rng.gen_range(0..4usize)];
            t.link_with(from, 0, to, 0, bandwidth, latency);
            if rng.gen_bool(0.2) {
                // A parallel link with its own attributes.
                t.link_with(from, 1, to, 1, bandwidth / 2 + 1, latency);
            }
        }
        t
    }

    #[test]
    fn adjacency_rows_match_the_reference_dijkstra() {
        assert_rows_match(&Topology::figure3(), "figure3");
        for seed in [1, 7, 42] {
            println!("generate seed {seed}");
            for middleboxes in [0, 15, 60] {
                let t = generate(&GenerateParams {
                    middleboxes,
                    platform_every: 4,
                    seed,
                });
                assert_rows_match(&t, &format!("generate({middleboxes}) seed {seed}"));
            }
        }
        for seed in [3, 20150421] {
            println!("generate_fleet seed {seed}");
            for (pops, platforms_per_pop) in [(2, 1), (8, 3), (200, 2)] {
                let t = generate_fleet(&FleetParams {
                    pops,
                    platforms_per_pop,
                    clients_per_pop: 1,
                    seed,
                });
                assert_rows_match(&t, &format!("fleet {pops}x{platforms_per_pop} seed {seed}"));
            }
        }
        for seed in 0..300u64 {
            println!("multigraph seed {seed}");
            let t = random_multigraph(&mut StdRng::seed_from_u64(seed));
            assert_rows_match(&t, &format!("multigraph seed {seed}"));
        }
    }

    #[test]
    fn adjacency_keeps_link_order_and_skips_dangling_links() {
        let mut t = Topology::new();
        let a = t.add("a", NodeKind::Internet).unwrap();
        let b = t.add("b", NodeKind::Internet).unwrap();
        t.link_with(a, 0, b, 0, 7, 5);
        t.link_with(a, 1, 9, 0, 1, 1);
        t.link_with(a, 2, b, 2, 3, 5);
        t.link_with(b, 0, a, 0, 1, 5);
        let adj = t.adjacency();
        assert_eq!(adj.offsets, vec![0, 2, 3]);
        let bandwidths: Vec<u64> = adj.edges.iter().map(|e| e.bandwidth_bps).collect();
        assert_eq!(bandwidths, vec![7, 3, 1], "link order, dangling link gone");
        // Equal-latency parallel links: the first one's bandwidth wins.
        assert_eq!(adj.paths_from(a)[b].unwrap().bandwidth_bps, 7);
    }

    #[test]
    fn figure3_shape() {
        let t = Topology::figure3();
        assert_eq!(t.platforms().len(), 3);
        assert_eq!(t.middlebox_count(), 3);
        assert!(t.index_of("HTTPOptimizer").is_some());
        // Platform 3 is the only externally reachable one.
        let externals: Vec<&str> = t
            .platforms()
            .into_iter()
            .filter(|&p| matches!(&t.node(p).kind, NodeKind::Platform(s) if s.external))
            .map(|p| t.node(p).name.as_str())
            .collect();
        assert_eq!(externals, vec!["platform3"]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut t = Topology::new();
        t.add("x", NodeKind::Internet).unwrap();
        assert!(t.add("x", NodeKind::Internet).is_err());
    }

    #[test]
    fn out_link_lookup() {
        let t = Topology::figure3();
        let router = t.index_of("border").unwrap();
        let internet = t.index_of("internet").unwrap();
        let l = t.out_link(router, 0).unwrap();
        assert_eq!(l.to, internet);
        assert!(t.out_link(router, 99).is_none());
    }

    #[test]
    fn bidirectional_links_paired() {
        let t = Topology::figure3();
        for l in &t.links {
            assert!(
                t.links.iter().any(|m| m.from == l.to && m.to == l.from),
                "every link has a reverse"
            );
        }
    }
}
