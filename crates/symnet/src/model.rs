//! The symbolic graph and execution engine.
//!
//! A [`SymGraph`] mirrors the structure of a concrete `innet_click::Router`:
//! nodes carry abstract models instead of packet-processing code, and the
//! engine pushes *symbolic* packets through the edges, splitting them at
//! every branch. The models obey the restrictions the paper imposes for
//! tractability (§4.3): no loops, no dynamic allocation, and middlebox flow
//! state pushed into the flow itself.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use crate::packet::SymPacket;

/// Result of one model step: where each symbolic branch goes next.
#[derive(Debug)]
pub enum SymOut {
    /// Continue on a numbered output port.
    Port(usize, SymPacket),
    /// Leave the graph through a numbered egress interface.
    Egress(u16, SymPacket),
}

/// An abstract model of one processing node.
pub trait SymElement: Send + Sync {
    /// Model name (class name for Click-derived models).
    fn model_name(&self) -> &'static str;

    /// Executes the model on one symbolic packet, producing zero or more
    /// branch continuations. Implementations must not loop internally.
    fn exec(&self, in_port: usize, pkt: SymPacket) -> Vec<SymOut>;

    /// Whether this model is *chain-safe*: stateless in the symbolic
    /// sense, single-input (reads only port 0), emits only on port 0 or
    /// egress, never manipulates header layers, and is substitution-exact
    /// — its behaviour on any constrain-only restriction of the
    /// unconstrained packet equals the restriction of its behaviour on
    /// the unconstrained packet. Chain-safe models may be summarized by
    /// [`crate::summary::summarize_element`] and replayed from a memoized
    /// [`crate::summary::SymSummary`] instead of being re-executed.
    /// Defaults to `false`; only models audited for the above contract
    /// opt in.
    fn chain_safe(&self) -> bool {
        false
    }
}

/// Errors produced while building or executing a symbolic graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymError {
    /// No abstract model exists for an element class; the configuration
    /// cannot be verified and must be rejected (or sandboxed as an opaque
    /// module).
    NoModel(String),
    /// The underlying configuration failed to parse or validate.
    Config(String),
    /// A referenced node does not exist.
    UnknownNode(String),
}

impl std::fmt::Display for SymError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymError::NoModel(c) => write!(f, "no abstract model for class '{c}'"),
            SymError::Config(m) => write!(f, "configuration error: {m}"),
            SymError::UnknownNode(n) => write!(f, "unknown node '{n}'"),
        }
    }
}

impl std::error::Error for SymError {}

/// What the engine records while running.
#[derive(Debug, Clone)]
pub enum Observe {
    /// Record only flows that leave through an egress interface.
    EgressOnly,
    /// Record egress flows plus arrivals at the given node indices.
    Nodes(HashSet<usize>),
    /// Record arrivals everywhere (small graphs only — quadratic in path
    /// length).
    All,
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Global bound on model executions (branch hops); exceeding it sets
    /// `truncated` on the result instead of running forever.
    pub max_hops: usize,
    /// Per-branch bound on visits to the same node: a symbolic flow that
    /// re-enters a node more than this many times is circulating (e.g. a
    /// responder whose answers re-enter the platform) and is cut off.
    /// Legitimate request/response paths visit a node at most a handful
    /// of times; SymNet's tractability rests on loop-free exploration.
    pub max_node_visits: usize,
    /// Observation policy.
    pub observe: Observe,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            max_hops: 100_000,
            max_node_visits: 6,
            observe: Observe::EgressOnly,
        }
    }
}

/// The outcome of a symbolic run.
#[derive(Debug, Default)]
pub struct ExecResult {
    /// Flows that left the graph, with the egress interface.
    pub egress: Vec<(u16, SymPacket)>,
    /// Flow snapshots observed arriving at watched nodes.
    pub observations: Vec<(usize, SymPacket)>,
    /// Total model executions performed.
    pub hops: u64,
    /// True when `max_hops` stopped the run early.
    pub truncated: bool,
    /// Times the global `max_hops` bound stopped the run (0 or 1).
    pub hop_cap_hits: u64,
    /// Branches cut by the per-node `max_node_visits` bound.
    pub visit_cap_hits: u64,
}

/// A graph of symbolic models. Nodes hold their models by `Arc`, so a
/// clone shares them and copies only names and edges.
#[derive(Clone)]
pub struct SymGraph {
    nodes: Vec<Arc<dyn SymElement>>,
    names: Vec<String>,
    index: HashMap<String, usize>,
    /// `(node, out_port) -> (node, in_port)`.
    edges: HashMap<(usize, usize), (usize, usize)>,
}

impl SymGraph {
    /// An empty graph.
    pub fn new() -> SymGraph {
        SymGraph {
            nodes: Vec::new(),
            names: Vec::new(),
            index: HashMap::new(),
            edges: HashMap::new(),
        }
    }

    /// Adds a node, returning its index. Duplicate names are rejected.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        model: Box<dyn SymElement>,
    ) -> Result<usize, SymError> {
        self.add_shared(name, Arc::from(model))
    }

    /// Adds a node holding a shared model instance (see
    /// [`crate::ModelCache`]), returning its index. Duplicate names are
    /// rejected.
    pub fn add_shared(
        &mut self,
        name: impl Into<String>,
        model: Arc<dyn SymElement>,
    ) -> Result<usize, SymError> {
        let name = name.into();
        if self.index.contains_key(&name) {
            return Err(SymError::Config(format!("duplicate node '{name}'")));
        }
        let idx = self.nodes.len();
        self.index.insert(name.clone(), idx);
        self.names.push(name);
        self.nodes.push(model);
        Ok(idx)
    }

    /// Replaces the model of node `idx`, keeping its name and edges.
    pub fn set_model(&mut self, idx: usize, model: Box<dyn SymElement>) {
        self.nodes[idx] = Arc::from(model);
    }

    /// Connects `[from_port]from -> [to_port]to` by node index.
    pub fn connect(&mut self, from: usize, from_port: usize, to: usize, to_port: usize) {
        self.edges.insert((from, from_port), (to, to_port));
    }

    /// Connects nodes by name.
    pub fn connect_names(
        &mut self,
        from: &str,
        from_port: usize,
        to: &str,
        to_port: usize,
    ) -> Result<(), SymError> {
        let f = self.node_index(from)?;
        let t = self.node_index(to)?;
        self.connect(f, from_port, t, to_port);
        Ok(())
    }

    /// Index of a named node.
    pub fn node_index(&self, name: &str) -> Result<usize, SymError> {
        self.index
            .get(name)
            .copied()
            .ok_or_else(|| SymError::UnknownNode(name.to_string()))
    }

    /// Name of a node index.
    pub fn node_name(&self, idx: usize) -> &str {
        &self.names[idx]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The model attached to a node index.
    pub fn model(&self, idx: usize) -> &dyn SymElement {
        self.nodes[idx].as_ref()
    }

    /// The edge leaving `(node, out_port)`, as `(to, to_port)`.
    pub fn edge_target(&self, node: usize, out_port: usize) -> Option<(usize, usize)> {
        self.edges.get(&(node, out_port)).copied()
    }

    /// Every edge leaving `node`, as `(from_port, to, to_port)`.
    pub fn out_edges(&self, node: usize) -> Vec<(usize, usize, usize)> {
        let mut v: Vec<(usize, usize, usize)> = self
            .edges
            .iter()
            .filter(|((from, _), _)| *from == node)
            .map(|(&(_, fp), &(to, tp))| (fp, to, tp))
            .collect();
        v.sort_unstable();
        v
    }

    /// Every edge entering `node`, as `(from, from_port, to_port)`.
    pub fn in_edges(&self, node: usize) -> Vec<(usize, usize, usize)> {
        let mut v: Vec<(usize, usize, usize)> = self
            .edges
            .iter()
            .filter(|(_, (to, _))| *to == node)
            .map(|(&(from, fp), &(_, tp))| (from, fp, tp))
            .collect();
        v.sort_unstable();
        v
    }

    /// Runs the engine: injects `pkt` into `entry`'s input `in_port` and
    /// pushes every branch until it is dropped, leaves via egress, or the
    /// hop bound is exhausted.
    pub fn run(
        &self,
        entry: usize,
        in_port: usize,
        pkt: SymPacket,
        opts: &ExecOptions,
    ) -> ExecResult {
        let mut result = ExecResult::default();
        let mut queue: VecDeque<(usize, usize, SymPacket)> = VecDeque::new();
        queue.push_back((entry, in_port, pkt));
        while let Some((node, port, mut p)) = queue.pop_front() {
            if result.hops as usize >= opts.max_hops {
                result.truncated = true;
                result.hop_cap_hits += 1;
                break;
            }
            // Cut circulating branches: more than `max_node_visits`
            // recent arrivals at the same node means a forwarding loop.
            // (Bounded lookback keeps per-hop cost constant; loops with
            // longer periods than the window are still terminated by
            // `max_hops`.)
            if p.visits_recent(node, 512) >= opts.max_node_visits {
                result.truncated = true;
                result.visit_cap_hits += 1;
                continue;
            }
            result.hops += 1;
            p.record_arrival(node, port);
            let watch = match &opts.observe {
                Observe::EgressOnly => false,
                Observe::Nodes(set) => set.contains(&node),
                Observe::All => true,
            };
            if watch {
                result.observations.push((node, p.clone()));
            }
            for out in self.nodes[node].exec(port, p) {
                match out {
                    SymOut::Port(out_port, branch) => {
                        if !branch.feasible() {
                            continue;
                        }
                        if let Some(&(n, np)) = self.edges.get(&(node, out_port)) {
                            queue.push_back((n, np, branch));
                        }
                        // Unconnected outputs drop, as in the runtime.
                    }
                    SymOut::Egress(iface, branch) => {
                        if branch.feasible() {
                            result.egress.push((iface, branch));
                        }
                    }
                }
            }
        }
        result
    }

    /// Convenience: run by entry node name.
    pub fn run_named(
        &self,
        entry: &str,
        in_port: usize,
        pkt: SymPacket,
        opts: &ExecOptions,
    ) -> Result<ExecResult, SymError> {
        Ok(self.run(self.node_index(entry)?, in_port, pkt, opts))
    }
}

impl Default for SymGraph {
    fn default() -> Self {
        SymGraph::new()
    }
}

impl std::fmt::Debug for SymGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymGraph")
            .field("nodes", &self.names)
            .field("edges", &self.edges.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Field;
    use crate::value::SymValue;

    /// A model that writes a constant destination then forwards.
    struct SetDst(u64);
    impl SymElement for SetDst {
        fn model_name(&self) -> &'static str {
            "SetDst"
        }
        fn exec(&self, _p: usize, mut pkt: SymPacket) -> Vec<SymOut> {
            pkt.write(Field::IpDst, SymValue::Const(self.0));
            vec![SymOut::Port(0, pkt)]
        }
    }

    /// A terminal egress model.
    struct Out(u16);
    impl SymElement for Out {
        fn model_name(&self) -> &'static str {
            "Out"
        }
        fn exec(&self, _p: usize, pkt: SymPacket) -> Vec<SymOut> {
            vec![SymOut::Egress(self.0, pkt)]
        }
    }

    #[test]
    fn linear_chain_executes() {
        let mut g = SymGraph::new();
        let a = g.add_node("a", Box::new(SetDst(7))).unwrap();
        let b = g.add_node("b", Box::new(Out(0))).unwrap();
        g.connect(a, 0, b, 0);
        let res = g.run(a, 0, SymPacket::unconstrained(), &ExecOptions::default());
        assert_eq!(res.egress.len(), 1);
        assert!(res.egress[0].1.provably_eq(Field::IpDst, 7));
        assert_eq!(res.hops, 2);
        assert!(!res.truncated);
    }

    #[test]
    fn hop_bound_terminates_loops() {
        struct Loop;
        impl SymElement for Loop {
            fn model_name(&self) -> &'static str {
                "Loop"
            }
            fn exec(&self, _p: usize, pkt: SymPacket) -> Vec<SymOut> {
                vec![SymOut::Port(0, pkt)]
            }
        }
        let mut g = SymGraph::new();
        let a = g.add_node("loop", Box::new(Loop)).unwrap();
        g.connect(a, 0, a, 0);
        let res = g.run(
            a,
            0,
            SymPacket::unconstrained(),
            &ExecOptions {
                max_hops: 100,
                max_node_visits: 6,
                observe: Observe::EgressOnly,
            },
        );
        assert!(res.truncated, "the visit cap cuts the cycle");
        assert!(res.hops <= 6);
    }

    #[test]
    fn observation_captures_arrival_state() {
        let mut g = SymGraph::new();
        let a = g.add_node("a", Box::new(SetDst(7))).unwrap();
        let b = g.add_node("b", Box::new(SetDst(9))).unwrap();
        g.connect(a, 0, b, 0);
        let mut watch = HashSet::new();
        watch.insert(b);
        let res = g.run(
            a,
            0,
            SymPacket::unconstrained(),
            &ExecOptions {
                max_hops: 100,
                max_node_visits: 6,
                observe: Observe::Nodes(watch),
            },
        );
        assert_eq!(res.observations.len(), 1);
        let (node, pkt) = &res.observations[0];
        assert_eq!(*node, b);
        // Observed at arrival: dst already 7 (written by a), not yet 9.
        assert!(pkt.provably_eq(Field::IpDst, 7));
    }

    #[test]
    fn duplicate_node_rejected() {
        let mut g = SymGraph::new();
        g.add_node("x", Box::new(Out(0))).unwrap();
        assert!(g.add_node("x", Box::new(Out(0))).is_err());
    }
}
