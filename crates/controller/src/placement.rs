//! Topology- and capacity-aware placement scoring.
//!
//! The paper's controller "iterates over the platforms" (§4.5); on the
//! three-platform Figure 3 topology any order works, but on a generated
//! fleet topology (`innet_topology::generate_fleet`) the first platform
//! in declaration order is an arbitrary choice among hundreds. The
//! placement stage therefore ranks candidates before the verification
//! loop runs:
//!
//! 1. **client latency** — minimum-latency path from the operator's
//!    client edge to the platform (Dijkstra over the capacitated links),
//! 2. **residual capacity** — occupied fraction of the platform's module
//!    slots, so load spreads instead of piling onto one PoP,
//! 3. **link headroom** — the path's bottleneck bandwidth, as a
//!    tie-breaker between equally close, equally loaded platforms.
//!
//! Scores are pure integers over path attributes, so ranking is
//! deterministic across runs and platforms; ties break on the smaller
//! node id, which on single-PoP topologies reproduces the paper's
//! declaration-order search exactly.

use std::collections::HashMap;

use innet_topology::{NodeId, NodeKind, PathAttrs, Topology};

/// Why a platform was rejected during the placement search, as a bounded
/// label set for `innet_ctl_placement_reject_total{reason=…}`. Free-form
/// reason strings stay in [`crate::DeployError::NoFeasiblePlacement`] for
/// humans; this enum is the metric-cardinality-safe classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The platform's module slots are exhausted.
    PlatformFull,
    /// The platform could not allocate an address.
    NoAddressPool,
    /// Installing there would break an operator policy rule.
    PolicyViolation,
    /// A client `reach` requirement fails with the module there.
    RequirementUnsatisfied,
    /// The named node is not a platform.
    NotAPlatform,
    /// An unrecognized reason string.
    Other,
}

impl RejectReason {
    /// The metric label value.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::PlatformFull => "platform_full",
            RejectReason::NoAddressPool => "no_address_pool",
            RejectReason::PolicyViolation => "policy_violation",
            RejectReason::RequirementUnsatisfied => "requirement_unsatisfied",
            RejectReason::NotAPlatform => "not_a_platform",
            RejectReason::Other => "other",
        }
    }

    /// Classifies one per-platform reason string from
    /// [`crate::DeployError::NoFeasiblePlacement`].
    pub fn classify(reason: &str) -> RejectReason {
        if reason == "platform full" {
            RejectReason::PlatformFull
        } else if reason == "no address pool" {
            RejectReason::NoAddressPool
        } else if reason.starts_with("operator policy violated") {
            RejectReason::PolicyViolation
        } else if reason.starts_with("client requirement unsatisfied") {
            RejectReason::RequirementUnsatisfied
        } else if reason == "not a platform" {
            RejectReason::NotAPlatform
        } else {
            RejectReason::Other
        }
    }

    /// Whether the reason is a property of current occupancy rather than
    /// of the request. Capacity-class failures must not be memoized in
    /// the verdict cache: occupancy changes on every commit and `kill`
    /// without an epoch bump, so a cached "platform full" would keep
    /// replaying after space frees up.
    pub fn is_capacity(self) -> bool {
        matches!(
            self,
            RejectReason::PlatformFull | RejectReason::NoAddressPool
        )
    }
}

/// Latency past which a platform is considered unreachable from the
/// client vantage (no path in the link graph). Ten seconds one-way —
/// strictly worse than any real path, so unreachable platforms sort
/// last but are still tried (declaration-order fallback for topologies
/// built without link attributes).
const UNREACHABLE_LATENCY_US: u64 = 10_000_000;

/// Precomputed placement-scoring context: minimum-latency paths from the
/// operator's client edge to every node. Built once per controller: the
/// topology is fixed for its lifetime.
#[derive(Debug, Default)]
pub struct PlacementContext {
    /// `client_paths[n]` is the best path from the vantage to node `n`.
    client_paths: Vec<Option<PathAttrs>>,
}

impl PlacementContext {
    /// Builds the context for `topo`. The client vantage is the first
    /// `ClientSubnet` node (the operator's customers — the traffic most
    /// placements serve), falling back to the first `Internet` node, then
    /// to node 0.
    pub fn new(topo: &Topology) -> PlacementContext {
        if topo.nodes.is_empty() {
            return PlacementContext {
                client_paths: Vec::new(),
            };
        }
        let vantage = topo
            .nodes
            .iter()
            .position(|n| matches!(n.kind, NodeKind::ClientSubnet(_)))
            .or_else(|| {
                topo.nodes
                    .iter()
                    .position(|n| matches!(n.kind, NodeKind::Internet))
            })
            .unwrap_or(0);
        PlacementContext {
            client_paths: topo.paths_from(vantage),
        }
    }

    /// Scores one candidate (lower is better): client-path latency in
    /// microseconds dominates, the occupied slot fraction (per-mille)
    /// spreads load among equally close platforms, and a bottleneck
    /// bandwidth penalty breaks remaining ties toward fatter paths.
    pub fn score(&self, platform: NodeId, used: usize, capacity: usize) -> u64 {
        let (latency_us, bandwidth_gbps) =
            match self.client_paths.get(platform).and_then(|p| p.as_ref()) {
                Some(p) => (p.latency_ns / 1_000, p.bandwidth_bps / 1_000_000_000),
                None => (UNREACHABLE_LATENCY_US, 0),
            };
        let occupancy_permille = if capacity == 0 {
            1_000
        } else {
            (used.min(capacity) as u64).saturating_mul(1_000) / capacity as u64
        };
        latency_us
            .saturating_mul(16)
            .saturating_add(occupancy_permille.saturating_mul(4))
            .saturating_add(1_000 / (1 + bandwidth_gbps))
    }

    /// Every platform of `topo` with its [`PlacementContext::score`] when
    /// `used(platform)` of its slots are taken, in node order: what
    /// [`PlacementContext::rank`] sorts, and the keys the controller's
    /// live placement order is built from.
    pub(crate) fn scored<'a>(
        &'a self,
        topo: &'a Topology,
        used: impl Fn(NodeId) -> usize + 'a,
    ) -> impl Iterator<Item = (u64, NodeId)> + 'a {
        topo.platforms().into_iter().map(move |p| {
            let capacity = match &topo.node(p).kind {
                NodeKind::Platform(spec) => spec.capacity,
                _ => 0,
            };
            (self.score(p, used(p), capacity), p)
        })
    }

    /// The topology's platforms in placement-preference order: ascending
    /// [`PlacementContext::score`] under the given per-platform module
    /// occupancy, ties broken by ascending node id. This is the
    /// from-scratch definition; the controller keeps the same order live
    /// (`modules.rs`) and re-scores one entry per commit and `kill`.
    pub fn rank(&self, topo: &Topology, occupancy: &HashMap<NodeId, usize>) -> Vec<NodeId> {
        let mut ranked: Vec<(u64, NodeId)> = self
            .scored(topo, |p| occupancy.get(&p).copied().unwrap_or(0))
            .collect();
        ranked.sort_unstable();
        ranked.into_iter().map(|(_, p)| p).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use innet_topology::{generate_fleet, FleetParams, PlatformSpec};

    #[test]
    fn classify_round_trips_the_search_reason_strings() {
        assert_eq!(
            RejectReason::classify("platform full"),
            RejectReason::PlatformFull
        );
        assert_eq!(
            RejectReason::classify("no address pool"),
            RejectReason::NoAddressPool
        );
        assert_eq!(
            RejectReason::classify("operator policy violated: reach from internet udp -> client"),
            RejectReason::PolicyViolation
        );
        assert_eq!(
            RejectReason::classify(
                "client requirement unsatisfied: reach from internet udp -> client"
            ),
            RejectReason::RequirementUnsatisfied
        );
        assert_eq!(
            RejectReason::classify("not a platform"),
            RejectReason::NotAPlatform
        );
        assert_eq!(RejectReason::classify("gremlins"), RejectReason::Other);
        assert!(RejectReason::PlatformFull.is_capacity());
        assert!(RejectReason::NoAddressPool.is_capacity());
        assert!(!RejectReason::PolicyViolation.is_capacity());
    }

    #[test]
    fn figure3_ranks_the_client_nearest_platform_first() {
        let topo = Topology::figure3();
        let ctx = PlacementContext::new(&topo);
        let ranked = ctx.rank(&topo, &HashMap::new());
        assert_eq!(ranked.len(), 3);
        // platform3 hangs directly off the border router the clients
        // attach to; platforms 1 and 2 sit behind extra middlebox hops.
        assert_eq!(topo.node(ranked[0]).name, "platform3");
    }

    #[test]
    fn occupancy_spreads_load_between_equal_platforms() {
        let mut topo = Topology::new();
        let clients = topo
            .add(
                "clients",
                NodeKind::ClientSubnet("172.16.0.0/16".parse().unwrap()),
            )
            .unwrap();
        let a = topo
            .add("pa", NodeKind::Platform(PlatformSpec::default()))
            .unwrap();
        let b = topo
            .add("pb", NodeKind::Platform(PlatformSpec::default()))
            .unwrap();
        topo.link_bidir(clients, 0, a, 0);
        topo.link_bidir(clients, 1, b, 0);
        let ctx = PlacementContext::new(&topo);

        // Empty: tie broken toward the smaller node id.
        assert_eq!(ctx.rank(&topo, &HashMap::new())[0], a);
        // Fill a substantially: b now ranks first.
        let mut occ = HashMap::new();
        occ.insert(a, 500);
        assert_eq!(ctx.rank(&topo, &occ)[0], b);
    }

    #[test]
    fn fleet_ranking_is_deterministic_and_total() {
        let topo = generate_fleet(&FleetParams::default());
        let ctx = PlacementContext::new(&topo);
        let r1 = ctx.rank(&topo, &HashMap::new());
        let r2 = ctx.rank(&topo, &HashMap::new());
        assert_eq!(r1, r2);
        assert_eq!(r1.len(), topo.platforms().len());
    }
}
