//! # innet-topology
//!
//! The operator's network model: routers with routing tables, processing
//! platforms, operator middleboxes, client subnets, and the Internet edge.
//!
//! The controller verifies every deployment request against a *snapshot*
//! of this model (paper §4.3: "this snapshot includes routing and switch
//! tables, middlebox configurations, tunnels, etc."). The topology itself
//! is pure data — the controller compiles it, together with the installed
//! processing modules, into a symbolic graph for verification.
//!
//! [`Topology::figure3`] builds the paper's running example; [`generate`]
//! grows random operator networks for the controller-scalability
//! experiment (Figure 10); [`generate_fleet`] builds seeded capacitated
//! WAN/DC fleets for multi-host placement and live migration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generate;
mod graph;

pub use generate::{generate, generate_fleet, FleetParams, GenerateParams};
pub use graph::{
    Adjacency, Link, NodeId, NodeKind, PathAttrs, PlatformSpec, TopoError, TopoNode, Topology,
    DEFAULT_LINK_BANDWIDTH_BPS, DEFAULT_LINK_LATENCY_NS,
};
