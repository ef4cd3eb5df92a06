//! # innet-controller
//!
//! The In-Net controller (paper §4.3): receives processing requests from
//! clients, statically verifies them against a snapshot of the operator's
//! network, picks a platform, and installs the processing module.
//!
//! Verification has three parts, all driven by `innet-symnet`:
//!
//! 1. **Security rules** (§2.1, §4.4) — anti-spoofing, the
//!    ownership/no-transit rule, and default-off, evaluated per requester
//!    class; unprovable-at-install-time modules are wrapped with the
//!    `ChangeEnforcer` sandbox.
//! 2. **Operator policy** — the operator's own `reach` requirements must
//!    still hold after the candidate installation.
//! 3. **Client requirements** — the client's `reach` statements must hold
//!    with the module placed on the candidate platform.
//!
//! The security rules are checked once per request, with the module's own
//! address (`$SELF`) bound to a sentinel no request may name. The
//! controller then iterates over the platforms, *pretends* the module is
//! installed on each, and commits to the first placement where policy and
//! requirements verify (§4.5's unifying example walks through exactly
//! this flow). A configuration that names `$SELF` is security-checked at
//! each candidate's address as well.
//!
//! ## Example
//!
//! ```
//! use innet_controller::{ClientRequest, Controller, ModuleConfig};
//! use innet_symnet::RequesterClass;
//! use innet_topology::Topology;
//!
//! let mut ctl = Controller::new(Topology::figure3());
//! ctl.register_client(
//!     "mobile-7",
//!     RequesterClass::Client,
//!     vec!["172.16.15.133".parse().unwrap()],
//! );
//!
//! // The paper's Figure 4 request.
//! let req = ClientRequest::parse(r#"
//!     module batcher:
//!     FromNetfront()
//!       -> IPFilter(allow udp dst port 1500)
//!       -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
//!       -> TimedUnqueue(120, 100)
//!       -> dst :: ToNetfront();
//!
//!     reach from internet udp
//!       -> batcher:dst:0 dst 172.16.15.133
//!       -> client dst port 1500
//!       const proto && dst port && payload
//! "#).unwrap();
//!
//! let resp = ctl.deploy("mobile-7", req).unwrap();
//! // Only Platform 3 is reachable from the Internet (Figure 3).
//! assert_eq!(resp.platform, "platform3");
//! assert!(!resp.sandboxed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod cache;
mod consolidate;
mod controller;
mod fleet_hooks;
mod hardening;
mod modules;
mod netmodel;
mod placement;
mod request;
mod sandbox;
mod stats;
mod stock;
mod verdicts;
mod verify;

pub use consolidate::{
    consolidated_vm_config, is_stateful, plan, plan_fleet, ConsolidationPlan,
    FleetConsolidationPlan,
};
pub use controller::{ClientAccount, Controller, DeployError, DeployResponse, FlowRule, ModuleId};
pub use fleet_hooks::ControllerHooks;
pub use hardening::{apply_udp_reflection_ban, internal_prefixes, HardeningPolicy};
pub use netmodel::{compile, InstalledModule, NetworkModel};
pub use placement::{PlacementContext, RejectReason};
pub use request::{ClientRequest, ModuleConfig, RequestParseError, StockModule};
pub use sandbox::wrap_with_enforcer;
pub use stats::ControllerStats;
pub use stock::stock_config;
pub use verdicts::{table1_catalog, table1_matrix, Table1Row};
pub use verify::{check_requirement, VerifyError};
