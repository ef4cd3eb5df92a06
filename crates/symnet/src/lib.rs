//! # innet-symnet
//!
//! SymNet-style symbolic execution over abstract models of packet
//! processing elements — the static-analysis engine at the heart of In-Net
//! (paper §3, §4.3, and the SymNet paper it builds on).
//!
//! The network is treated as a distributed program and packets as its
//! variables: a [`SymPacket`] represents a *set* of concrete packets whose
//! header fields are symbolic values (constants or constrained variables).
//! Element models transform and branch symbolic packets; the engine
//! ([`SymGraph::run`]) explores every feasible path, recording per-flow
//! traces, field-write histories, and constraint stores.
//!
//! The models follow the paper's tractability restrictions: no loops, no
//! dynamic memory allocation, and middlebox flow state *pushed into the
//! flow itself* (see `FirewallModel`), making the analysis oblivious to
//! flow arrival order.
//!
//! The [`security`] module implements the In-Net security rules
//! (anti-spoofing, the ownership/no-transit rule, and default-off) as
//! tri-state predicates over egress flows, reproducing the paper's
//! Table 1.
//!
//! ## Example: the paper's Figure 2 walk-through
//!
//! ```
//! use innet_click::{ClickConfig, Registry};
//! use innet_symnet::{build_sym_graph, ExecOptions, Field, SymPacket};
//!
//! // Client -> stateful firewall -> server S (which flips the addresses)
//! // -> back through the firewall.
//! let cfg = ClickConfig::parse(r#"
//!     client :: FromNetfront();
//!     fw :: StatefulFirewall(allow udp);
//!     s :: ServerS();
//!     back :: ToNetfront();
//!     client -> [0]fw; fw[0] -> s -> [1]fw; fw[1] -> back;
//! "#).unwrap();
//!
//! let g = build_sym_graph(&cfg, &Registry::standard()).unwrap();
//! let res = g.run_named("client", 0, SymPacket::unconstrained(),
//!                       &ExecOptions::default()).unwrap();
//!
//! // Exactly one flow class survives: UDP, payload untouched, response
//! // destination bound to the original client address.
//! assert_eq!(res.egress.len(), 1);
//! let flow = &res.egress[0].1;
//! assert!(flow.provably_eq(Field::Proto, 17));
//! assert!(!flow.ever_written(Field::Payload));
//! assert!(flow.provably_same(flow.get(Field::IpDst),
//!                            flow.ingress.get(Field::IpSrc)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod field;
mod memo;
mod model;
mod models;
mod packet;
pub mod pattern;
pub mod plist;
pub mod security;
pub mod summary;
mod value;

pub use field::{Field, FieldMap, ALL_FIELDS};
pub use memo::Memo;
pub use model::{ExecOptions, ExecResult, Observe, SymElement, SymError, SymGraph, SymOut};
pub use models::{
    build_sym_graph, build_sym_graph_cached, model_for, AnyOutputModel, ChangeEnforcerModel,
    DecTtlModel, DropModel, EgressModel, ExplicitProxyModel, FirewallModel, IdentityModel,
    IpClassifierModel, IpFilterModel, ModelCache, MulticastModel, NatModel, OpaqueVmModel,
    PingResponderModel, RewriterModel, SetFieldModel, StaticLookupModel, TransparentProxyModel,
    TunnelDecapModel, TunnelEncapModel, TurnaroundServerModel,
};
pub use packet::{Hop, SymPacket, WriteRec};
pub use security::{
    check_module, check_module_summarized, check_module_with_stats, CheckStats, RequesterClass,
    SecurityContext, SecurityReport, Tri, Verdict,
};
pub use summary::{
    compose, entry_chain, summarize_chain, summarize_element, BranchOutcome, EntryChain,
    SummaryBranch, SummaryVal, SymSummary,
};
pub use value::{Origin, RangeSet, SymValue, VarId, VarInfo};
