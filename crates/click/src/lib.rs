//! # innet-click
//!
//! A Click-style modular packet processor: the restricted programming model
//! In-Net offers its tenants.
//!
//! The paper (§2, §4.1) argues that in-network processing should not be
//! expressed as arbitrary x86 VMs but as graphs of small, well-known packet
//! processing *elements* — the model of the Click modular router. This crate
//! reproduces that substrate:
//!
//! * [`Element`] — the unit of processing, with numbered input and output
//!   ports, push semantics, and a virtual-time `tick` for timed elements.
//! * [`elements`] — the element library: classifiers, filters, rewriters,
//!   NATs, stateful firewalls, tunnels, shapers, the batcher
//!   (`TimedUnqueue`), and the paper's `ChangeEnforcer` sandbox element.
//! * [`ClickConfig`] — the Click configuration *language* (declarations and
//!   `a -> b` connections) with a parser and a programmatic builder.
//! * [`Router`] — the runtime that instantiates a configuration and drives
//!   packets through the element graph.
//!
//! ## Example
//!
//! The paper's Figure 4 "batcher" module, parsed and executed:
//!
//! ```
//! use innet_click::{ClickConfig, Router, Registry};
//! use innet_packet::PacketBuilder;
//! use std::net::Ipv4Addr;
//!
//! let cfg = ClickConfig::parse(r#"
//!     FromNetfront()
//!       -> IPFilter(allow udp dst port 1500)
//!       -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
//!       -> TimedUnqueue(120, 100)
//!       -> dst :: ToNetfront();
//! "#).unwrap();
//!
//! let mut router = Router::from_config(&cfg, &Registry::standard()).unwrap();
//! let pkt = PacketBuilder::udp()
//!     .src(Ipv4Addr::new(8, 8, 8, 8), 999)
//!     .dst(Ipv4Addr::new(5, 5, 5, 5), 1500)
//!     .build();
//! router.deliver(0, pkt, 0);
//! // Batched: nothing emitted until the TimedUnqueue interval elapses.
//! assert!(router.take_tx().is_empty());
//! let tx = router.tick(120_000_000_000);
//! assert_eq!(tx.len(), 1);
//! assert_eq!(tx[0].1.ipv4().unwrap().dst(), Ipv4Addr::new(172, 16, 15, 133));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod canonical;
pub mod compile;
mod config;
mod element;
pub mod elements;
mod graph;
mod netfront;
mod registry;
pub mod summary;

pub use args::ConfigArgs;
pub use compile::{ClassifyProgram, CompiledRouter, FilterProgram};
pub use config::{ClickConfig, ConfigError, Connection, ElementDecl, PortRef};
pub use element::{Context, Element, ElementError, PortCount, Sink, VecSink};
pub use graph::{BatchResult, Router, RouterError, RouterStats};
pub use netfront::NetfrontRing;
pub use registry::{class_info, ClassInfo, Netfront, Registry, Shardability};
pub use summary::{
    AbsField, Constraint, ElementSummary, FieldWrite, FlowSummary, LayerOp, RtOrigin, SummaryCtor,
    SummaryKind, ABS_FIELDS,
};
