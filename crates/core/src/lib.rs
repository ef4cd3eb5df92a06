//! # In-Net: in-network processing for the masses
//!
//! A Rust reproduction of the EuroSys 2015 paper *In-Net: In-Network
//! Processing for the Masses* (Stoenescu et al.): an architecture that
//! lets untrusted endpoints and content providers deploy custom packet
//! processing on platforms owned by network operators, gated by static
//! analysis.
//!
//! This crate is the facade over the workspace:
//!
//! | Crate | Role |
//! |---|---|
//! | [`packet`] | Packet buffers, header views, flow keys, the tcpdump-subset pattern language |
//! | [`click`] | The Click-style element library, configuration language, and runtime |
//! | [`symnet`] | SymNet-style symbolic execution and the In-Net security rules |
//! | [`policy`] | The `reach from …` requirements language |
//! | [`topology`] | The operator network model |
//! | [`controller`] | The In-Net controller: placement, verification, sandboxing |
//! | [`platform`] | The ClickOS platform: VM lifecycle, on-the-fly boot, consolidation, native execution |
//! | [`obs`] | Dependency-free observability: counters, gauges, latency histograms, reason-labeled drop accounting, Prometheus/JSON export |
//! | [`sim`] | Wide-area/device substrates: transports, radio energy, workloads |
//! | [`experiments`] | One reproducible function per table/figure of the paper's evaluation |
//!
//! ## Quickstart
//!
//! ```
//! use innet::prelude::*;
//!
//! // The operator stands up its network and controller.
//! let mut ctl = Controller::new(Topology::figure3());
//! ctl.register_client("mobile-7", RequesterClass::Client,
//!                     vec!["172.16.15.133".parse().unwrap()]);
//!
//! // A mobile client asks for the paper's Figure 4 batcher.
//! let request = ClientRequest::parse(r#"
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
//! let response = ctl.deploy("mobile-7", request).unwrap();
//! assert_eq!(response.platform, "platform3");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use innet_analysis as analysis;
pub use innet_click as click;
pub use innet_controller as controller;
pub use innet_obs as obs;
pub use innet_packet as packet;
pub use innet_platform as platform;
pub use innet_policy as policy;
pub use innet_sim as sim;
pub use innet_symnet as symnet;
pub use innet_topology as topology;

pub mod experiments;

/// The most commonly used types, re-exported flat: the one-stop client
/// surface. A tenant builds a [`prelude::ClientRequest`], an operator
/// deploys it through a [`prelude::Controller`], and the resulting
/// configuration executes on a [`prelude::ParallelRunner`] built by a
/// [`prelude::RunnerConfig`] — in the calling thread, or flow-sharded
/// across cores when more workers are asked for — all observable through
/// a [`prelude::MetricsRegistry`]. A multi-host [`prelude::Fleet`] is
/// driven through a [`prelude::FleetDriver`] timeline — traffic from a
/// [`prelude::TrafficMatrix`], incidents from a [`prelude::Scenario`].
pub mod prelude {
    pub use innet_click::{ClickConfig, Registry, Router, Shardability};
    pub use innet_controller::{
        ClientRequest, Controller, ControllerHooks, DeployError, DeployResponse, ModuleConfig,
        StockModule,
    };
    pub use innet_obs::Registry as MetricsRegistry;
    pub use innet_packet::{Cidr, FlowKey, IpProto, Packet, PacketBuilder};
    pub use innet_platform::{
        nat_gateway_config, stateful_firewall_config, ClientEntry, Fleet, FleetDriver, Host,
        ParallelRunner, ParallelStats, RunnerConfig, Scenario, ScenarioEvent, SwitchController,
        TrafficMatrix, TrafficParams,
    };
    pub use innet_policy::Requirement;
    pub use innet_symnet::{RequesterClass, SymPacket, Verdict};
    pub use innet_topology::Topology;
}
