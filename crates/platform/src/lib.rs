//! # innet-platform
//!
//! The In-Net processing platform (paper §5): a ClickOS/Xen host model
//! with the scaling mechanisms the paper adds —
//!
//! * **On-the-fly middleboxes** — the back-end switch controller detects
//!   new flows (TCP SYN / UDP) and boots a tiny ClickOS VM for them,
//!   buffering the first packets ([`SwitchController`]).
//! * **Suspend and resume** — stateful VMs are parked instead of
//!   destroyed, so per-flow state survives idle periods ([`Host`]).
//! * **Consolidation** — many stateless tenants share one VM behind an
//!   `IPClassifier` demultiplexer, which is safe because static analysis
//!   proved their configurations cannot interact
//!   ([`consolidated_config`]).
//!
//! Control-plane latencies (boot/suspend/resume) and memory are *modelled*
//! from the paper's own measurements — [`calib`] is the single source of
//! truth and cites each constant. Data-plane processing is *executed*: a
//! VM's interior is a real `innet_click::CompiledRouter`, and the
//! [`ParallelRunner`] measures real throughput for the evaluation figures.
//!
//! There is one runner, configured through one builder, [`RunnerConfig`]:
//!
//! ```
//! use innet_platform::{plain_firewall, RunnerConfig};
//!
//! let cfg = plain_firewall();
//! let single = RunnerConfig::new().batch(64).parallel(&cfg).unwrap();
//! let sharded = RunnerConfig::new().workers(4).parallel(&cfg).unwrap();
//! assert_eq!(single.effective_workers(), 1);
//! # let _ = sharded;
//! ```
//!
//! Every replica of the [`ParallelRunner`] runs the same loop — one
//! ClickOS VM is one Click thread on one vCPU. With one effective worker
//! that loop runs in the calling thread over the whole input; from two
//! up the input is split at ingress into flow-hash shares, one thread
//! per replica, according to the configuration's shardability verdict:
//! stateless configurations shard under the directed flow hash,
//! per-connection stateful ones (NAT, stateful firewall) under the
//! symmetric connection-pinning hash, and globally stateful ones degrade
//! to one worker (see [`ParallelRunner::shardability`]).
//!
//! Fleet time has one clock: a [`Fleet`] is built, populated and
//! inspected directly, but packets enter it and time advances only
//! through a [`FleetDriver`] run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
mod driver;
mod engine;
mod fleet;
mod native;
mod parallel;
mod runner;
mod scenario;
mod switch;
mod traffic;
mod vm;

pub use calib::{max_vms, VmTimingKind};
pub use driver::{DriverRun, FleetDriver};
pub use engine::Engine;
pub use fleet::{Fleet, FleetError, FleetStats, LinkReport, LinkUsage, MigrationRecord};
pub use native::{
    consolidated_config, middlebox_config, nat_gateway_config, plain_firewall, sandboxed_firewall,
    stateful_firewall_config,
};
pub use parallel::{ParallelRunner, ParallelStats};
pub use runner::{RunnerConfig, DEFAULT_BATCH};
pub use scenario::{RehomeRecord, Scenario, ScenarioEvent, ScenarioHooks, TopoHooks};
pub use switch::{ClientEntry, SwitchController, SwitchStats, Usage};
pub use traffic::{Demand, TrafficMatrix, TrafficParams};
pub use vm::{Delivery, DropReason, Host, HostError, Vm, VmId, VmState};
