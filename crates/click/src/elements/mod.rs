//! The element library.
//!
//! Every class listed here has (a) a concrete packet-processing
//! implementation in this module tree and (b) an abstract model in
//! `innet-symnet` used for static verification. Client configurations may
//! only use these classes — an unknown class is rejected at request time
//! (paper §4.1).

mod classify;
mod counter;
mod dpi;
mod enforcer;
mod filter;
mod firewall;
mod header;
mod nat;
mod proxy;
mod queue;
mod respond;
mod rewrite;
mod route;
mod sched;
mod shape;
mod source_sink;
mod tee;
mod tunnel;

pub use classify::{ByteCheck, BytePattern, Classifier, IPClassifier};
pub use counter::{Counter, FlowMeter, FlowStats};
pub use dpi::Dpi;
pub use enforcer::{ChangeEnforcer, DEFAULT_AUTH_TIMEOUT_S};
pub use filter::{FilterAction, IPFilter};
pub use firewall::{StatefulFirewall, DEFAULT_TIMEOUT_S};
pub use header::{
    CheckIPHeader, DecIPTTL, EtherEncap, MarkIPHeader, SetIPDst, SetIPSrc, SetTOS, Strip,
};
pub use nat::IpNat;
pub use proxy::TransparentProxy;
pub use queue::{Queue, TimedUnqueue};
pub use respond::IcmpPingResponder;
pub use rewrite::{FieldSpec, IPRewriter, RewritePattern};
pub use route::StaticIPLookup;
pub use sched::{CheckPaint, Meter, Paint, RandomSwitch, RoundRobinSwitch, PAINT_ANNO};
pub use shape::{BandwidthShaper, RateLimiter, TokenBucket};
pub use source_sink::{netfront_iface, Discard, FromNetfront, Idle, ToNetfront};
pub use tee::{IpMulticast, Tee};
pub use tunnel::{IpDecap, IpEncap, UdpTunnelDecap, UdpTunnelEncap};
