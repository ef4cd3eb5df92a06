//! Conservative per-element field-effect summaries for static analysis.
//!
//! Each summary describes, per input port, the set of flows an element can
//! emit: which header fields it constrains, which it overwrites (and with
//! what kind of value), and whether it pushes or pops a tunnel layer. The
//! `innet-analysis` crate composes summaries along every graph path with a
//! worklist abstract interpretation, yielding a config-level verdict
//! without running symbolic execution.
//!
//! **Soundness contract.** A summary mirrors the element's *symbolic
//! model* in `innet-symnet::models` — not its concrete packet-processing
//! behavior — because the fast-path verdict must agree with what SymNet
//! would conclude. A flow whose constraint list contains an inexact
//! constraint ([`Constraint::Narrow`] or [`Constraint::Opaque`]) *may* be
//! unsatisfiable (the flow may not exist); a flow with only exact
//! constraints definitely exists whenever its `Eq`/`Neq` tests pass.

use std::net::Ipv4Addr;

use innet_packet::IpProto;

use crate::{
    args::ConfigArgs,
    element::{Element, ElementError, PortCount},
    elements::{self as el, FieldSpec, FilterAction},
    registry::Registry,
};

/// The header fields of the symbolic packet model, as seen by summaries.
///
/// This is the same field set `innet-symnet` executes over; it is
/// duplicated here (rather than imported) so `innet-click` stays free of
/// a dependency on the verifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbsField {
    /// IPv4 source address.
    IpSrc,
    /// IPv4 destination address.
    IpDst,
    /// IP protocol number.
    Proto,
    /// Transport source port.
    SrcPort,
    /// Transport destination port.
    DstPort,
    /// IP time-to-live.
    Ttl,
    /// IP type-of-service byte.
    Tos,
    /// TCP SYN flag (0/1).
    TcpSyn,
    /// Opaque payload identity.
    Payload,
    /// The analysis-only firewall-authorization tag.
    FwTag,
}

/// Every [`AbsField`], in declaration order (usable as an array index via
/// [`AbsField::index`]).
pub const ABS_FIELDS: [AbsField; AbsField::COUNT] = [
    AbsField::IpSrc,
    AbsField::IpDst,
    AbsField::Proto,
    AbsField::SrcPort,
    AbsField::DstPort,
    AbsField::Ttl,
    AbsField::Tos,
    AbsField::TcpSyn,
    AbsField::Payload,
    AbsField::FwTag,
];

impl AbsField {
    /// Number of modeled fields.
    pub const COUNT: usize = 10;

    /// Dense index of this field, `0..COUNT`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            AbsField::IpSrc => "ip_src",
            AbsField::IpDst => "ip_dst",
            AbsField::Proto => "proto",
            AbsField::SrcPort => "src_port",
            AbsField::DstPort => "dst_port",
            AbsField::Ttl => "ttl",
            AbsField::Tos => "tos",
            AbsField::TcpSyn => "tcp_syn",
            AbsField::Payload => "payload",
            AbsField::FwTag => "fw_tag",
        }
    }
}

/// Provenance of a value only known at runtime (mirrors
/// `innet-symnet`'s variable origins, minus the free ingress origin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RtOrigin {
    /// Revealed by decapsulating a tunnel the analysis did not see built.
    Decap,
    /// Produced by an opaque computation (x86 VM).
    Opaque,
    /// Computed by a modeled element (NAT port choice, TTL arithmetic…).
    Computed,
}

impl RtOrigin {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            RtOrigin::Decap => "decap",
            RtOrigin::Opaque => "opaque",
            RtOrigin::Computed => "computed",
        }
    }
}

/// What an element writes into one field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldWrite {
    /// A compile-time constant.
    Const(u64),
    /// A copy of another field's value as it stood *before* this
    /// element's writes (but after its constraints).
    CopyOf(AbsField),
    /// A fresh runtime-chosen value.
    Runtime(RtOrigin),
}

/// A condition a flow's packets must satisfy to take this flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Constraint {
    /// The field provably equals the value (exact: the flow survives iff
    /// the test can hold).
    Eq(AbsField, u64),
    /// The field provably differs from the value (exact).
    Neq(AbsField, u64),
    /// The field is narrowed to some value subset (inexact: the flow may
    /// be filtered away entirely).
    Narrow(AbsField),
    /// An opaque pattern filter that may narrow *any* field or drop the
    /// flow (inexact).
    Opaque,
}

/// Tunnel-layer effect of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayerOp {
    /// No layer change.
    #[default]
    None,
    /// Push a fresh outer header (encapsulation).
    Push,
    /// Pop the outer header (decapsulation); reveals either the saved
    /// inner header or runtime-unknown fields.
    Pop,
}

/// One abstract flow through an element: packets arriving on `in_port`
/// that satisfy `constraints` leave on `out_port` after `layer` and
/// `writes` are applied (in that order, mirroring the symbolic models).
#[derive(Debug, Clone)]
pub struct FlowSummary {
    /// Input port the flow consumes from.
    pub in_port: usize,
    /// Output port the flow is emitted on.
    pub out_port: usize,
    /// Conditions, applied in order.
    pub constraints: Vec<Constraint>,
    /// Field writes, applied after `constraints` and `layer`.
    pub writes: Vec<(AbsField, FieldWrite)>,
    /// Tunnel-layer effect, applied between constraints and writes.
    pub layer: LayerOp,
}

impl FlowSummary {
    /// An unconditional pass-through flow from `in_port` to `out_port`.
    pub fn identity(in_port: usize, out_port: usize) -> FlowSummary {
        FlowSummary {
            in_port,
            out_port,
            constraints: Vec::new(),
            writes: Vec::new(),
            layer: LayerOp::None,
        }
    }

    /// Whether every constraint is exact (`Eq`/`Neq`): an unfiltered flow
    /// definitely exists when its tests pass.
    pub fn is_exact(&self) -> bool {
        self.constraints
            .iter()
            .all(|c| matches!(c, Constraint::Eq(..) | Constraint::Neq(..)))
    }
}

/// What kind of node an element is in the abstract flow graph.
#[derive(Debug, Clone)]
pub enum SummaryKind {
    /// A transform with zero or more flows per input port.
    Flows(Vec<FlowSummary>),
    /// Terminal egress to the network (`ToNetfront`).
    Egress,
    /// Absorbs everything (`Discard`, `Idle`).
    Sink,
}

/// How an element's state interacts with flow-sharded replication — the
/// three-point lattice behind the parallel runner's worker-count verdict.
///
/// The variants are ordered `Stateless < FlowPartitionable < Global`
/// (derived `Ord`), so a configuration's verdict is simply the `max`
/// over its elements: one `Global` element poisons the whole config,
/// one `FlowPartitionable` element upgrades dispatch from the directed
/// flow hash to the symmetric (connection-pinning) hash, and an
/// all-`Stateless` config shards freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Shardability {
    /// Forwarding is a pure function of the packet: replicas make
    /// identical per-packet decisions, so any flow-to-worker pinning
    /// keeps output order-identical to a single instance.
    Stateless,
    /// Forwarding depends on state keyed by the *connection* (the
    /// canonical 5-tuple): NAT translation tables, firewall connection
    /// tracking, per-flow meters. Replicas stay equivalent to a single
    /// instance as long as both directions of every connection are
    /// pinned to the same replica — which the symmetric dispatch hash
    /// guarantees — because then each replica owns a disjoint slice of
    /// the connection-state table.
    FlowPartitionable,
    /// Forwarding depends on state shared *across* connections (token
    /// buckets, queues, round-robin schedulers, opaque x86 VMs): no
    /// flow-to-worker pinning can keep replicas equivalent, and the
    /// runner degrades the configuration to a single worker.
    Global,
}

impl Shardability {
    /// Short display name (`stateless` / `flow` / `global`).
    pub fn name(self) -> &'static str {
        match self {
            Shardability::Stateless => "stateless",
            Shardability::FlowPartitionable => "flow",
            Shardability::Global => "global",
        }
    }
}

/// The complete field-effect summary of one configured element.
#[derive(Debug, Clone)]
pub struct ElementSummary {
    /// Port signature of the element.
    pub ports: PortCount,
    /// Flow behavior.
    pub kind: SummaryKind,
    /// Whether this element breaks combinational cycles (queues,
    /// shapers — anything that decouples input from output in time).
    pub queue_like: bool,
    /// Where this element sits on the replication-safety lattice: what
    /// kind of cross-packet state (if any) its forwarding depends on,
    /// and therefore what dispatch discipline flow-sharded execution
    /// needs to replicate it faithfully. See [`Shardability`].
    pub shardability: Shardability,
}

impl ElementSummary {
    /// A one-in one-out pass-through element.
    pub fn identity() -> ElementSummary {
        ElementSummary {
            ports: PortCount::ONE_ONE,
            kind: SummaryKind::Flows(vec![FlowSummary::identity(0, 0)]),
            queue_like: false,
            shardability: Shardability::Stateless,
        }
    }

    /// A transform with the given ports and flows.
    pub fn flows(ports: PortCount, flows: Vec<FlowSummary>) -> ElementSummary {
        ElementSummary {
            ports,
            kind: SummaryKind::Flows(flows),
            queue_like: false,
            shardability: Shardability::Stateless,
        }
    }

    /// Marks the element as cycle-breaking.
    pub fn queue_like(mut self) -> ElementSummary {
        self.queue_like = true;
        self
    }

    /// Marks the element's forwarding as dependent on per-connection
    /// state ([`Shardability::FlowPartitionable`]).
    pub fn flow_state(mut self) -> ElementSummary {
        self.shardability = Shardability::FlowPartitionable;
        self
    }

    /// Marks the element's forwarding as dependent on cross-connection
    /// state ([`Shardability::Global`]).
    pub fn global_state(mut self) -> ElementSummary {
        self.shardability = Shardability::Global;
        self
    }

    /// Whether forwarding depends on *any* cross-packet state (the old
    /// boolean view of the lattice).
    pub fn is_stateful(&self) -> bool {
        self.shardability != Shardability::Stateless
    }

    /// All flows consuming from `in_port` (empty for egress/sinks).
    pub fn flows_from(&self, in_port: usize) -> impl Iterator<Item = &FlowSummary> {
        let flows = match &self.kind {
            SummaryKind::Flows(f) => f.as_slice(),
            _ => &[],
        };
        flows.iter().filter(move |f| f.in_port == in_port)
    }
}

/// Constructor signature for a class summary: parses the element's
/// arguments (sharing validation with the runtime constructor) and
/// returns its field-effect summary.
pub type SummaryCtor = fn(&[String]) -> Result<ElementSummary, ElementError>;

fn a64(a: Ipv4Addr) -> u64 {
    u32::from(a) as u64
}

fn proto(p: IpProto) -> u64 {
    p.number() as u64
}

/// One over-approximating flow per output, no constraints: the element
/// definitely emits on every output (`Tee`, `Classifier`, switches…).
fn any_output(outputs: usize) -> ElementSummary {
    let flows = (0..outputs).map(|o| FlowSummary::identity(0, o)).collect();
    ElementSummary::flows(PortCount::new(1, outputs), flows)
}

fn from_netfront(args: &[String]) -> Result<ElementSummary, ElementError> {
    el::netfront_iface(&ConfigArgs::new("FromNetfront", args))?;
    Ok(ElementSummary::identity())
}

fn to_netfront(args: &[String]) -> Result<ElementSummary, ElementError> {
    el::netfront_iface(&ConfigArgs::new("ToNetfront", args))?;
    Ok(ElementSummary {
        ports: PortCount::new(1, 0),
        kind: SummaryKind::Egress,
        queue_like: false,
        shardability: Shardability::Stateless,
    })
}

fn discard_sink(args: &[String]) -> Result<ElementSummary, ElementError> {
    ConfigArgs::new("Discard", args).expect_len(0)?;
    Ok(ElementSummary {
        ports: PortCount::new(1, 0),
        kind: SummaryKind::Sink,
        queue_like: false,
        shardability: Shardability::Stateless,
    })
}

fn idle_sink(args: &[String]) -> Result<ElementSummary, ElementError> {
    ConfigArgs::new("Idle", args).expect_len(0)?;
    // Idle declares an output port but never emits on it.
    Ok(ElementSummary {
        ports: PortCount::ONE_ONE,
        kind: SummaryKind::Sink,
        queue_like: false,
        shardability: Shardability::Stateless,
    })
}

macro_rules! identity_summary {
    ($class:literal, no_args) => {
        |args: &[String]| -> Result<ElementSummary, ElementError> {
            ConfigArgs::new($class, args).expect_len(0)?;
            Ok(ElementSummary::identity())
        }
    };
    ($class:literal, $ty:ty) => {
        |args: &[String]| -> Result<ElementSummary, ElementError> {
            <$ty>::from_args(&ConfigArgs::new($class, args))?;
            Ok(ElementSummary::identity())
        }
    };
    // Per-connection measurement state (FlowMeter): safe to shard as
    // long as both directions of a connection stay on one worker.
    ($class:literal, no_args, flow) => {
        |args: &[String]| -> Result<ElementSummary, ElementError> {
            ConfigArgs::new($class, args).expect_len(0)?;
            Ok(ElementSummary::identity().flow_state())
        }
    };
    // Queue-like elements decouple input from output in time, which also
    // makes them global state for sharding: their emission schedule (and
    // shared token bucket / buffer) depends on every packet they have
    // absorbed so far, across all flows.
    ($class:literal, $ty:ty, queue) => {
        |args: &[String]| -> Result<ElementSummary, ElementError> {
            <$ty>::from_args(&ConfigArgs::new($class, args))?;
            Ok(ElementSummary::identity().queue_like().global_state())
        }
    };
}

macro_rules! any_output_summary {
    ($class:literal, $ty:ty) => {
        |args: &[String]| -> Result<ElementSummary, ElementError> {
            let e = <$ty>::from_args(&ConfigArgs::new($class, args))?;
            Ok(any_output(Element::ports(&e).outputs))
        }
    };
    // Per-connection inspection state (DPI counters): shardable under
    // symmetric dispatch.
    ($class:literal, $ty:ty, flow) => {
        |args: &[String]| -> Result<ElementSummary, ElementError> {
            let e = <$ty>::from_args(&ConfigArgs::new($class, args))?;
            Ok(any_output(Element::ports(&e).outputs).flow_state())
        }
    };
    // Output choice depends on cross-flow arrival history (schedulers,
    // token buckets, seeded rngs) — safe to verify, unsafe to replicate.
    ($class:literal, $ty:ty, global) => {
        |args: &[String]| -> Result<ElementSummary, ElementError> {
            let e = <$ty>::from_args(&ConfigArgs::new($class, args))?;
            Ok(any_output(Element::ports(&e).outputs).global_state())
        }
    };
}

fn ip_classifier(args: &[String]) -> Result<ElementSummary, ElementError> {
    let c = el::IPClassifier::from_args(&ConfigArgs::new("IPClassifier", args))?;
    let n = c.rules().len();
    let flows = (0..n)
        .map(|i| FlowSummary {
            in_port: 0,
            out_port: i,
            constraints: vec![Constraint::Opaque],
            writes: Vec::new(),
            layer: LayerOp::None,
        })
        .collect();
    Ok(ElementSummary::flows(PortCount::new(1, n), flows))
}

fn ip_filter(args: &[String]) -> Result<ElementSummary, ElementError> {
    let f = el::IPFilter::from_args(&ConfigArgs::new("IPFilter", args))?;
    let any_allow = f
        .rules()
        .iter()
        .any(|(a, _)| matches!(a, FilterAction::Allow));
    let flows = if any_allow {
        vec![FlowSummary {
            in_port: 0,
            out_port: 0,
            constraints: vec![Constraint::Opaque],
            writes: Vec::new(),
            layer: LayerOp::None,
        }]
    } else {
        Vec::new()
    };
    Ok(ElementSummary::flows(PortCount::ONE_ONE, flows))
}

fn dec_ip_ttl(args: &[String]) -> Result<ElementSummary, ElementError> {
    ConfigArgs::new("DecIPTTL", args).expect_len(0)?;
    Ok(ElementSummary::flows(
        PortCount::ONE_ONE,
        vec![FlowSummary {
            in_port: 0,
            out_port: 0,
            constraints: vec![Constraint::Narrow(AbsField::Ttl)],
            writes: vec![(AbsField::Ttl, FieldWrite::Runtime(RtOrigin::Computed))],
            layer: LayerOp::None,
        }],
    ))
}

fn set_field(
    class: &'static str,
    field: AbsField,
    value: u64,
) -> Result<ElementSummary, ElementError> {
    let _ = class;
    Ok(ElementSummary::flows(
        PortCount::ONE_ONE,
        vec![FlowSummary {
            in_port: 0,
            out_port: 0,
            constraints: Vec::new(),
            writes: vec![(field, FieldWrite::Const(value))],
            layer: LayerOp::None,
        }],
    ))
}

fn set_ip_src(args: &[String]) -> Result<ElementSummary, ElementError> {
    let s = el::SetIPSrc::from_args(&ConfigArgs::new("SetIPSrc", args))?;
    set_field("SetIPSrc", AbsField::IpSrc, a64(s.addr()))
}

fn set_ip_dst(args: &[String]) -> Result<ElementSummary, ElementError> {
    let s = el::SetIPDst::from_args(&ConfigArgs::new("SetIPDst", args))?;
    set_field("SetIPDst", AbsField::IpDst, a64(s.addr()))
}

fn set_tos(args: &[String]) -> Result<ElementSummary, ElementError> {
    el::SetTOS::from_args(&ConfigArgs::new("SetTOS", args))?;
    // Value re-parsed the same way the symbolic model does.
    let v: u64 = args
        .first()
        .and_then(|a| a.trim().parse().ok())
        .unwrap_or(0);
    set_field("SetTOS", AbsField::Tos, v)
}

fn firewall(args: &[String]) -> Result<ElementSummary, ElementError> {
    let f = el::StatefulFirewall::from_args(&ConfigArgs::new("StatefulFirewall", args))?;
    let mut flows = Vec::new();
    if !f.allow_rules().is_empty() {
        flows.push(FlowSummary {
            in_port: 0,
            out_port: 0,
            constraints: vec![Constraint::Opaque],
            writes: vec![(AbsField::FwTag, FieldWrite::Const(1))],
            layer: LayerOp::None,
        });
    }
    flows.push(FlowSummary {
        in_port: 1,
        out_port: 1,
        constraints: vec![Constraint::Eq(AbsField::FwTag, 1)],
        writes: Vec::new(),
        layer: LayerOp::None,
    });
    Ok(ElementSummary::flows(PortCount::new(2, 2), flows).flow_state())
}

fn nat(args: &[String]) -> Result<ElementSummary, ElementError> {
    let n = el::IpNat::from_args(&ConfigArgs::new("IPNAT", args))?;
    let public = a64(n.public_addr());
    Ok(ElementSummary::flows(
        PortCount::new(2, 2),
        vec![
            FlowSummary {
                in_port: 0,
                out_port: 0,
                constraints: Vec::new(),
                writes: vec![
                    (AbsField::IpSrc, FieldWrite::Const(public)),
                    (AbsField::SrcPort, FieldWrite::Runtime(RtOrigin::Computed)),
                ],
                layer: LayerOp::None,
            },
            FlowSummary {
                in_port: 1,
                out_port: 1,
                constraints: vec![Constraint::Eq(AbsField::IpDst, public)],
                writes: vec![
                    (AbsField::IpDst, FieldWrite::Runtime(RtOrigin::Computed)),
                    (AbsField::DstPort, FieldWrite::Runtime(RtOrigin::Computed)),
                ],
                layer: LayerOp::None,
            },
        ],
    )
    .flow_state())
}

fn rewriter(args: &[String]) -> Result<ElementSummary, ElementError> {
    let r = el::IPRewriter::from_args(&ConfigArgs::new("IPRewriter", args))?;
    let p = r.pattern().clone();
    let ports = Element::ports(&r);
    let mut fwd_writes = Vec::new();
    if let FieldSpec::Set(a) = p.saddr {
        fwd_writes.push((AbsField::IpSrc, FieldWrite::Const(a64(a))));
    }
    if let FieldSpec::Set(sp) = p.sport {
        fwd_writes.push((AbsField::SrcPort, FieldWrite::Const(sp as u64)));
    }
    if let FieldSpec::Set(a) = p.daddr {
        fwd_writes.push((AbsField::IpDst, FieldWrite::Const(a64(a))));
    }
    if let FieldSpec::Set(dp) = p.dport {
        fwd_writes.push((AbsField::DstPort, FieldWrite::Const(dp as u64)));
    }
    Ok(ElementSummary::flows(
        ports,
        vec![
            FlowSummary {
                in_port: 0,
                out_port: p.fwd_out,
                constraints: Vec::new(),
                writes: fwd_writes,
                layer: LayerOp::None,
            },
            FlowSummary {
                in_port: 1,
                out_port: p.rev_out,
                constraints: Vec::new(),
                writes: vec![
                    (AbsField::IpSrc, FieldWrite::Runtime(RtOrigin::Computed)),
                    (AbsField::SrcPort, FieldWrite::Runtime(RtOrigin::Computed)),
                    (AbsField::IpDst, FieldWrite::Runtime(RtOrigin::Computed)),
                    (AbsField::DstPort, FieldWrite::Runtime(RtOrigin::Computed)),
                ],
                layer: LayerOp::None,
            },
        ],
    )
    .global_state())
}

fn transparent_proxy(args: &[String]) -> Result<ElementSummary, ElementError> {
    let t = el::TransparentProxy::from_args(&ConfigArgs::new("TransparentProxy", args))?;
    let (proxy, proxy_port, intercept) = t.params();
    let tcp = proto(IpProto::Tcp);
    Ok(ElementSummary::flows(
        PortCount::new(2, 2),
        vec![
            // Intercepted: TCP to the intercept port, redirected.
            FlowSummary {
                in_port: 0,
                out_port: 0,
                constraints: vec![
                    Constraint::Eq(AbsField::Proto, tcp),
                    Constraint::Eq(AbsField::DstPort, intercept as u64),
                ],
                writes: vec![
                    (AbsField::IpDst, FieldWrite::Const(a64(proxy))),
                    (AbsField::DstPort, FieldWrite::Const(proxy_port as u64)),
                ],
                layer: LayerOp::None,
            },
            // Pass-through: not TCP.
            FlowSummary {
                in_port: 0,
                out_port: 0,
                constraints: vec![Constraint::Neq(AbsField::Proto, tcp)],
                writes: Vec::new(),
                layer: LayerOp::None,
            },
            // Pass-through: TCP to another port.
            FlowSummary {
                in_port: 0,
                out_port: 0,
                constraints: vec![
                    Constraint::Eq(AbsField::Proto, tcp),
                    Constraint::Neq(AbsField::DstPort, intercept as u64),
                ],
                writes: Vec::new(),
                layer: LayerOp::None,
            },
            // Reverse path: unknown original server restored.
            FlowSummary {
                in_port: 1,
                out_port: 1,
                constraints: Vec::new(),
                writes: vec![
                    (AbsField::IpSrc, FieldWrite::Runtime(RtOrigin::Computed)),
                    (AbsField::SrcPort, FieldWrite::Runtime(RtOrigin::Computed)),
                ],
                layer: LayerOp::None,
            },
        ],
    )
    .global_state())
}

fn encap_flows(
    p: u64,
    src: u64,
    sport: Option<u64>,
    dst: u64,
    dport: Option<u64>,
) -> Vec<FlowSummary> {
    let mut writes = vec![
        (AbsField::Proto, FieldWrite::Const(p)),
        (AbsField::IpSrc, FieldWrite::Const(src)),
        (AbsField::IpDst, FieldWrite::Const(dst)),
    ];
    if let Some(sp) = sport {
        writes.push((AbsField::SrcPort, FieldWrite::Const(sp)));
    }
    if let Some(dp) = dport {
        writes.push((AbsField::DstPort, FieldWrite::Const(dp)));
    }
    writes.push((AbsField::Ttl, FieldWrite::Const(64)));
    vec![FlowSummary {
        in_port: 0,
        out_port: 0,
        constraints: Vec::new(),
        writes,
        layer: LayerOp::Push,
    }]
}

fn udp_tunnel_encap(args: &[String]) -> Result<ElementSummary, ElementError> {
    let t = el::UdpTunnelEncap::from_args(&ConfigArgs::new("UDPTunnelEncap", args))?;
    let (src, sport, dst, dport) = t.params();
    Ok(ElementSummary::flows(
        PortCount::ONE_ONE,
        encap_flows(
            proto(IpProto::Udp),
            a64(src),
            Some(sport as u64),
            a64(dst),
            Some(dport as u64),
        ),
    ))
}

fn ip_encap(args: &[String]) -> Result<ElementSummary, ElementError> {
    let t = el::IpEncap::from_args(&ConfigArgs::new("IPEncap", args))?;
    let (src, dst) = t.params();
    Ok(ElementSummary::flows(
        PortCount::ONE_ONE,
        encap_flows(proto(IpProto::IpIp), a64(src), None, a64(dst), None),
    ))
}

fn decap(p: u64) -> ElementSummary {
    ElementSummary::flows(
        PortCount::ONE_ONE,
        vec![FlowSummary {
            in_port: 0,
            out_port: 0,
            constraints: vec![Constraint::Eq(AbsField::Proto, p)],
            writes: Vec::new(),
            layer: LayerOp::Pop,
        }],
    )
}

fn udp_tunnel_decap(args: &[String]) -> Result<ElementSummary, ElementError> {
    ConfigArgs::new("UDPTunnelDecap", args).expect_len(0)?;
    Ok(decap(proto(IpProto::Udp)))
}

fn ip_decap(args: &[String]) -> Result<ElementSummary, ElementError> {
    ConfigArgs::new("IPDecap", args).expect_len(0)?;
    Ok(decap(proto(IpProto::IpIp)))
}

fn multicast(args: &[String]) -> Result<ElementSummary, ElementError> {
    let m = el::IpMulticast::from_args(&ConfigArgs::new("IPMulticast", args))?;
    let flows = m
        .destinations()
        .iter()
        .map(|&d| FlowSummary {
            in_port: 0,
            out_port: 0,
            constraints: Vec::new(),
            writes: vec![(AbsField::IpDst, FieldWrite::Const(a64(d)))],
            layer: LayerOp::None,
        })
        .collect();
    Ok(ElementSummary::flows(PortCount::ONE_ONE, flows))
}

fn ping_responder(args: &[String]) -> Result<ElementSummary, ElementError> {
    ConfigArgs::new("ICMPPingResponder", args).expect_len(0)?;
    Ok(ElementSummary::flows(
        PortCount::ONE_ONE,
        vec![FlowSummary {
            in_port: 0,
            out_port: 0,
            constraints: vec![Constraint::Eq(AbsField::Proto, proto(IpProto::Icmp))],
            writes: vec![
                (AbsField::IpSrc, FieldWrite::CopyOf(AbsField::IpDst)),
                (AbsField::IpDst, FieldWrite::CopyOf(AbsField::IpSrc)),
            ],
            layer: LayerOp::None,
        }],
    ))
}

fn static_lookup(args: &[String]) -> Result<ElementSummary, ElementError> {
    let l = el::StaticIPLookup::from_args(&ConfigArgs::new("StaticIPLookup", args))?;
    let ports = Element::ports(&l);
    let flows = l
        .routes()
        .iter()
        .map(|&(_, port)| FlowSummary {
            in_port: 0,
            out_port: port,
            constraints: vec![Constraint::Narrow(AbsField::IpDst)],
            writes: Vec::new(),
            layer: LayerOp::None,
        })
        .collect();
    Ok(ElementSummary::flows(ports, flows))
}

fn change_enforcer(args: &[String]) -> Result<ElementSummary, ElementError> {
    let c = el::ChangeEnforcer::from_args(&ConfigArgs::new("ChangeEnforcer", args))?;
    let module = a64(c.params().0);
    Ok(ElementSummary::flows(
        PortCount::new(2, 2),
        vec![
            FlowSummary::identity(0, 0),
            FlowSummary {
                in_port: 1,
                out_port: 1,
                constraints: vec![Constraint::Eq(AbsField::IpSrc, module)],
                writes: Vec::new(),
                layer: LayerOp::None,
            },
        ],
    )
    .global_state())
}

fn stock_addr(class: &str, args: &[String]) -> Result<u64, ElementError> {
    args.first()
        .and_then(|a| a.trim().parse::<Ipv4Addr>().ok())
        .map(a64)
        .ok_or_else(|| ElementError::BadArgs {
            class: "Stock",
            message: format!("{class}: bad address argument 0"),
        })
}

fn stock_x86_vm(_args: &[String]) -> Result<ElementSummary, ElementError> {
    let writes = ABS_FIELDS
        .iter()
        .map(|&f| (f, FieldWrite::Runtime(RtOrigin::Opaque)))
        .collect();
    Ok(ElementSummary::flows(
        PortCount::ONE_ONE,
        vec![FlowSummary {
            in_port: 0,
            out_port: 0,
            constraints: Vec::new(),
            writes,
            layer: LayerOp::None,
        }],
    )
    // Arbitrary x86: assume the worst about internal state.
    .global_state())
}

fn stock_explicit_proxy(args: &[String]) -> Result<ElementSummary, ElementError> {
    let own = stock_addr("StockExplicitProxy", args)?;
    Ok(ElementSummary::flows(
        PortCount::ONE_ONE,
        vec![FlowSummary {
            in_port: 0,
            out_port: 0,
            constraints: Vec::new(),
            writes: vec![
                (AbsField::IpSrc, FieldWrite::Const(own)),
                (AbsField::IpDst, FieldWrite::Runtime(RtOrigin::Computed)),
                (AbsField::SrcPort, FieldWrite::Runtime(RtOrigin::Computed)),
                (AbsField::DstPort, FieldWrite::Runtime(RtOrigin::Computed)),
                (AbsField::Payload, FieldWrite::Runtime(RtOrigin::Computed)),
            ],
            layer: LayerOp::None,
        }],
    )
    .global_state())
}

fn turnaround(
    p: Option<u64>,
    listen: Option<u64>,
    own: Option<u64>,
    fresh_payload: bool,
) -> ElementSummary {
    let mut constraints = Vec::new();
    if let Some(p) = p {
        constraints.push(Constraint::Eq(AbsField::Proto, p));
    }
    if let Some(port) = listen {
        constraints.push(Constraint::Eq(AbsField::DstPort, port));
    }
    let src_write = match own {
        Some(a) => FieldWrite::Const(a),
        None => FieldWrite::CopyOf(AbsField::IpDst),
    };
    let mut writes = vec![
        (AbsField::IpSrc, src_write),
        (AbsField::IpDst, FieldWrite::CopyOf(AbsField::IpSrc)),
        (AbsField::SrcPort, FieldWrite::CopyOf(AbsField::DstPort)),
        (AbsField::DstPort, FieldWrite::CopyOf(AbsField::SrcPort)),
    ];
    if fresh_payload {
        writes.push((AbsField::Payload, FieldWrite::Runtime(RtOrigin::Computed)));
    }
    ElementSummary::flows(
        PortCount::ONE_ONE,
        vec![FlowSummary {
            in_port: 0,
            out_port: 0,
            constraints,
            writes,
            layer: LayerOp::None,
        }],
    )
}

fn server_s(_args: &[String]) -> Result<ElementSummary, ElementError> {
    Ok(turnaround(Some(proto(IpProto::Udp)), None, None, false).global_state())
}

fn stock_dns(args: &[String]) -> Result<ElementSummary, ElementError> {
    let own = stock_addr("StockDNSServer", args)?;
    Ok(turnaround(Some(proto(IpProto::Udp)), Some(53), Some(own), true).global_state())
}

fn stock_reverse_proxy(args: &[String]) -> Result<ElementSummary, ElementError> {
    let own = stock_addr("StockReverseProxy", args)?;
    Ok(turnaround(Some(proto(IpProto::Tcp)), Some(80), Some(own), true).global_state())
}

/// Registers the field-effect summaries of the standard element library
/// (plus the controller's `Stock*` pseudo-classes) into `r`.
pub(crate) fn register_standard(r: &mut Registry) {
    // Sources, sinks.
    r.register_summary("FromNetfront", from_netfront);
    r.register_summary("FromDevice", from_netfront);
    r.register_summary("ToNetfront", to_netfront);
    r.register_summary("ToDevice", to_netfront);
    r.register_summary("Discard", discard_sink);
    r.register_summary("Idle", idle_sink);

    // Classification and filtering.
    r.register_summary(
        "Classifier",
        any_output_summary!("Classifier", el::Classifier),
    );
    r.register_summary("IPClassifier", ip_classifier);
    r.register_summary("IPFilter", ip_filter);

    // Header manipulation.
    r.register_summary("CheckIPHeader", identity_summary!("CheckIPHeader", no_args));
    r.register_summary(
        "MarkIPHeader",
        identity_summary!("MarkIPHeader", el::MarkIPHeader),
    );
    r.register_summary("DecIPTTL", dec_ip_ttl);
    r.register_summary("SetIPSrc", set_ip_src);
    r.register_summary("SetIPDst", set_ip_dst);
    r.register_summary("SetTOS", set_tos);
    r.register_summary("Strip", identity_summary!("Strip", el::Strip));
    r.register_summary(
        "EtherEncap",
        identity_summary!("EtherEncap", el::EtherEncap),
    );

    // Measurement.
    r.register_summary("Counter", identity_summary!("Counter", no_args));
    r.register_summary("FlowMeter", identity_summary!("FlowMeter", no_args, flow));

    // Shaping and queueing (cycle-breaking).
    r.register_summary(
        "RateLimiter",
        identity_summary!("RateLimiter", el::RateLimiter, queue),
    );
    r.register_summary(
        "BandwidthShaper",
        identity_summary!("BandwidthShaper", el::BandwidthShaper, queue),
    );
    r.register_summary("Queue", identity_summary!("Queue", el::Queue, queue));
    r.register_summary(
        "TimedUnqueue",
        identity_summary!("TimedUnqueue", el::TimedUnqueue, queue),
    );

    // Stateful middleboxes.
    r.register_summary("StatefulFirewall", firewall);
    r.register_summary("IPNAT", nat);
    r.register_summary("IPRewriter", rewriter);
    r.register_summary("TransparentProxy", transparent_proxy);

    // Tunnels.
    r.register_summary("UDPTunnelEncap", udp_tunnel_encap);
    r.register_summary("UDPTunnelDecap", udp_tunnel_decap);
    r.register_summary("IPEncap", ip_encap);
    r.register_summary("IPDecap", ip_decap);

    // Scheduling and annotations.
    r.register_summary(
        "RoundRobinSwitch",
        any_output_summary!("RoundRobinSwitch", el::RoundRobinSwitch, global),
    );
    r.register_summary(
        "RandomSwitch",
        any_output_summary!("RandomSwitch", el::RandomSwitch, global),
    );
    r.register_summary("Meter", any_output_summary!("Meter", el::Meter, global));
    r.register_summary("Paint", identity_summary!("Paint", el::Paint));
    r.register_summary(
        "CheckPaint",
        any_output_summary!("CheckPaint", el::CheckPaint),
    );

    // Duplication, inspection, responders.
    r.register_summary("Tee", any_output_summary!("Tee", el::Tee));
    r.register_summary("IPMulticast", multicast);
    r.register_summary("DPI", any_output_summary!("DPI", el::Dpi, flow));
    r.register_summary("ICMPPingResponder", ping_responder);
    r.register_summary("StaticIPLookup", static_lookup);

    // Sandboxing.
    r.register_summary("ChangeEnforcer", change_enforcer);

    // Stock pseudo-classes (no Click constructor; the controller
    // materializes them directly).
    r.register_summary("StockX86VM", stock_x86_vm);
    r.register_summary("StockExplicitProxy", stock_explicit_proxy);
    r.register_summary("StockDNSServer", stock_dns);
    r.register_summary("StockReverseProxy", stock_reverse_proxy);
    r.register_summary("ServerS", server_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_summarizes_every_class() {
        let r = Registry::standard();
        for class in r.classes() {
            assert!(r.has_summary(class), "no summary for {class}");
        }
        for stock in [
            "StockX86VM",
            "StockExplicitProxy",
            "StockDNSServer",
            "StockReverseProxy",
            "ServerS",
        ] {
            assert!(r.has_summary(stock), "no summary for {stock}");
        }
    }

    #[test]
    fn summary_arg_validation_matches_ctor() {
        let r = Registry::standard();
        // Bad args fail the summary the same way they fail instantiation.
        assert!(r.summary("SetIPSrc", &["not-an-ip".into()]).is_err());
        assert!(r.instantiate("SetIPSrc", &["not-an-ip".into()]).is_err());
        for class in ["FromNetfront", "FromDevice", "ToNetfront", "ToDevice"] {
            for args in [&[][..], &["3"], &["65536"], &["x"], &["1", "2"]] {
                let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                match (r.summary(class, &args), r.instantiate(class, &args)) {
                    (Ok(s), Ok(e)) => assert_eq!(s.ports, e.ports(), "{class}{args:?}"),
                    (s, e) => assert_eq!(s.is_ok(), e.is_ok(), "{class}{args:?}"),
                }
            }
        }
        let ok = r.summary("SetIPSrc", &["10.0.0.1".into()]).unwrap();
        match ok.kind {
            SummaryKind::Flows(f) => {
                assert_eq!(f.len(), 1);
                assert_eq!(
                    f[0].writes,
                    vec![(
                        AbsField::IpSrc,
                        FieldWrite::Const(u32::from(std::net::Ipv4Addr::new(10, 0, 0, 1)) as u64)
                    )]
                );
            }
            _ => panic!("SetIPSrc must be a transform"),
        }
    }

    #[test]
    fn queue_classes_are_cycle_breaking() {
        let r = Registry::standard();
        for (class, args) in [
            ("Queue", vec!["16".to_string()]),
            ("TimedUnqueue", vec!["120".to_string(), "100".to_string()]),
        ] {
            assert!(r.summary(class, &args).unwrap().queue_like, "{class}");
        }
        assert!(!r.summary("Counter", &[]).unwrap().queue_like);
    }

    #[test]
    fn shardability_classification() {
        let r = Registry::standard();
        // Per-connection state (flow tables keyed by the 5-tuple):
        // shardable once both directions pin to one worker.
        for (class, args) in [
            ("StatefulFirewall", vec!["allow udp".to_string()]),
            ("IPNAT", vec!["5.5.5.5".to_string()]),
            ("FlowMeter", vec![]),
            ("DPI", vec!["attack".to_string()]),
        ] {
            let s = r.summary(class, &args).unwrap();
            assert_eq!(s.shardability, Shardability::FlowPartitionable, "{class}");
            assert!(s.is_stateful(), "{class}");
        }
        // Cross-connection state (token buckets, schedulers, buffers,
        // black boxes): never shardable.
        for (class, args) in [
            ("IPRewriter", vec!["pattern - - 1.2.3.4 - 0 0".to_string()]),
            (
                "TransparentProxy",
                vec!["9.9.9.9".to_string(), "3128".to_string(), "80".to_string()],
            ),
            (
                "ChangeEnforcer",
                vec!["1.1.1.1".to_string(), "2.2.2.2".to_string()],
            ),
            ("Queue", vec!["16".to_string()]),
            ("TimedUnqueue", vec!["120".to_string(), "100".to_string()]),
            ("RateLimiter", vec!["1000".to_string()]),
            ("RoundRobinSwitch", vec!["2".to_string()]),
            ("Meter", vec!["1000".to_string()]),
            ("StockX86VM", vec![]),
        ] {
            let s = r.summary(class, &args).unwrap();
            assert_eq!(s.shardability, Shardability::Global, "{class}");
            assert!(s.is_stateful(), "{class}");
        }
        // Pure functions of the packet replicate safely under any
        // dispatch discipline.
        for (class, args) in [
            ("Counter", vec![]),
            ("CheckIPHeader", vec![]),
            ("DecIPTTL", vec![]),
            ("IPFilter", vec!["allow udp".to_string()]),
            ("SetIPSrc", vec!["10.0.0.1".to_string()]),
            ("Tee", vec!["2".to_string()]),
            ("FromNetfront", vec![]),
            ("ToNetfront", vec![]),
            ("Discard", vec![]),
        ] {
            let s = r.summary(class, &args).unwrap();
            assert_eq!(s.shardability, Shardability::Stateless, "{class}");
            assert!(!s.is_stateful(), "{class}");
        }
    }

    #[test]
    fn shardability_lattice_order() {
        use Shardability::*;
        // The config verdict is a lattice join (max): these orderings
        // are what `Registry::config_shardability` relies on.
        assert!(Stateless < FlowPartitionable);
        assert!(FlowPartitionable < Global);
        assert_eq!(Stateless.max(FlowPartitionable), FlowPartitionable);
        assert_eq!(FlowPartitionable.max(Global), Global);
        assert_eq!(Stateless.name(), "stateless");
        assert_eq!(FlowPartitionable.name(), "flow");
        assert_eq!(Global.name(), "global");
    }

    #[test]
    fn exactness_classification() {
        let r = Registry::standard();
        // Turnaround servers are exact: their flows definitely exist.
        let s = r.summary("ServerS", &[]).unwrap();
        if let SummaryKind::Flows(f) = &s.kind {
            assert!(f.iter().all(FlowSummary::is_exact));
        }
        // Pattern filters are not.
        let f = r.summary("IPFilter", &["allow udp".into()]).unwrap();
        if let SummaryKind::Flows(flows) = &f.kind {
            assert!(!flows[0].is_exact());
        }
    }
}
