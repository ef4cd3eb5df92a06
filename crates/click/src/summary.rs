//! Conservative per-element field-effect summaries for static analysis.
//!
//! Each summary describes, per input port, the set of flows an element can
//! emit: which header fields it constrains, which it overwrites (and with
//! what kind of value), and whether it pushes or pops a tunnel layer.
//! Facts that do not depend on arguments (state, queue-likeness) live in
//! [`crate::class_info`]'s table, not here; that table also names each
//! class's summary function. The `innet-analysis` crate
//! composes summaries along every graph path with a
//! worklist abstract interpretation, yielding an advisory config-level
//! verdict and a field-effect table; admission never consults it, and
//! decides safety with SymNet alone.
//!
//! **Soundness contract.** A summary mirrors the element's *symbolic
//! model* in `innet-symnet::models` — not its concrete packet-processing
//! behavior — because the advisory verdict must agree with what SymNet
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

/// The complete field-effect summary of one configured element.
#[derive(Debug, Clone)]
pub struct ElementSummary {
    /// Port signature of the element.
    pub ports: PortCount,
    /// Flow behavior.
    pub kind: SummaryKind,
}

impl ElementSummary {
    /// A one-in one-out pass-through element.
    pub fn identity() -> ElementSummary {
        ElementSummary {
            ports: PortCount::ONE_ONE,
            kind: SummaryKind::Flows(vec![FlowSummary::identity(0, 0)]),
        }
    }

    /// A transform with the given ports and flows.
    pub fn flows(ports: PortCount, flows: Vec<FlowSummary>) -> ElementSummary {
        ElementSummary {
            ports,
            kind: SummaryKind::Flows(flows),
        }
    }
}

/// Constructor signature for a class summary: parses the element's
/// arguments (sharing validation with the runtime constructor) and
/// returns its field-effect summary.
pub type SummaryCtor = fn(&ConfigArgs) -> Result<ElementSummary, ElementError>;

fn a64(a: Ipv4Addr) -> u64 {
    u32::from(a) as u64
}

fn proto(p: IpProto) -> u64 {
    p.number() as u64
}

/// One over-approximating flow per output, no constraints: the element
/// definitely emits on every output (`Tee`, `Classifier`, switches…).
pub(crate) fn any_output(outputs: usize) -> ElementSummary {
    let flows = (0..outputs).map(|o| FlowSummary::identity(0, o)).collect();
    ElementSummary::flows(PortCount::new(1, outputs), flows)
}

pub(crate) fn from_netfront(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    el::netfront_iface(args)?;
    Ok(ElementSummary::identity())
}

pub(crate) fn to_netfront(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    el::netfront_iface(args)?;
    Ok(ElementSummary {
        ports: PortCount::new(1, 0),
        kind: SummaryKind::Egress,
    })
}

pub(crate) fn discard_sink(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    args.expect_len(0)?;
    Ok(ElementSummary {
        ports: PortCount::new(1, 0),
        kind: SummaryKind::Sink,
    })
}

pub(crate) fn idle_sink(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    args.expect_len(0)?;
    // Idle declares an output port but never emits on it.
    Ok(ElementSummary {
        ports: PortCount::ONE_ONE,
        kind: SummaryKind::Sink,
    })
}

/// The summary of a one-in one-out pass-through class, validating its
/// arguments with its constructor (or expecting none).
macro_rules! identity_summary {
    (no_args) => {
        |args: &$crate::ConfigArgs| -> Result<$crate::ElementSummary, $crate::ElementError> {
            args.expect_len(0)?;
            Ok($crate::ElementSummary::identity())
        }
    };
    ($ty:ty) => {
        |args: &$crate::ConfigArgs| -> Result<$crate::ElementSummary, $crate::ElementError> {
            <$ty>::from_args(args)?;
            Ok($crate::ElementSummary::identity())
        }
    };
}
pub(crate) use identity_summary;

/// The summary of a class that may emit any packet on any of its outputs.
macro_rules! any_output_summary {
    ($ty:ty) => {
        |args: &$crate::ConfigArgs| -> Result<$crate::ElementSummary, $crate::ElementError> {
            let e = <$ty>::from_args(args)?;
            Ok($crate::summary::any_output(
                $crate::Element::ports(&e).outputs,
            ))
        }
    };
}
pub(crate) use any_output_summary;

pub(crate) fn ip_classifier(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    let c = el::IPClassifier::from_args(args)?;
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

pub(crate) fn ip_filter(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    let f = el::IPFilter::from_args(args)?;
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

pub(crate) fn dec_ip_ttl(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    args.expect_len(0)?;
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

fn set_field(field: AbsField, value: u64) -> Result<ElementSummary, ElementError> {
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

pub(crate) fn set_ip_src(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    let s = el::SetIPSrc::from_args(args)?;
    set_field(AbsField::IpSrc, a64(s.addr()))
}

pub(crate) fn set_ip_dst(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    let s = el::SetIPDst::from_args(args)?;
    set_field(AbsField::IpDst, a64(s.addr()))
}

pub(crate) fn set_tos(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    el::SetTOS::from_args(args)?;
    // Value re-parsed the same way the symbolic model does.
    let v: u64 = args
        .all()
        .next()
        .and_then(|a| a.trim().parse().ok())
        .unwrap_or(0);
    set_field(AbsField::Tos, v)
}

pub(crate) fn firewall(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    let f = el::StatefulFirewall::from_args(args)?;
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
    Ok(ElementSummary::flows(PortCount::new(2, 2), flows))
}

pub(crate) fn nat(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    let n = el::IpNat::from_args(args)?;
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
    ))
}

pub(crate) fn rewriter(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    let r = el::IPRewriter::from_args(args)?;
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
    ))
}

pub(crate) fn transparent_proxy(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    let t = el::TransparentProxy::from_args(args)?;
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
    ))
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

pub(crate) fn udp_tunnel_encap(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    let t = el::UdpTunnelEncap::from_args(args)?;
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

pub(crate) fn ip_encap(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    let t = el::IpEncap::from_args(args)?;
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

pub(crate) fn udp_tunnel_decap(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    args.expect_len(0)?;
    Ok(decap(proto(IpProto::Udp)))
}

pub(crate) fn ip_decap(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    args.expect_len(0)?;
    Ok(decap(proto(IpProto::IpIp)))
}

pub(crate) fn multicast(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    let m = el::IpMulticast::from_args(args)?;
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

pub(crate) fn ping_responder(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    args.expect_len(0)?;
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

pub(crate) fn static_lookup(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    let l = el::StaticIPLookup::from_args(args)?;
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

pub(crate) fn change_enforcer(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    let c = el::ChangeEnforcer::from_args(args)?;
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
    ))
}

fn stock_addr(args: &ConfigArgs) -> Result<u64, ElementError> {
    args.all()
        .next()
        .and_then(|a| a.trim().parse::<Ipv4Addr>().ok())
        .map(a64)
        .ok_or_else(|| ElementError::BadArgs {
            class: "Stock",
            message: format!("{}: bad address argument 0", args.class()),
        })
}

pub(crate) fn stock_x86_vm(_args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
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
    ))
}

pub(crate) fn stock_explicit_proxy(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    let own = stock_addr(args)?;
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
    ))
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

pub(crate) fn server_s(_args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    Ok(turnaround(Some(proto(IpProto::Udp)), None, None, false))
}

pub(crate) fn stock_dns(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    let own = stock_addr(args)?;
    Ok(turnaround(
        Some(proto(IpProto::Udp)),
        Some(53),
        Some(own),
        true,
    ))
}

pub(crate) fn stock_reverse_proxy(args: &ConfigArgs) -> Result<ElementSummary, ElementError> {
    let own = stock_addr(args)?;
    Ok(turnaround(
        Some(proto(IpProto::Tcp)),
        Some(80),
        Some(own),
        true,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

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
