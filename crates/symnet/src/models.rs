//! Abstract models for every known element class, and the builder that
//! turns a Click configuration into a [`SymGraph`].
//!
//! Model fidelity follows the paper's methodology (§4.3): models have no
//! loops and no dynamic allocation, and middlebox flow state is pushed into
//! the flow itself (see [`FirewallModel`]). Where a behaviour cannot be
//! modeled (raw byte classifiers, DPI payload matching), the model
//! *over-approximates* — it lets the packet take every possible branch — so
//! security verdicts stay sound.

use std::any::Any;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::sync::{Arc, LazyLock, OnceLock};

use innet_click::{
    class_info, elements as el,
    elements::{FieldSpec, FilterAction},
    ClickConfig, ConfigArgs, Netfront, PortCount, Registry,
};
use innet_packet::{pattern::PatternExpr, Cidr, IpProto};

use crate::{
    field::Field,
    memo::Memo,
    model::{SymElement, SymError, SymGraph, SymOut},
    packet::SymPacket,
    pattern::{refute, satisfy},
    value::{Origin, RangeSet, SymValue},
};

fn addr(a: Ipv4Addr) -> u64 {
    u32::from(a) as u64
}

// ---------------------------------------------------------------------------
// Generic models
// ---------------------------------------------------------------------------

/// Passes the packet through unchanged (counters, queues, shapers, checks —
/// anything invisible at the header level; SymNet does not model time).
pub struct IdentityModel;

impl SymElement for IdentityModel {
    fn exec(&self, _p: usize, pkt: SymPacket) -> Vec<SymOut> {
        vec![SymOut::Port(0, pkt)]
    }
}

/// Terminal egress through a numbered interface (`ToNetfront`).
pub struct EgressModel(pub u16);

impl SymElement for EgressModel {
    fn exec(&self, _p: usize, pkt: SymPacket) -> Vec<SymOut> {
        vec![SymOut::Egress(self.0, pkt)]
    }
}

/// Absorbs everything (`Discard`, `Idle`).
pub struct DropModel;

impl SymElement for DropModel {
    fn exec(&self, _p: usize, _pkt: SymPacket) -> Vec<SymOut> {
        vec![]
    }
}

/// Over-approximation: the packet may take any of `n` outputs without new
/// constraints (raw `Classifier` byte patterns are below the abstraction
/// level of the field model; `Tee` genuinely duplicates).
pub struct AnyOutputModel {
    /// Number of outputs.
    pub n: usize,
}

impl SymElement for AnyOutputModel {
    fn exec(&self, _p: usize, pkt: SymPacket) -> Vec<SymOut> {
        (0..self.n).map(|i| SymOut::Port(i, pkt.clone())).collect()
    }
}

// ---------------------------------------------------------------------------
// Classification / filtering
// ---------------------------------------------------------------------------

/// `IPClassifier`: first-match-wins over pattern rules, modeled by
/// sequential satisfy/refute splitting.
pub struct IpClassifierModel {
    rules: Vec<PatternExpr>,
}

impl IpClassifierModel {
    /// The model of an `IPClassifier` with `rules`, in match order.
    pub fn new(rules: Vec<PatternExpr>) -> IpClassifierModel {
        IpClassifierModel { rules }
    }
}

impl SymElement for IpClassifierModel {
    fn exec(&self, _p: usize, pkt: SymPacket) -> Vec<SymOut> {
        let mut out = Vec::new();
        let mut remaining = vec![pkt];
        for (i, rule) in self.rules.iter().enumerate() {
            for b in remaining.iter().flat_map(|r| satisfy(r, rule)) {
                out.push(SymOut::Port(i, b));
            }
            remaining = remaining.iter().flat_map(|r| refute(r, rule)).collect();
            if remaining.is_empty() {
                break;
            }
        }
        out
    }
}

/// `IPFilter`: ordered allow/deny with implicit final deny.
pub struct IpFilterModel {
    rules: Vec<(FilterAction, PatternExpr)>,
}

impl SymElement for IpFilterModel {
    fn exec(&self, _p: usize, pkt: SymPacket) -> Vec<SymOut> {
        let mut out = Vec::new();
        let mut remaining = vec![pkt];
        for (action, rule) in &self.rules {
            if matches!(action, FilterAction::Allow) {
                for b in remaining.iter().flat_map(|r| satisfy(r, rule)) {
                    out.push(SymOut::Port(0, b));
                }
            }
            remaining = remaining.iter().flat_map(|r| refute(r, rule)).collect();
            if remaining.is_empty() {
                break;
            }
        }
        out
    }
}

/// `StaticIPLookup`: longest-prefix-match branching on the destination.
pub struct StaticLookupModel {
    /// Routes sorted by descending prefix length.
    routes: Vec<(Cidr, usize)>,
}

impl SymElement for StaticLookupModel {
    fn exec(&self, _p: usize, pkt: SymPacket) -> Vec<SymOut> {
        let mut out = Vec::new();
        let mut remaining = vec![pkt];
        for (cidr, port) in &self.routes {
            let set = RangeSet::range(cidr.first_u32() as u64, cidr.last_u32() as u64);
            for r in &remaining {
                let mut b = r.clone();
                if b.constrain(Field::IpDst, &set) {
                    out.push(SymOut::Port(*port, b));
                }
            }
            remaining = remaining
                .into_iter()
                .filter_map(|mut r| {
                    if r.constrain_not(Field::IpDst, &set) {
                        Some(r)
                    } else {
                        None
                    }
                })
                .collect();
            if remaining.is_empty() {
                break;
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Header manipulation
// ---------------------------------------------------------------------------

/// Writes one field to a constant (`SetIPSrc`, `SetIPDst`, `SetTOS`,
/// `EtherEncap`'s IP-invisible cousin is identity).
pub struct SetFieldModel {
    field: Field,
    value: u64,
}

impl SymElement for SetFieldModel {
    fn exec(&self, _p: usize, mut pkt: SymPacket) -> Vec<SymOut> {
        pkt.write(self.field, SymValue::Const(self.value));
        vec![SymOut::Port(0, pkt)]
    }
}

/// `DecIPTTL`: expired branch dropped; surviving branch gets a written,
/// range-constrained TTL.
pub struct DecTtlModel;

impl SymElement for DecTtlModel {
    fn exec(&self, _p: usize, pkt: SymPacket) -> Vec<SymOut> {
        match pkt.get(Field::Ttl) {
            SymValue::Const(c) => {
                if c <= 1 {
                    vec![]
                } else {
                    let mut p = pkt;
                    p.write(Field::Ttl, SymValue::Const(c - 1));
                    vec![SymOut::Port(0, p)]
                }
            }
            SymValue::Var(_) => {
                let mut p = pkt;
                if !p.constrain(Field::Ttl, &RangeSet::range(2, 255)) {
                    return vec![];
                }
                let v = p.fresh(Origin::Computed);
                if let SymValue::Var(id) = v {
                    // Best-effort bound: ttl-1 of [2,255] is [1,254].
                    let _ = id; // Range recorded below via constrain.
                }
                p.write(Field::Ttl, v);
                p.constrain(Field::Ttl, &RangeSet::range(1, 254));
                vec![SymOut::Port(0, p)]
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stateful middleboxes
// ---------------------------------------------------------------------------

/// `StatefulFirewall` with state pushed into the flow: the outbound
/// direction tags conforming flows (`fw_tag := 1`), the inbound direction
/// only passes tagged flows — exactly the paper's Figure 2 model, which
/// makes the analysis oblivious to flow arrival order.
pub struct FirewallModel {
    allow: Vec<PatternExpr>,
}

impl SymElement for FirewallModel {
    fn exec(&self, in_port: usize, pkt: SymPacket) -> Vec<SymOut> {
        match in_port {
            0 => self
                .allow
                .iter()
                .flat_map(|r| satisfy(&pkt, r))
                .map(|mut b| {
                    b.write(Field::FwTag, SymValue::Const(1));
                    SymOut::Port(0, b)
                })
                .collect(),
            _ => {
                let mut b = pkt;
                if b.constrain_eq(Field::FwTag, 1) {
                    vec![SymOut::Port(1, b)]
                } else {
                    vec![]
                }
            }
        }
    }
}

/// `IPNAT`: outbound rewrites the source to the advertised public address
/// (a constant that will generally differ from the module's assigned
/// address — the spoofing violation Table 1 reports); inbound produces
/// unknown internal endpoints.
pub struct NatModel {
    public: u64,
}

impl SymElement for NatModel {
    fn exec(&self, in_port: usize, mut pkt: SymPacket) -> Vec<SymOut> {
        match in_port {
            0 => {
                pkt.write(Field::IpSrc, SymValue::Const(self.public));
                let p = pkt.fresh(Origin::Computed);
                pkt.write(Field::SrcPort, p);
                vec![SymOut::Port(0, pkt)]
            }
            _ => {
                if !pkt.constrain_eq(Field::IpDst, self.public) {
                    return vec![];
                }
                let a = pkt.fresh(Origin::Computed);
                pkt.write(Field::IpDst, a);
                let p = pkt.fresh(Origin::Computed);
                pkt.write(Field::DstPort, p);
                vec![SymOut::Port(1, pkt)]
            }
        }
    }
}

/// `IPRewriter`: forward direction overwrites the configured fields with
/// constants; reverse direction restores unknown originals.
pub struct RewriterModel {
    pattern: el::RewritePattern,
}

impl SymElement for RewriterModel {
    fn exec(&self, in_port: usize, mut pkt: SymPacket) -> Vec<SymOut> {
        match in_port {
            0 => {
                if let FieldSpec::Set(a) = self.pattern.saddr {
                    pkt.write(Field::IpSrc, SymValue::Const(addr(a)));
                }
                if let FieldSpec::Set(p) = self.pattern.sport {
                    pkt.write(Field::SrcPort, SymValue::Const(p as u64));
                }
                if let FieldSpec::Set(a) = self.pattern.daddr {
                    pkt.write(Field::IpDst, SymValue::Const(addr(a)));
                }
                if let FieldSpec::Set(p) = self.pattern.dport {
                    pkt.write(Field::DstPort, SymValue::Const(p as u64));
                }
                vec![SymOut::Port(self.pattern.fwd_out, pkt)]
            }
            _ => {
                for f in [Field::IpSrc, Field::SrcPort, Field::IpDst, Field::DstPort] {
                    let v = pkt.fresh(Origin::Computed);
                    pkt.write(f, v);
                }
                vec![SymOut::Port(self.pattern.rev_out, pkt)]
            }
        }
    }
}

/// `TransparentProxy`: branches on interception, redirecting matching
/// traffic to the proxy; the reverse path restores a (statically unknown)
/// original server as the source — the spoof Table 1 flags.
pub struct TransparentProxyModel {
    proxy: u64,
    proxy_port: u64,
    intercept_port: u64,
}

impl SymElement for TransparentProxyModel {
    fn exec(&self, in_port: usize, pkt: SymPacket) -> Vec<SymOut> {
        match in_port {
            0 => {
                let mut out = Vec::new();
                // Intercepted branch: TCP to the intercept port.
                let mut hit = pkt.clone();
                if hit.constrain_eq(Field::Proto, IpProto::Tcp.number() as u64)
                    && hit.constrain_eq(Field::DstPort, self.intercept_port)
                {
                    hit.write(Field::IpDst, SymValue::Const(self.proxy));
                    hit.write(Field::DstPort, SymValue::Const(self.proxy_port));
                    out.push(SymOut::Port(0, hit));
                }
                // Pass-through branches: not TCP, or another port.
                let mut not_tcp = pkt.clone();
                if not_tcp.constrain_not(
                    Field::Proto,
                    &RangeSet::single(IpProto::Tcp.number() as u64),
                ) {
                    out.push(SymOut::Port(0, not_tcp));
                }
                let mut other_port = pkt;
                if other_port.constrain_eq(Field::Proto, IpProto::Tcp.number() as u64)
                    && other_port
                        .constrain_not(Field::DstPort, &RangeSet::single(self.intercept_port))
                {
                    out.push(SymOut::Port(0, other_port));
                }
                out
            }
            _ => {
                let mut p = pkt;
                let a = p.fresh(Origin::Computed);
                p.write(Field::IpSrc, a);
                let sp = p.fresh(Origin::Computed);
                p.write(Field::SrcPort, sp);
                vec![SymOut::Port(1, p)]
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Tunnels
// ---------------------------------------------------------------------------

/// Tunnel encapsulation: pushes a fresh outer header with constant
/// endpoints; the inner header survives untouched underneath.
pub struct TunnelEncapModel {
    proto: u64,
    src: u64,
    sport: Option<u64>,
    dst: u64,
    dport: Option<u64>,
}

impl SymElement for TunnelEncapModel {
    fn exec(&self, _p: usize, mut pkt: SymPacket) -> Vec<SymOut> {
        pkt.push_layer();
        pkt.write(Field::Proto, SymValue::Const(self.proto));
        pkt.write(Field::IpSrc, SymValue::Const(self.src));
        pkt.write(Field::IpDst, SymValue::Const(self.dst));
        if let Some(sp) = self.sport {
            pkt.write(Field::SrcPort, SymValue::Const(sp));
        }
        if let Some(dp) = self.dport {
            pkt.write(Field::DstPort, SymValue::Const(dp));
        }
        pkt.write(Field::Ttl, SymValue::Const(64));
        vec![SymOut::Port(0, pkt)]
    }
}

/// Tunnel decapsulation. If this branch was encapsulated by a modeled
/// element, the inner header is restored exactly (invariants preserved).
/// Otherwise the revealed header is *unknown until runtime*: every field
/// becomes a fresh [`Origin::Decap`] variable — the situation that makes a
/// third-party tunnel endpoint sandbox-worthy in Table 1.
pub struct TunnelDecapModel {
    proto: u64,
}

impl SymElement for TunnelDecapModel {
    fn exec(&self, _p: usize, mut pkt: SymPacket) -> Vec<SymOut> {
        if !pkt.constrain_eq(Field::Proto, self.proto) {
            return vec![];
        }
        if !pkt.pop_layer() {
            pkt.havoc_all(Origin::Decap);
            // Decapsulation cannot conjure firewall authorizations.
            pkt.write(Field::FwTag, SymValue::Const(0));
            pkt.constrain(Field::TcpSyn, &RangeSet::range(0, 1));
        }
        vec![SymOut::Port(0, pkt)]
    }
}

// ---------------------------------------------------------------------------
// Misc element models
// ---------------------------------------------------------------------------

/// `IPMulticast`: one branch per configured replica destination.
pub struct MulticastModel {
    dsts: Vec<u64>,
}

impl SymElement for MulticastModel {
    fn exec(&self, _p: usize, pkt: SymPacket) -> Vec<SymOut> {
        self.dsts
            .iter()
            .map(|&d| {
                let mut b = pkt.clone();
                b.write(Field::IpDst, SymValue::Const(d));
                SymOut::Port(0, b)
            })
            .collect()
    }
}

/// `ICMPPingResponder`: ICMP echo traffic is turned around — destination
/// bound to the ingress source.
pub struct PingResponderModel;

impl SymElement for PingResponderModel {
    fn exec(&self, _p: usize, mut pkt: SymPacket) -> Vec<SymOut> {
        if !pkt.constrain_eq(Field::Proto, IpProto::Icmp.number() as u64) {
            return vec![];
        }
        let src = pkt.get(Field::IpSrc);
        let dst = pkt.get(Field::IpDst);
        pkt.write(Field::IpSrc, dst);
        pkt.write(Field::IpDst, src);
        vec![SymOut::Port(0, pkt)]
    }
}

/// `ChangeEnforcer` (static view): module-to-world traffic must carry the
/// module's source address. (The implicit-authorization state is enforced
/// at runtime; statically we keep the stateless part.)
pub struct ChangeEnforcerModel {
    module: u64,
}

impl SymElement for ChangeEnforcerModel {
    fn exec(&self, in_port: usize, mut pkt: SymPacket) -> Vec<SymOut> {
        match in_port {
            0 => vec![SymOut::Port(0, pkt)],
            _ => {
                if pkt.constrain_eq(Field::IpSrc, self.module) {
                    vec![SymOut::Port(1, pkt)]
                } else {
                    vec![]
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stock / endpoint models
// ---------------------------------------------------------------------------

/// The stock explicit (forward) proxy: terminates client connections and
/// originates its own connections, as itself, to destinations chosen by
/// the request content — unknown until runtime.
pub struct ExplicitProxyModel {
    /// The proxy's own (assigned) address.
    pub own: u64,
}

impl SymElement for ExplicitProxyModel {
    fn exec(&self, _p: usize, mut pkt: SymPacket) -> Vec<SymOut> {
        pkt.write(Field::IpSrc, SymValue::Const(self.own));
        let d = pkt.fresh(Origin::Computed);
        pkt.write(Field::IpDst, d);
        let sp = pkt.fresh(Origin::Computed);
        pkt.write(Field::SrcPort, sp);
        let dp = pkt.fresh(Origin::Computed);
        pkt.write(Field::DstPort, dp);
        let pay = pkt.fresh(Origin::Computed);
        pkt.write(Field::Payload, pay);
        vec![SymOut::Port(0, pkt)]
    }
}

/// An opaque x86 VM: anything may come out. All fields become
/// [`Origin::Opaque`] variables.
pub struct OpaqueVmModel;

impl SymElement for OpaqueVmModel {
    fn exec(&self, _p: usize, mut pkt: SymPacket) -> Vec<SymOut> {
        pkt.havoc_all(Origin::Opaque);
        vec![SymOut::Port(0, pkt)]
    }
}

/// A request/response server that answers each packet to its sender: the
/// shape shared by the paper's example server S (Figure 2), the stock
/// geolocation DNS server, and the stock reverse HTTP proxy.
///
/// The response's destination is *bound to the ingress source variable*
/// (implicit authorization recognizable by symbolic execution), and the
/// source is either the server's own constant address or the flipped
/// ingress destination.
pub struct TurnaroundServerModel {
    /// Protocol the server accepts, if restricted.
    proto: Option<u64>,
    /// Destination port the server listens on, if restricted.
    listen_port: Option<u64>,
    /// The server's own address: responses carry it as source. `None`
    /// flips the ingress destination instead (the Figure 2 server).
    own_addr: Option<u64>,
    /// Whether the response payload differs from the request payload.
    fresh_payload: bool,
}

impl SymElement for TurnaroundServerModel {
    fn exec(&self, _p: usize, mut pkt: SymPacket) -> Vec<SymOut> {
        if let Some(proto) = self.proto {
            if !pkt.constrain_eq(Field::Proto, proto) {
                return vec![];
            }
        }
        if let Some(port) = self.listen_port {
            if !pkt.constrain_eq(Field::DstPort, port) {
                return vec![];
            }
        }
        let src = pkt.get(Field::IpSrc);
        let dst = pkt.get(Field::IpDst);
        let sport = pkt.get(Field::SrcPort);
        let dport = pkt.get(Field::DstPort);
        match self.own_addr {
            Some(a) => pkt.write(Field::IpSrc, SymValue::Const(a)),
            None => pkt.write(Field::IpSrc, dst),
        }
        pkt.write(Field::IpDst, src);
        pkt.write(Field::SrcPort, dport);
        pkt.write(Field::DstPort, sport);
        if self.fresh_payload {
            let p = pkt.fresh(Origin::Computed);
            pkt.write(Field::Payload, p);
        }
        vec![SymOut::Port(0, pkt)]
    }
}

impl TurnaroundServerModel {
    /// The paper's Figure 2 server S: UDP, flips addresses, payload kept.
    pub fn paper_server() -> TurnaroundServerModel {
        TurnaroundServerModel {
            proto: Some(IpProto::Udp.number() as u64),
            listen_port: None,
            own_addr: None,
            fresh_payload: false,
        }
    }

    /// The stock geolocation DNS server.
    pub fn dns(own: Ipv4Addr) -> TurnaroundServerModel {
        TurnaroundServerModel {
            proto: Some(IpProto::Udp.number() as u64),
            listen_port: Some(53),
            own_addr: Some(addr(own)),
            fresh_payload: true,
        }
    }

    /// The stock reverse HTTP proxy.
    pub fn reverse_proxy(own: Ipv4Addr) -> TurnaroundServerModel {
        TurnaroundServerModel {
            proto: Some(IpProto::Tcp.number() as u64),
            listen_port: Some(80),
            own_addr: Some(addr(own)),
            fresh_payload: true,
        }
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// The built element behind `any`, of the type its class names.
fn of<T: 'static>(any: &dyn Any) -> &T {
    any.downcast_ref().expect("class matches")
}

fn downcast_model(
    class: &str,
    args: &[String],
    registry: &Registry,
) -> Result<ElementModel, SymError> {
    // A netfront endpoint's model needs only its interface number. Parse
    // it with the constructors' own parser rather than build the element
    // (whose constructor zero-fills a 128 KB ring).
    if let Some(role) = class_info(class).and_then(|c| c.netfront) {
        let iface = el::netfront_iface(&ConfigArgs::new("FromNetfront", args)).map_err(|e| {
            // The constructor fails in this same parser, before it builds
            // the ring, and its error names the class as written.
            let e = registry.instantiate(class, args).err().unwrap_or(e);
            SymError::Config(e.to_string())
        })?;
        let (model, ports): (Box<dyn SymElement>, _) = match role {
            Netfront::Exit => (Box::new(EgressModel(iface)), PortCount::new(1, 0)),
            Netfront::Entry => (Box::new(IdentityModel), PortCount::ONE_ONE),
        };
        return Ok(ElementModel::new(model, ports, None));
    }
    // Instantiate the concrete element so argument parsing (and its error
    // reporting) is shared with the runtime, then read its configuration.
    let concrete = registry
        .instantiate(class, args)
        .map_err(|e| SymError::Config(e.to_string()))?;
    let ports = concrete.ports();
    let any: &dyn Any = &*concrete;
    let set = |field, value| -> Box<dyn SymElement> { Box::new(SetFieldModel { field, value }) };
    let (mut sink, mut rules, mut named) = (false, Vec::new(), None);
    let model: Box<dyn SymElement> = match class {
        "Discard" | "Idle" => {
            sink = true;
            Box::new(DropModel)
        }
        // Header-invisible: checks, L2 framing, measurement, and (SymNet
        // does not model time, paper §7) shapers and queues. Paint marks
        // an annotation below the field model.
        "CheckIPHeader" | "MarkIPHeader" | "Strip" | "EtherEncap" | "Counter" | "FlowMeter"
        | "RateLimiter" | "BandwidthShaper" | "Queue" | "TimedUnqueue" | "Paint" => {
            Box::new(IdentityModel)
        }
        // Below the field model: raw byte patterns, payload matching,
        // schedulers and meters, and CheckPaint's annotation test may
        // route either way; Tee genuinely duplicates.
        "Classifier" | "DPI" | "RoundRobinSwitch" | "RandomSwitch" | "Meter" | "CheckPaint"
        | "Tee" => Box::new(AnyOutputModel { n: ports.outputs }),
        "IPClassifier" => {
            let c = of::<el::IPClassifier>(any);
            rules = c.rules().to_vec();
            named = Some((0..rules.len()).collect());
            Box::new(IpClassifierModel::new(rules.clone()))
        }
        "IPFilter" => {
            let f = of::<el::IPFilter>(any);
            rules = f.rules().iter().map(|(_, r)| r.clone()).collect();
            let allows = f
                .rules()
                .iter()
                .any(|(a, _)| matches!(a, FilterAction::Allow));
            named = Some(allows.then_some(0).into_iter().collect());
            Box::new(IpFilterModel {
                rules: f.rules().to_vec(),
            })
        }
        "DecIPTTL" => Box::new(DecTtlModel),
        "SetIPSrc" => set(Field::IpSrc, addr(of::<el::SetIPSrc>(any).addr())),
        "SetIPDst" => set(Field::IpDst, addr(of::<el::SetIPDst>(any).addr())),
        "SetTOS" => {
            // Value re-parsed: SetTOS has no getter, but the arg is plain.
            let v = args.first().and_then(|a| a.trim().parse().ok());
            set(Field::Tos, v.unwrap_or(0))
        }
        "StatefulFirewall" => {
            let f = of::<el::StatefulFirewall>(any);
            Box::new(FirewallModel {
                allow: f.allow_rules().to_vec(),
            })
        }
        "IPNAT" => {
            let n = of::<el::IpNat>(any);
            Box::new(NatModel {
                public: addr(n.public_addr()),
            })
        }
        "IPRewriter" => {
            let r = of::<el::IPRewriter>(any);
            Box::new(RewriterModel {
                pattern: r.pattern().clone(),
            })
        }
        "TransparentProxy" => {
            let t = of::<el::TransparentProxy>(any);
            let (p, pp, ip) = t.params();
            Box::new(TransparentProxyModel {
                proxy: addr(p),
                proxy_port: pp as u64,
                intercept_port: ip as u64,
            })
        }
        "UDPTunnelEncap" => {
            let t = of::<el::UdpTunnelEncap>(any);
            let (src, sport, dst, dport) = t.params();
            Box::new(TunnelEncapModel {
                proto: IpProto::Udp.number() as u64,
                src: addr(src),
                sport: Some(sport as u64),
                dst: addr(dst),
                dport: Some(dport as u64),
            })
        }
        "UDPTunnelDecap" => Box::new(TunnelDecapModel {
            proto: IpProto::Udp.number() as u64,
        }),
        "IPEncap" => {
            let t = of::<el::IpEncap>(any);
            let (src, dst) = t.params();
            Box::new(TunnelEncapModel {
                proto: IpProto::IpIp.number() as u64,
                src: addr(src),
                sport: None,
                dst: addr(dst),
                dport: None,
            })
        }
        "IPDecap" => Box::new(TunnelDecapModel {
            proto: IpProto::IpIp.number() as u64,
        }),
        "IPMulticast" => {
            let m = of::<el::IpMulticast>(any);
            Box::new(MulticastModel {
                dsts: m.destinations().iter().map(|&a| addr(a)).collect(),
            })
        }
        "ICMPPingResponder" => Box::new(PingResponderModel),
        "StaticIPLookup" => {
            let l = of::<el::StaticIPLookup>(any);
            named = Some(l.routes().iter().map(|&(_, port)| port).collect());
            Box::new(StaticLookupModel {
                routes: l.routes().to_vec(),
            })
        }
        "ChangeEnforcer" => {
            let c = of::<el::ChangeEnforcer>(any);
            Box::new(ChangeEnforcerModel {
                module: addr(c.params().0),
            })
        }
        other => return Err(SymError::NoModel(other.to_string())),
    };
    Ok(ElementModel {
        sink,
        rules,
        ..ElementModel::new(model, ports, named)
    })
}

/// One parse of an element's `(class, args)`, the model memo's entry: the
/// symbolic model the security check runs and the facts lint reads off it.
pub struct ElementModel {
    /// The element's symbolic model.
    pub model: Arc<dyn SymElement>,
    /// Its port signature (for a netfront endpoint and a `Stock*` class,
    /// the class's own: neither is built).
    pub ports: PortCount,
    /// For each input, the outputs it forwards to, read off one run of the
    /// model. A first-match element (`IPFilter`, `IPClassifier`,
    /// `StaticIPLookup`) forwards to every output a rule or route names,
    /// shadowed or not, so lint still refuses a queueless cycle through it.
    /// Only lint reads it, so the runs happen on its first read, not when
    /// the security check or the network model builds the entry.
    pub reach: Reach,
    /// Whether the class absorbs every packet by construction (`Discard`,
    /// `Idle`): an output it declares never emits.
    pub sink: bool,
    /// An `IPFilter`'s or `IPClassifier`'s patterns, in rule order.
    pub rules: Vec<PatternExpr>,
}

/// [`ElementModel::reach`]: computed on first dereference.
type Reach = LazyLock<Vec<BTreeSet<usize>>, Box<dyn FnOnce() -> Vec<BTreeSet<usize>> + Send>>;

impl ElementModel {
    /// `model` with its ports; its reach is `named`, else read off the
    /// model when first dereferenced.
    fn new(
        model: Box<dyn SymElement>,
        ports: PortCount,
        named: Option<BTreeSet<usize>>,
    ) -> ElementModel {
        let model: Arc<dyn SymElement> = Arc::from(model);
        let runs = Arc::clone(&model);
        let reach_of = move |input| {
            let outs = runs.exec(input, probe()).into_iter();
            outs.filter_map(|o| match o {
                SymOut::Port(port, _) => Some(port),
                SymOut::Egress(..) => None,
            })
            .collect()
        };
        let reach = move || match named {
            Some(named) => vec![named],
            None => (0..ports.inputs).map(reach_of).collect(),
        };
        ElementModel {
            model,
            ports,
            reach: LazyLock::new(Box::new(reach)),
            sink: false,
            rules: Vec::new(),
        }
    }
}

/// The packet reach is read with: every field free, the firewall's tag
/// too, since an element may meet a packet an earlier one tagged (unlike
/// [`SymPacket::unconstrained`]'s). Built once; each run clones it.
fn probe() -> SymPacket {
    static PROBE: OnceLock<SymPacket> = OnceLock::new();
    let probe = PROBE.get_or_init(|| {
        let mut probe = SymPacket::unconstrained();
        let tag = probe.fresh(Origin::Free);
        probe.write(Field::FwTag, tag);
        probe
    });
    probe.clone()
}

/// Builds the abstract model for one element class, and its lint facts.
///
/// Click classes are parsed through the concrete element implementation
/// (shared argument validation), netfront endpoints through its argument
/// parser alone; the `Stock*` pseudo-classes used by the controller's
/// stock modules are handled directly.
pub fn model_for(
    class: &str,
    args: &[String],
    registry: &Registry,
) -> Result<ElementModel, SymError> {
    let parse_addr = |i: usize| -> Result<Ipv4Addr, SymError> {
        args.get(i)
            .and_then(|a| a.trim().parse().ok())
            .ok_or_else(|| SymError::Config(format!("{class}: bad address argument {i}")))
    };
    let stock: Box<dyn SymElement> = match class {
        "StockX86VM" => Box::new(OpaqueVmModel),
        "StockExplicitProxy" => Box::new(ExplicitProxyModel {
            own: addr(parse_addr(0)?),
        }),
        "StockDNSServer" => Box::new(TurnaroundServerModel::dns(parse_addr(0)?)),
        "StockReverseProxy" => Box::new(TurnaroundServerModel::reverse_proxy(parse_addr(0)?)),
        "ServerS" => Box::new(TurnaroundServerModel::paper_server()),
        _ => return downcast_model(class, args, registry),
    };
    Ok(ElementModel::new(stock, PortCount::ONE_ONE, None))
}

/// The fleet-wide memos of the security check: two [`Memo`]s, each a
/// pure function of its key, shared (`Arc`) across every request and
/// verification worker.
///
/// * **models** — `class '\0' args…` → the [`ElementModel`]. Building one
///   parses the element's arguments, which dominates graph construction
///   on the admission path; lint fills this memo for the security check.
/// * **graphs** — the configuration's canonical text (names included:
///   callers address nodes by name) → the wired, immutable [`SymGraph`].
///
/// Nothing outside the key influences a value, so entries never go
/// stale; [`ModelCache::bump_epoch`] exists so the controller can flush
/// all verification memoisation under one rule (see [`Memo`]).
#[derive(Debug, Default)]
pub struct ModelCache {
    models: Memo<Arc<ElementModel>>,
    graphs: Memo<Arc<SymGraph>>,
}

impl ModelCache {
    /// Starts a new epoch in both memos.
    pub fn bump_epoch(&self) {
        self.models.bump_epoch();
        self.graphs.bump_epoch();
    }

    /// `'\0'` cannot appear in parsed class names or arguments, so the
    /// joined key is injective.
    fn key(class: &str, args: &[String]) -> String {
        let mut k = String::with_capacity(class.len() + 16);
        k.push_str(class);
        for a in args {
            k.push('\0');
            k.push_str(a);
        }
        k
    }

    /// The memoized model of `(class, args)` and its lint facts.
    pub fn model(
        &self,
        class: &str,
        args: &[String],
        registry: &Registry,
    ) -> Result<Arc<ElementModel>, SymError> {
        self.models
            .get_or_try_insert_with(&ModelCache::key(class, args), || {
                model_for(class, args, registry).map(Arc::new)
            })
    }

    /// The memoized wired graph for `cfg`, built through the model memo.
    /// Its nodes are numbered in the declaration order of the first
    /// configuration memoized with `cfg`'s canonical text, which sorts
    /// declarations: address them by name.
    pub fn graph(&self, cfg: &ClickConfig, registry: &Registry) -> Result<Arc<SymGraph>, SymError> {
        self.graphs.get_or_try_insert_with(cfg.canonical_str(), || {
            build_sym_graph_cached(cfg, registry, Some(self)).map(Arc::new)
        })
    }

    /// The memoized wired graph for `cfg` when there is one, else one
    /// built through the model memo and not memoized: for callers whose
    /// configurations must not grow the graph memo.
    ///
    /// Either way the graph numbers its nodes in the declaration order of
    /// *some* configuration with `cfg`'s canonical text, not necessarily
    /// `cfg`'s own: address its nodes by name.
    pub fn graph_or_build(
        &self,
        cfg: &ClickConfig,
        registry: &Registry,
    ) -> Result<Arc<SymGraph>, SymError> {
        match self.graphs.get(cfg.canonical_str()) {
            Some(graph) => Ok(graph),
            None => build_sym_graph_cached(cfg, registry, Some(self)).map(Arc::new),
        }
    }

    /// Number of memoized graphs.
    pub fn graphs_len(&self) -> usize {
        self.graphs.len()
    }
}

/// Builds a [`SymGraph`] mirroring a Click configuration.
pub fn build_sym_graph(cfg: &ClickConfig, registry: &Registry) -> Result<SymGraph, SymError> {
    build_sym_graph_cached(cfg, registry, None)
}

/// [`build_sym_graph`] with an optional shared [`ModelCache`]: node
/// models are served from the memo instead of being rebuilt from the
/// element arguments.
pub fn build_sym_graph_cached(
    cfg: &ClickConfig,
    registry: &Registry,
    models: Option<&ModelCache>,
) -> Result<SymGraph, SymError> {
    cfg.validate()
        .map_err(|e| SymError::Config(e.to_string()))?;
    let mut g = SymGraph::new();
    for decl in &cfg.elements {
        match models {
            Some(cache) => {
                let entry = cache.model(&decl.class, &decl.args, registry)?;
                g.add_shared(&decl.name, Arc::clone(&entry.model))?;
            }
            None => {
                let model = model_for(&decl.class, &decl.args, registry)?.model;
                g.add_shared(&decl.name, model)?;
            }
        }
    }
    for c in &cfg.connections {
        g.connect_names(&c.from.element, c.from.port, &c.to.element, c.to.port)?;
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ExecOptions, Observe};

    fn graph(cfg: &str) -> SymGraph {
        build_sym_graph(&ClickConfig::parse(cfg).unwrap(), &Registry::standard()).unwrap()
    }

    fn run_all(g: &SymGraph, entry: &str) -> crate::model::ExecResult {
        g.run_named(
            entry,
            0,
            SymPacket::unconstrained(),
            &ExecOptions {
                max_hops: 10_000,
                max_node_visits: 6,
                observe: Observe::All,
            },
        )
        .unwrap()
    }

    #[test]
    fn figure4_module_symbolically() {
        let g = graph(
            r#"
            src :: FromNetfront();
            f :: IPFilter(allow udp dst port 1500);
            rw :: IPRewriter(pattern - - 172.16.15.133 - 0 0);
            tu :: TimedUnqueue(120, 100);
            dst :: ToNetfront();
            src -> f -> rw -> tu -> dst;
            "#,
        );
        let res = run_all(&g, "src");
        assert_eq!(res.egress.len(), 1, "exactly one conforming flow class");
        let flow = &res.egress[0].1;
        assert!(flow.provably_eq(Field::Proto, 17));
        assert!(flow.provably_eq(
            Field::IpDst,
            u32::from(Ipv4Addr::new(172, 16, 15, 133)) as u64
        ));
        // Destination port constrained on the filter, NOT rewritten after:
        // the paper's invariant `const dst port` holds.
        assert!(flow.provably_eq(Field::DstPort, 1500));
        assert!(!flow.ever_written(Field::DstPort));
        assert!(!flow.ever_written(Field::Payload));
    }

    #[test]
    fn firewall_state_pushed_into_flow() {
        // Figure 1/2: client -> firewall(out) -> server -> firewall(in).
        let g = graph(
            r#"
            client_in :: FromNetfront();
            fw :: StatefulFirewall(allow udp);
            s :: ServerS();
            out :: ToNetfront();
            client_in -> [0]fw;
            fw[0] -> s -> [1]fw;
            fw[1] -> out;
            "#,
        );
        let res = run_all(&g, "client_in");
        assert_eq!(res.egress.len(), 1);
        let flow = &res.egress[0].1;
        // Only UDP made it through.
        assert!(flow.provably_eq(Field::Proto, 17));
        // The response destination is bound to the original client source.
        assert!(flow.provably_same(flow.get(Field::IpDst), flow.ingress.get(Field::IpSrc)));
        // Payload untouched end-to-end (Figure 2's conclusion).
        assert!(!flow.ever_written(Field::Payload));
        assert!(flow.provably_same(flow.get(Field::Payload), flow.ingress.get(Field::Payload)));
    }

    #[test]
    fn firewall_blocks_untagged_inbound() {
        let g = graph(
            r#"
            outside :: FromNetfront();
            fw :: StatefulFirewall(allow udp);
            inside :: ToNetfront();
            outside -> [1]fw;
            fw[1] -> inside;
            "#,
        );
        let res = run_all(&g, "outside");
        assert!(
            res.egress.is_empty(),
            "unsolicited inbound has fw_tag=0 and is dropped"
        );
    }

    #[test]
    fn tunnel_roundtrip_preserves_invariants() {
        let g = graph(
            r#"
            src :: FromNetfront();
            e :: UDPTunnelEncap(1.1.1.1, 7000, 2.2.2.2, 7001);
            d :: UDPTunnelDecap();
            dst :: ToNetfront();
            src -> e -> d -> dst;
            "#,
        );
        let res = run_all(&g, "src");
        assert_eq!(res.egress.len(), 1);
        let flow = &res.egress[0].1;
        // The inner header was restored exactly: dst still bound to the
        // ingress dst, payload invariant.
        assert!(flow.provably_same(flow.get(Field::IpDst), flow.ingress.get(Field::IpDst)));
        assert!(flow.provably_same(flow.get(Field::Payload), flow.ingress.get(Field::Payload)));
    }

    #[test]
    fn decap_of_unknown_tunnel_yields_decap_origin() {
        let g = graph(
            r#"
            src :: FromNetfront();
            d :: UDPTunnelDecap();
            dst :: ToNetfront();
            src -> d -> dst;
            "#,
        );
        let res = run_all(&g, "src");
        assert_eq!(res.egress.len(), 1);
        let flow = &res.egress[0].1;
        assert_eq!(flow.origin_of(flow.get(Field::IpDst)), Some(Origin::Decap));
        assert!(flow.ever_written(Field::IpSrc));
    }

    #[test]
    fn classifier_partitions_protocols() {
        let g = graph(
            r#"
            src :: FromNetfront();
            c :: IPClassifier(udp, tcp, -);
            u :: ToNetfront(0); t :: ToNetfront(1); o :: ToNetfront(2);
            src -> c;
            c[0] -> u; c[1] -> t; c[2] -> o;
            "#,
        );
        let res = run_all(&g, "src");
        assert_eq!(res.egress.len(), 3);
        let by_iface = |i: u16| {
            res.egress
                .iter()
                .find(|(f, _)| *f == i)
                .map(|(_, p)| p)
                .expect("flow present")
        };
        assert!(by_iface(0).provably_eq(Field::Proto, 17));
        assert!(by_iface(1).provably_eq(Field::Proto, 6));
        let other = by_iface(2).possible(Field::Proto);
        assert!(!other.contains(17) && !other.contains(6) && other.contains(1));
    }

    #[test]
    fn opaque_vm_havocs() {
        let mut g = SymGraph::new();
        let vm = g.add_node("vm", Box::new(OpaqueVmModel)).unwrap();
        let out = g.add_node("out", Box::new(EgressModel(0))).unwrap();
        g.connect(vm, 0, out, 0);
        let res = g.run(vm, 0, SymPacket::unconstrained(), &ExecOptions::default());
        let flow = &res.egress[0].1;
        assert_eq!(flow.origin_of(flow.get(Field::IpSrc)), Some(Origin::Opaque));
    }

    #[test]
    fn unknown_class_has_no_model() {
        let Err(err) = model_for("FluxCapacitor", &[], &Registry::standard()) else {
            panic!("unknown class must not produce a model");
        };
        assert!(matches!(err, SymError::Config(_) | SymError::NoModel(_)));
    }

    #[test]
    fn static_lookup_partitions_by_prefix() {
        let g = graph(
            r#"
            src :: FromNetfront();
            r :: StaticIPLookup(10.0.0.0/8 0, 0.0.0.0/0 1);
            a :: ToNetfront(0); b :: ToNetfront(1);
            src -> r; r[0] -> a; r[1] -> b;
            "#,
        );
        let res = run_all(&g, "src");
        assert_eq!(res.egress.len(), 2);
        for (iface, flow) in &res.egress {
            let ten = u32::from(Ipv4Addr::new(10, 1, 1, 1)) as u64;
            match iface {
                0 => assert!(flow.possible(Field::IpDst).contains(ten)),
                _ => assert!(!flow.possible(Field::IpDst).contains(ten)),
            }
        }
    }

    #[test]
    fn element_models_carry_the_facts_lint_reads() {
        let registry = Registry::standard();
        let entry = |class: &str, args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            model_for(class, &args, &registry).unwrap()
        };
        let shape = |e: &ElementModel| (e.ports.inputs, e.ports.outputs);
        let outs = |outs: &[usize]| outs.iter().copied().collect::<BTreeSet<usize>>();
        // Reach per input, read off the model. The firewall's inbound side
        // passes tagged flows only, and the probe's tag is free.
        let fw = entry("StatefulFirewall", &["allow udp"]);
        assert_eq!(shape(&fw), (2, 2));
        assert_eq!(*fw.reach, [outs(&[0]), outs(&[1])]);
        let tee = entry("Tee", &["3"]);
        assert_eq!(*tee.reach, [outs(&[0, 1, 2])]);
        // Netfront endpoints get their ports without being built.
        let exit = entry("ToNetfront", &["1"]);
        assert_eq!(
            (shape(&exit), exit.reach.as_slice()),
            ((1, 0), &[outs(&[])][..])
        );
        assert_eq!(shape(&entry("FromDevice", &[])), (1, 1));
        // Idle declares an output it never emits on.
        let idle = entry("Idle", &[]);
        assert!(idle.sink && shape(&idle) == (1, 1) && *idle.reach == [outs(&[])]);
        assert!(!entry("Counter", &[]).sink);
        // A first-match element forwards to every output a rule names,
        // shadowed or not, and keeps its rules for IN-L011.
        let c = entry("IPClassifier", &["-", "udp"]);
        assert_eq!(
            (c.reach.as_slice(), c.rules.len()),
            (&[outs(&[0, 1])][..], 2)
        );
        let f = entry("IPFilter", &["deny all", "allow udp"]);
        assert_eq!((f.reach.as_slice(), f.rules.len()), (&[outs(&[0])][..], 2));
        assert_eq!(*entry("IPFilter", &["deny all"]).reach, [outs(&[])]);
        let lookup = entry("StaticIPLookup", &["10.0.0.0/8 1", "10.0.0.0/8 0"]);
        assert_eq!(*lookup.reach, [outs(&[0, 1])]);
    }

    #[test]
    fn netfront_models_parse_without_building_the_element() {
        let registry = Registry::standard();
        let model = model_for("ToDevice", &["3".to_string()], &registry)
            .unwrap()
            .model;
        let outs = model.exec(0, SymPacket::unconstrained());
        assert!(
            matches!(outs.as_slice(), [SymOut::Egress(3, _)]),
            "ToDevice(3) egresses on interface 3"
        );
        let model = model_for("FromDevice", &["7".to_string()], &registry)
            .unwrap()
            .model;
        assert!(matches!(
            model.exec(0, SymPacket::unconstrained()).as_slice(),
            [SymOut::Port(0, _)]
        ));
        // Bad arguments fail with the runtime constructor's own message.
        for class in ["FromNetfront", "ToNetfront", "FromDevice", "ToDevice"] {
            for args in [&["65536"][..], &["x"], &["1", "2"]] {
                let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                let Err(SymError::Config(got)) = model_for(class, &args, &registry) else {
                    panic!("{class}{args:?} must be a configuration error");
                };
                let Err(want) = registry.instantiate(class, &args) else {
                    panic!("{class}{args:?} must not instantiate");
                };
                assert_eq!(got, want.to_string(), "{class}{args:?}");
            }
        }
    }
}
