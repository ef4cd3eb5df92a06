//! The paper's §2.2 policy-compliance example:
//!
//! > "Consider the in-network cloud provider shown in Figure 3, whose
//! > policy dictates that all HTTP traffic follow the bottom path and be
//! > inspected by the HTTP middlebox. If a client's VM talks HTTP, it
//! > should be installed on Platform 2 so that that the traffic can be
//! > verified by the middlebox. Installing the client's VM on Platform 1
//! > would disobey the operator's policy."
//!
//! The controller must pick the policy-compliant platform even when a
//! non-compliant one comes first in iteration order.

use innet::prelude::*;
use innet::symnet::RequesterClass;
use innet::topology::{NodeKind, PlatformSpec};

/// A §2.2-shaped operator network: two directly reachable platforms, one
/// of them behind an HTTP optimizer.
///
/// ```text
/// internet ── border ──┬── platform1          (pool 192.0.2.0/24)
///                      ├── httpopt ── platform2  (pool 198.51.100.0/24)
///                      └── clients  (172.16.0.0/16)
/// ```
fn section22_topology() -> Topology {
    let mut t = Topology::new();
    let internet = t.add("internet", NodeKind::Internet).unwrap();
    let clients = t
        .add(
            "clients",
            NodeKind::ClientSubnet("172.16.0.0/16".parse().unwrap()),
        )
        .unwrap();
    let border = t
        .add(
            "border",
            NodeKind::Router(vec![
                ("192.0.2.0/24".parse().unwrap(), 1),
                ("198.51.100.0/24".parse().unwrap(), 2),
                ("172.16.0.0/16".parse().unwrap(), 3),
                (innet::packet::Cidr::ANY, 0),
            ]),
        )
        .unwrap();
    let http_opt = t
        .add(
            "HTTPOptimizer",
            NodeKind::Middlebox(
                ClickConfig::parse(
                    r#"
                    in :: FromNetfront(0);
                    c  :: IPClassifier(tcp src port 80 or tcp dst port 80, -);
                    opt :: SetTOS(46);
                    out :: ToNetfront(1);
                    rin :: FromNetfront(1);
                    rout :: ToNetfront(0);
                    in -> c; c[0] -> opt -> out; c[1] -> out;
                    rin -> rout;
                    "#,
                )
                .unwrap(),
            ),
        )
        .unwrap();
    let p1 = t
        .add(
            "platform1",
            NodeKind::Platform(PlatformSpec {
                addr_pool: "192.0.2.0/24".parse().unwrap(),
                external: true,
                ..PlatformSpec::default()
            }),
        )
        .unwrap();
    let p2 = t
        .add(
            "platform2",
            NodeKind::Platform(PlatformSpec {
                addr_pool: "198.51.100.0/24".parse().unwrap(),
                external: true,
                ..PlatformSpec::default()
            }),
        )
        .unwrap();
    t.link_bidir(internet, 0, border, 0);
    t.link_bidir(border, 1, p1, 0);
    t.link_bidir(border, 2, http_opt, 0);
    t.link_bidir(http_opt, 1, p2, 0);
    t.link_bidir(border, 3, clients, 0);
    t
}

fn http_module_request() -> ClientRequest {
    http_module_request_with("")
}

/// [`http_module_request`] with `extra` (elements ending in `->`) spliced
/// in after its filter.
fn http_module_request_with(extra: &str) -> ClientRequest {
    // A module that receives web traffic and delivers it to the client —
    // "a client's VM [that] talks HTTP".
    ClientRequest::parse(&format!(
        r#"
        module webmod:
        FromNetfront()
          -> IPFilter(allow tcp src port 80) -> {extra}
          IPRewriter(pattern - - 172.16.15.133 - 0 0)
          -> dst :: ToNetfront();

        reach from internet tcp src port 80
          -> webmod:dst:0
          -> client
        "#,
    ))
    .unwrap()
}

/// A §2.2 controller with the HTTP policy, and the security checks
/// `request` cost it and the platform it landed on.
fn security_checks_of(request: ClientRequest) -> (u64, String) {
    let mut ctl = Controller::new(section22_topology());
    ctl.register_client(
        "websurfer",
        RequesterClass::Client,
        vec!["172.16.15.133".parse().unwrap()],
    );
    ctl.add_operator_policy(
        Requirement::parse("reach from internet tcp src port 80 -> HTTPOptimizer -> client")
            .unwrap(),
    );
    let first = ctl.ranked_platforms()[0];
    assert_eq!(ctl.topology().node(first).name, "platform1");
    let before = ctl.stats().security_checks;
    let resp = ctl.deploy("websurfer", request).unwrap();
    (ctl.stats().security_checks - before, resp.platform)
}

#[test]
fn http_module_lands_on_platform2_under_policy() {
    let mut ctl = Controller::new(section22_topology());
    ctl.register_client(
        "websurfer",
        RequesterClass::Client,
        vec!["172.16.15.133".parse().unwrap()],
    );
    // The operator's policy: HTTP traffic reaching clients must have
    // passed the HTTP optimizer.
    ctl.add_operator_policy(
        Requirement::parse("reach from internet tcp src port 80 -> HTTPOptimizer -> client")
            .unwrap(),
    );

    let resp = ctl.deploy("websurfer", http_module_request()).unwrap();
    // Platform 1 is iterated first, is reachable, and satisfies the
    // *client's* requirement — but placing there leaves no HTTP path to
    // clients through the optimizer, so the operator policy fails and the
    // controller moves on: §2.2's conclusion.
    assert_eq!(resp.platform, "platform2");
}

#[test]
fn without_policy_platform1_wins() {
    let mut ctl = Controller::new(section22_topology());
    ctl.register_client(
        "websurfer",
        RequesterClass::Client,
        vec!["172.16.15.133".parse().unwrap()],
    );
    let resp = ctl.deploy("websurfer", http_module_request()).unwrap();
    assert_eq!(resp.platform, "platform1", "first feasible platform");
}

#[test]
fn non_http_module_unconstrained_by_http_policy() {
    let mut ctl = Controller::new(section22_topology());
    ctl.register_client(
        "websurfer",
        RequesterClass::Client,
        vec!["172.16.15.133".parse().unwrap()],
    );
    ctl.add_operator_policy(
        Requirement::parse("reach from internet tcp src port 80 -> HTTPOptimizer -> client")
            .unwrap(),
    );
    // Seed the network with a compliant web module so the operator policy
    // is satisfiable at all…
    ctl.deploy("websurfer", http_module_request()).unwrap();
    // …then a UDP-only module may land anywhere; platform1 is first.
    let udp = ClientRequest::parse(
        r#"
        module udpmod:
        FromNetfront()
          -> IPFilter(allow udp dst port 1500)
          -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
          -> dst :: ToNetfront();

        reach from internet udp -> udpmod:dst:0 -> client dst port 1500
        "#,
    )
    .unwrap();
    let resp = ctl.deploy("websurfer", udp).unwrap();
    assert_eq!(resp.platform, "platform1");
}

/// The security check runs once per request, before the candidate loop,
/// however many platforms placement tries. Here placement refuses
/// platform1, the first-ranked candidate, on operator policy and accepts
/// platform2: two candidates, one check.
#[test]
fn security_is_checked_once_however_many_candidates_placement_tries() {
    let (checks, platform) = security_checks_of(http_module_request());
    assert_eq!((checks, platform.as_str()), (1, "platform2"));
}

/// A configuration that names `$SELF` is also checked at each candidate's
/// own address, which may equal a literal it compares `$SELF` with: one
/// check at the sentinel plus one per candidate tried (platform1,
/// refused on policy, and platform2).
#[test]
fn a_self_naming_request_is_checked_once_more_per_candidate_tried() {
    let request = http_module_request_with("IPFilter(allow dst host $SELF) ->");
    let (checks, platform) = security_checks_of(request);
    assert_eq!((checks, platform.as_str()), (1 + 2, "platform2"));
}
