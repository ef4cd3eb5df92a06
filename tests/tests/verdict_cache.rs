//! Integration tests for the controller's verification verdict cache.
//!
//! The contract under test: deploying a canonically-identical request a
//! second time must produce a verdict byte-identical to the uncached one
//! (same platform, same sandbox decision, same error rendering) while
//! skipping symbolic verification entirely — and any change that could
//! alter verdicts (operator policy, hardening, module removal) must
//! invalidate every cached entry.

use innet::controller::HardeningPolicy;
use innet::prelude::*;

/// The paper's Figure 4 request: a UDP batcher for a mobile client.
const FIG4: &str = r#"
    module batcher:
    FromNetfront()
      -> IPFilter(allow udp dst port 1500)
      -> IPRewriter(pattern - - 172.16.15.133 - 0 0)
      -> TimedUnqueue(120, 100)
      -> dst :: ToNetfront();

    reach from internet udp
      -> batcher:dst:0 dst 172.16.15.133
      -> client dst port 1500
      const proto && dst port && payload
"#;

/// A module that transits foreign traffic unchanged: provably rejected
/// for any tenant class by the no-transit security rule.
const TRANSIT: &str = "module transit:\nFromNetfront() -> Counter() -> ToNetfront();";

fn fresh() -> Controller {
    let mut c = Controller::new(Topology::figure3());
    c.register_client(
        "mobile-7",
        RequesterClass::Client,
        vec!["172.16.15.133".parse().unwrap()],
    );
    c.register_client(
        "cdn-corp",
        RequesterClass::ThirdParty,
        vec!["198.51.100.77".parse().unwrap()],
    );
    c
}

fn req(text: &str) -> ClientRequest {
    ClientRequest::parse(text).unwrap()
}

/// Renders a deploy outcome to the byte string the differential test
/// compares. Addresses are excluded deliberately: a hit commits at the
/// next free address, so the verdict is platform + sandbox decision, or
/// the full error rendering.
fn verdict_sig(outcome: &Result<DeployResponse, DeployError>) -> String {
    match outcome {
        Ok(r) => format!("accept platform={} sandboxed={}", r.platform, r.sandboxed),
        Err(e) => format!("reject {e}"),
    }
}

/// The corpus of §4.1 stock requests plus the Figure 4 Click request and
/// a provably-rejected transit module, each with the tenant that issues
/// it.
fn corpus() -> Vec<(&'static str, &'static str)> {
    vec![
        ("cdn-corp", "stock edge: reverse-proxy"),
        ("cdn-corp", "stock geo: geo-dns"),
        ("cdn-corp", "stock burst: x86-vm"),
        ("mobile-7", "stock px: explicit-proxy"),
        ("mobile-7", FIG4),
        ("cdn-corp", TRANSIT),
    ]
}

/// For every corpus request: a fresh controller's (uncached) verdict, the
/// same controller's first deploy, and its second (cached) deploy are
/// byte-identical — and the second deploy is a hit that does zero
/// checking.
#[test]
fn cached_verdicts_are_byte_identical_to_uncached() {
    for (who, text) in corpus() {
        // Uncached baseline on its own controller.
        let mut baseline = fresh();
        let base = verdict_sig(&baseline.deploy(who, req(text)));

        let mut c = fresh();
        let first = verdict_sig(&c.deploy(who, req(text)));
        let before = c.stats();
        let second = verdict_sig(&c.deploy(who, req(text)));
        let after = c.stats();

        assert_eq!(base, first, "{who}: first deploy diverged from baseline");
        assert_eq!(first, second, "{who}: cached verdict diverged");
        assert_eq!(
            after.cache_hits,
            before.cache_hits + 1,
            "{who}: second deploy was not a cache hit"
        );
        // A hit runs no symbolic checking and compiles no model.
        assert_eq!(after.check_ns, before.check_ns, "{who}: hit spent check_ns");
        assert_eq!(
            after.compile_ns, before.compile_ns,
            "{who}: hit spent compile_ns"
        );
        assert!(after.check_ns_saved > before.check_ns_saved || before.check_ns == 0);
    }
}

/// An operator policy change discards every cached verdict: the next
/// deploy of a previously-hit request runs full verification again.
#[test]
fn policy_change_invalidates_cached_verdicts() {
    let mut c = fresh();
    let first = verdict_sig(&c.deploy("mobile-7", req(FIG4)));
    c.deploy("mobile-7", req(FIG4)).unwrap();
    assert_eq!(c.stats().cache_hits, 1);
    assert_eq!(c.stats().cache_misses, 1);
    assert_eq!(c.cached_verdicts(), 1);

    c.add_operator_policy(
        Requirement::parse("reach from internet tcp src port 80 -> HTTPOptimizer -> client")
            .unwrap(),
    );
    assert_eq!(c.cached_verdicts(), 0, "policy change must empty the cache");
    assert_eq!(c.stats().cache_invalidations, 1);

    let third = verdict_sig(&c.deploy("mobile-7", req(FIG4)));
    assert_eq!(c.stats().cache_hits, 1, "third deploy must not hit");
    assert_eq!(c.stats().cache_misses, 2, "third deploy must re-verify");
    // The new rule does not hold on Figure 3, so re-verification now
    // rejects — replaying the stale cached accept would have been wrong.
    assert!(first.starts_with("accept"), "{first}");
    assert!(third.starts_with("reject"), "{third}");
}

/// Hardening changes invalidate only when they actually change the
/// policy; killing a module always invalidates.
#[test]
fn hardening_and_kill_invalidate() {
    let mut c = fresh();
    let resp = c.deploy("mobile-7", req(FIG4)).unwrap();

    // A no-op hardening assignment must keep the cache warm.
    c.set_hardening(HardeningPolicy::default());
    assert_eq!(c.cached_verdicts(), 1);

    c.set_hardening(HardeningPolicy {
        ingress_filtering: true,
        ban_udp_reflection: false,
    });
    assert_eq!(c.cached_verdicts(), 0);
    assert_eq!(c.stats().cache_invalidations, 1);

    // Repopulate, then kill: removal can flip verdicts, so it bumps too.
    c.deploy("mobile-7", req(FIG4)).unwrap();
    assert_eq!(c.cached_verdicts(), 1);
    c.kill(resp.module_id).unwrap();
    assert_eq!(c.cached_verdicts(), 0);
    assert_eq!(c.stats().cache_invalidations, 2);
}

/// Rejections are memoized too: the replayed error renders identically
/// and the hit is counted.
#[test]
fn rejects_replay_from_the_cache() {
    let mut c = fresh();
    let first = verdict_sig(&c.deploy("cdn-corp", req(TRANSIT)));
    let second = verdict_sig(&c.deploy("cdn-corp", req(TRANSIT)));
    assert!(first.starts_with("reject"));
    assert_eq!(first, second);
    assert_eq!(c.stats().cache_hits, 1);
    assert_eq!(c.stats().rejected, 2);
    assert_eq!(c.stats().accepted, 0);
}

/// Why hits are cheap, as operation counts rather than a wall-clock
/// ratio: on 100 identical requests only the first compiles a model or
/// runs a check — every hit's response reports zero time in both phases
/// and the controller's phase totals stop moving after the single miss.
#[test]
fn hits_skip_compilation_and_checking() {
    let mut c = fresh();

    c.deploy("mobile-7", req(FIG4)).unwrap();
    let after_miss = c.stats();

    for _ in 0..99 {
        let hit = c.deploy("mobile-7", req(FIG4)).unwrap();
        assert_eq!((hit.compile_ns, hit.check_ns), (0, 0));
    }
    let s = c.stats();
    assert_eq!(s.cache_hits, 99);
    assert_eq!(s.cache_misses, 1);
    assert_eq!(s.accepted, 100);
    assert_eq!(s.compile_ns, after_miss.compile_ns);
    assert_eq!(s.check_ns, after_miss.check_ns);
    assert_eq!(s.analysis_ns, after_miss.analysis_ns);
    // Exactly one miss populated check_ns; every hit credits that cost.
    assert_eq!(s.check_ns_saved, 99 * s.check_ns);
}

/// A request that names the next pool address as its source is a
/// spoofer at every address. The literal below is the address Figure 3's preferred platform hands out
/// first: checked there, it would pass anti-spoofing as the module's own
/// source, and two memo hits would install copies at the next two
/// addresses that stamp it on transit traffic. Checked once against an
/// address no request can name, the request is a spoofer wherever it
/// lands — the miss and both hits reject, and nothing is installed.
#[test]
fn a_literal_that_matches_the_next_address_is_still_spoofing() {
    let mut c = fresh();
    let text = "module copycat:\nFromNetfront() -> SetIPSrc(203.0.113.10) -> ToNetfront();";
    for attempt in 0..3 {
        match c.deploy("mobile-7", req(text)) {
            Err(DeployError::SecurityReject(report)) => {
                let why = format!("{:?}", report.violations);
                assert!(why.contains("$SELF"), "attempt {attempt}: {why}");
                assert!(!why.contains("240.0.0.1"), "attempt {attempt}: {why}");
            }
            other => panic!("attempt {attempt}: expected a security reject, got {other:?}"),
        }
    }
    let s = c.stats();
    assert_eq!((s.cache_misses, s.cache_hits, s.rejected), (1, 2, 3));
    assert!(c.modules().is_empty(), "{:?}", c.modules());
}

/// The sentinel `$SELF` stands for while a request is checked cannot be
/// named: a request that writes it (or anything in its reserved block)
/// is refused by lint, while the same request written with `$SELF`
/// deploys and gets a real address.
#[test]
fn the_checking_sentinel_cannot_be_named() {
    let mut c = fresh();
    let named = |addr: &str| {
        req(&format!(
            "module tun:\nFromNetfront() -> UDPTunnelEncap({addr}, 7000, 172.16.15.133, 7001) \
             -> ToNetfront();"
        ))
    };
    for addr in ["240.0.0.1", "255.255.255.254"] {
        match c.deploy("mobile-7", named(addr)) {
            Err(DeployError::Lint(report)) => assert!(report.has_rule("IN-L012"), "{report}"),
            other => panic!("{addr}: expected IN-L012, got {other:?}"),
        }
    }
    let resp = c.deploy("mobile-7", named("$SELF")).unwrap();
    assert_eq!(
        resp.public_addr,
        "203.0.113.10".parse::<std::net::Ipv4Addr>().unwrap()
    );
    assert_eq!(c.stats().lint_rejects, 2);
}

/// `$SELF` compared with a literal. The sentinel equals no literal, so
/// checked there the two filters below pass nothing and the spoofing
/// rewrite after them never runs. At the address the module is installed
/// at they may pass a flow, so a request that names `$SELF` is checked at
/// that address too, and none of its accepts is replayed at another.
#[test]
fn a_self_filter_that_meets_a_pool_literal_is_checked_where_it_lands() {
    let meet = |literal: &str| {
        req(&format!(
            "module meet:\nFromNetfront() -> IPFilter(allow dst host $SELF) \
             -> IPFilter(allow dst {literal}) -> SetIPSrc(8.8.8.8) -> ToNetfront();"
        ))
    };
    // Both filters pass traffic to 203.0.113.10, the first address
    // Figure 3's preferred platform hands out.
    for literal in ["host 203.0.113.10", "net 203.0.113.0/24"] {
        let mut c = fresh();
        let outcome = c.deploy("mobile-7", meet(literal));
        assert!(
            matches!(outcome, Err(DeployError::SecurityReject(_))),
            "{literal}: {outcome:?}"
        );
        assert!(c.modules().is_empty(), "{literal}: {:?}", c.modules());
    }
    // Harmless at .10, where no packet passes both filters; a spoofer at
    // .11, where the second copy would land.
    let mut c = fresh();
    let first = c.deploy("mobile-7", meet("host 203.0.113.11")).unwrap();
    assert_eq!(
        first.public_addr,
        "203.0.113.10".parse::<std::net::Ipv4Addr>().unwrap()
    );
    let second = c.deploy("mobile-7", meet("host 203.0.113.11"));
    assert!(
        matches!(second, Err(DeployError::SecurityReject(_))),
        "{second:?}"
    );
    let s = c.stats();
    assert_eq!((s.cache_misses, s.cache_hits), (2, 0));
    assert_eq!(c.modules().len(), 1);
}

/// The one behaviour the once-per-request check changes: the security
/// check no longer waits for a platform with room. With every platform
/// full a spoofer is refused as a spoofer, and that reject is memoised;
/// an acceptable request still gets the unmemoised capacity reject.
#[test]
fn a_spoofer_is_a_spoofer_even_when_every_platform_is_full() {
    let mut topo = Topology::figure3();
    for node in &mut topo.nodes {
        if let innet::topology::NodeKind::Platform(spec) = &mut node.kind {
            spec.capacity = 0;
        }
    }
    let mut c = Controller::new(topo);
    c.register_client("cdn-corp", RequesterClass::ThirdParty, Vec::new());
    c.register_client(
        "mobile-7",
        RequesterClass::Client,
        vec!["172.16.15.133".parse().unwrap()],
    );
    for _ in 0..2 {
        let outcome = c.deploy("cdn-corp", req(TRANSIT));
        assert!(
            matches!(outcome, Err(DeployError::SecurityReject(_))),
            "{outcome:?}"
        );
    }
    assert_eq!((c.stats().cache_misses, c.stats().cache_hits), (1, 1));
    let outcome = c.deploy("mobile-7", req(FIG4));
    assert!(
        matches!(outcome, Err(DeployError::NoFeasiblePlacement { .. })),
        "{outcome:?}"
    );
    assert_eq!(c.cached_verdicts(), 1, "capacity rejects are not memoised");
}
