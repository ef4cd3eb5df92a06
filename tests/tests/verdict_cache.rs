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
/// compares. Addresses are excluded deliberately: within one platform
/// pool they are interchangeable (the same argument `deploy_batch`
/// relies on), so the verdict is platform + sandbox decision, or the
/// full error rendering.
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

/// `deploy_batch` shards verify against snapshots that share the live
/// cache: a warm entry turns the whole batch into hits, and the shard
/// counters fold back into the controller's statistics.
#[test]
fn batch_shards_share_the_cache() {
    let mut c = fresh();
    c.deploy("mobile-7", req(FIG4)).unwrap();
    assert_eq!(c.stats().cache_misses, 1);

    let batch: Vec<(String, ClientRequest)> = (0..8)
        .map(|_| ("mobile-7".to_string(), req(FIG4)))
        .collect();
    let results = c.deploy_batch(batch, 4);
    assert_eq!(results.len(), 8);
    for r in &results {
        assert!(r.is_ok(), "batch deploy failed: {r:?}");
    }
    assert!(
        c.stats().cache_hits >= 8,
        "shards did not hit the shared cache: {:?}",
        c.stats()
    );
    assert_eq!(c.stats().cache_misses, 1);
}
