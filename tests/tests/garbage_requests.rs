//! Regression tests: malformed tenant input must surface as typed
//! `DeployError`s, never as a controller panic. Requests are built both
//! from hostile text and programmatically via `ClientRequest::click` /
//! `ClientRequest::stock`, which bypass every parse-time check.

mod hostile;
mod lint_oracle;

use innet::controller::ModuleConfig;
use innet::prelude::*;

fn fresh() -> Controller {
    let mut c = Controller::new(Topology::figure3());
    c.register_client(
        "mobile-7",
        RequesterClass::Client,
        vec!["172.16.15.133".parse().unwrap()],
    );
    c
}

/// Every deploy below must return; `Err` is fine, unwinding is not. A
/// Click configuration is also linted by the summary-based oracle, which
/// must agree with lint, and admission must refuse it at lint exactly when
/// the oracle finds an error.
fn deploy_must_not_panic(
    label: &str,
    request: ClientRequest,
) -> Result<DeployResponse, DeployError> {
    let mut c = fresh();
    let oracle = match &request.config {
        ModuleConfig::Click(cfg) => {
            Some(lint_oracle::assert_lint_agrees(cfg, &Registry::standard()).0)
        }
        ModuleConfig::Stock(_) => None,
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        c.deploy("mobile-7", request)
    }));
    let outcome = outcome.unwrap_or_else(|_| panic!("deploy panicked on {label}"));
    if let Some(oracle) = oracle {
        let linted = matches!(outcome, Err(DeployError::Lint(_)));
        assert_eq!(linted, oracle.has_errors(), "{label}: {oracle}");
    }
    outcome
}

#[test]
fn unknown_element_class_is_a_typed_error() {
    let req = ClientRequest::parse("module m:\nFromNetfront() -> Frobnicator(3) -> ToNetfront();")
        .unwrap();
    let err = deploy_must_not_panic("unknown element class", req).unwrap_err();
    // The lint pass (IN-L002) catches this before symbolic modeling; both
    // are typed refusals.
    assert!(
        matches!(err, DeployError::BadConfig(_) | DeployError::Lint(_)),
        "{err}"
    );
}

#[test]
fn dangling_connections_are_a_typed_error() {
    // A connection between elements that were never declared.
    let mut cfg = ClickConfig::new();
    cfg.connect("ghost", 0, "phantom", 0);
    let req = ClientRequest::click("m", cfg);
    let err = deploy_must_not_panic("dangling connection", req).unwrap_err();
    // The lint pass (IN-L005) catches this before symbolic modeling; both
    // are typed refusals.
    assert!(
        matches!(err, DeployError::BadConfig(_) | DeployError::Lint(_)),
        "{err}"
    );
}

#[test]
fn empty_config_does_not_panic() {
    // Zero elements, zero connections: nothing to check, nothing to
    // crash on. Accept or reject, but return.
    let req = ClientRequest::click("m", ClickConfig::new());
    let _ = deploy_must_not_panic("empty config", req);
}

#[test]
fn self_loop_does_not_panic() {
    // An element wired to itself: the symbolic executor must bound the
    // loop rather than recurse forever or panic.
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    cfg.add_element("c", "Counter", &[]);
    cfg.connect("in", 0, "c", 0);
    cfg.connect("c", 0, "c", 0);
    let req = ClientRequest::click("m", cfg);
    let _ = deploy_must_not_panic("self loop", req);
}

#[test]
fn hostile_arguments_do_not_panic() {
    // Arguments that are not remotely parseable as what the element
    // expects.
    for arg in hostile::HOSTILE_ARGS {
        let mut cfg = ClickConfig::new();
        cfg.add_element("in", "FromNetfront", &[]);
        cfg.add_element("f", "IPFilter", &[arg]);
        cfg.add_element("out", "ToNetfront", &[]);
        cfg.connect("in", 0, "f", 0);
        cfg.connect("f", 0, "out", 0);
        let req = ClientRequest::click("m", cfg);
        let _ = deploy_must_not_panic("hostile args", req);
    }
}

#[test]
fn unknown_client_is_a_typed_error() {
    let mut c = fresh();
    let req = ClientRequest::parse("stock s: geo-dns").unwrap();
    let err = c.deploy("nobody", req).unwrap_err();
    assert!(matches!(err, DeployError::UnknownClient(_)), "{err}");
    // Unknown-client outcomes are not verdicts about the request and must
    // not be memoized.
    assert_eq!(c.cached_verdicts(), 0);
}

#[test]
fn kill_of_unknown_module_is_a_typed_error() {
    let mut c = fresh();
    assert!(matches!(
        c.kill(12345),
        Err(DeployError::NoSuchModule(12345))
    ));
}

#[test]
fn garbage_requirements_are_typed_errors() {
    // A requirement way-point that exists in no network.
    let req = ClientRequest::stock("m", StockModule::GeoDns)
        .require(Requirement::parse("reach from internet -> Narnia").unwrap());
    let err = deploy_must_not_panic("unknown way-point", req).unwrap_err();
    assert!(
        matches!(
            err,
            DeployError::Verify(_) | DeployError::NoFeasiblePlacement { .. }
        ),
        "{err}"
    );
}

/// `FromNetfront → depth × Tee(2) → SetIPSrc(6.6.6.6) → ToNetfront` with
/// both outputs of each `Tee` feeding the next: `2^depth` identical flows
/// from `depth + 3` elements, every one a source-spoofer.
fn tee_lattice(depth: usize) -> ClickConfig {
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    let mut prev = "in".to_string();
    for i in 0..depth {
        let tee = format!("t{i}");
        cfg.add_element(&tee, "Tee", &["2"]);
        cfg.connect(&prev, 0, &tee, 0);
        if i > 0 {
            cfg.connect(&prev, 1, &tee, 0);
        }
        prev = tee;
    }
    cfg.add_element("spoof", "SetIPSrc", &["6.6.6.6"]);
    cfg.add_element("out", "ToNetfront", &[]);
    cfg.connect(&prev, 0, "spoof", 0);
    cfg.connect(&prev, 1, "spoof", 0);
    cfg.connect("spoof", 0, "out", 0);
    cfg
}

#[test]
fn truncated_exploration_is_never_admitted_unsandboxed() {
    // Below the symbolic executor's hop cap every flow is examined and
    // the spoofed source is a reject; past it (2^15 flows and up) the run
    // stops before any flow reaches egress, and a run that stopped
    // looking proves nothing: sandboxed at best, never plain `Safe`.
    for depth in [2, 8, 15, 18] {
        let mut c = fresh();
        c.register_client("stranger", RequesterClass::ThirdParty, Vec::new());
        let outcome = c.deploy("stranger", ClientRequest::click("m", tee_lattice(depth)));
        let truncated = c.stats().hop_cap_bailouts > 0;
        assert_eq!(truncated, depth >= 15, "depth {depth}: {:?}", c.stats());
        match outcome {
            Err(DeployError::SecurityReject(_)) => {}
            Ok(resp) if truncated && resp.sandboxed => {}
            other => panic!("depth {depth} (truncated: {truncated}): {other:?}"),
        }
    }
}

#[test]
fn truncated_requirement_check_is_undecided_not_unsatisfied() {
    // The lattice again, now with a `reach` requirement through its exit.
    // Its security check truncates from depth 15 on, so it is sandboxed
    // and reaches placement; from depth 17 on (2^17 flows) the
    // requirement check on platform3 — the one platform the Internet
    // reaches — stops at its hop cap too. `reach` holds only on a
    // conforming flow found, so a cut run may miss one: the platform is
    // refused, and the reason says undecided, not unsatisfied.
    let rule = "reach from internet -> m:out:0";
    for depth in [16, 17] {
        let mut c = fresh();
        c.register_client("stranger", RequesterClass::ThirdParty, Vec::new());
        let req = ClientRequest::click("m", tee_lattice(depth))
            .require(Requirement::parse(rule).unwrap());
        let Err(DeployError::NoFeasiblePlacement { reasons }) = c.deploy("stranger", req) else {
            panic!("depth {depth}: no platform can hold the requirement");
        };
        // One security-check cut for the request (it is checked once,
        // whichever platforms placement then tries), plus platform3's
        // requirement check from depth 17 on.
        let cut = depth >= 17;
        assert_eq!(
            c.stats().hop_cap_bailouts,
            1 + u64::from(cut),
            "depth {depth}"
        );
        for (platform, why) in &reasons {
            let want = if cut && platform == "platform3" {
                format!(
                    "client requirement undecided: exploration truncated at the hop cap: {rule}"
                )
            } else {
                format!("client requirement unsatisfied: {rule}")
            };
            assert_eq!(why, &want, "depth {depth}, {platform}");
        }
        assert_eq!(reasons.len(), 3);
    }
}

// ---------------------------------------------------------------------------
// Hostile classifier patterns: parse AND push, on both engines.
// ---------------------------------------------------------------------------

use innet::click::CompiledRouter;
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// A three-element pipeline around one hostile middle element.
fn pipeline(class: &str, args: &[&str]) -> ClickConfig {
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    cfg.add_element("x", class, args);
    cfg.add_element("out", "ToNetfront", &[]);
    cfg.connect("in", 0, "x", 0);
    cfg.connect("x", 0, "out", 0);
    cfg
}

/// Drives `frames` through `cfg` on the interpreter and on the compiled
/// plan (when the hostile arguments survive construction). Returning at
/// all is the assertion; any index-arithmetic panic fails the test.
fn push_both_engines(cfg: &ClickConfig, frames: Vec<Packet>) {
    let registry = Registry::standard();
    if let Ok(mut r) = Router::from_config(cfg, &registry) {
        r.push_batch(frames.clone(), 0, 100);
    }
    if let Ok(mut c) = CompiledRouter::compile(cfg, &registry) {
        c.push_batch(frames, 0, 100);
    }
}

/// Frames chosen to stress bounds logic: empty, truncated, exactly
/// header-sized, oversized, and one well-formed UDP packet.
fn hostile_frames(len: usize) -> Vec<Packet> {
    vec![
        Packet::from_bytes(Vec::new()),
        Packet::from_bytes(vec![0xAA; len % 33]),
        Packet::from_bytes(vec![0x45; 34]),
        PacketBuilder::udp()
            .src(Ipv4Addr::new(10, 0, 0, 1), 5000)
            .dst(Ipv4Addr::new(203, 0, 113, 7), 80)
            .pad_to(64 + len % 1600)
            .build(),
    ]
}

#[test]
fn max_offset_classifier_pattern_does_not_panic() {
    // Regression for the `ByteCheck::matches` overflow: at
    // `offset = usize::MAX` the old `offset + value.len()` bound
    // wrapped (out-of-bounds indexing in release) or overflowed (panic
    // in debug). The first pushed packet took the panic.
    let cfg = pipeline("Classifier", &["18446744073709551615/ffff", "-"]);
    let req = ClientRequest::click("m", cfg.clone());
    let _ = deploy_must_not_panic("max-offset classifier", req);
    push_both_engines(&cfg, hostile_frames(64));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Raw byte patterns with tenant-controlled offsets, values and
    /// masks: every combination must parse-or-refuse and push without
    /// unwinding, at any offset up to `u64::MAX` and against frames
    /// from empty to oversized.
    #[test]
    fn hostile_classifier_patterns_never_panic(
        offset in proptest::arbitrary::any::<u64>(),
        val_len in 1usize..48,
        with_mask in proptest::arbitrary::any::<bool>(),
        frame_len in 0usize..4096,
    ) {
        let mut term = format!("{offset}/{}", "ff".repeat(val_len));
        if with_mask {
            term.push_str(&format!("%{}", "aa".repeat(val_len)));
        }
        let cfg = pipeline("Classifier", &[&term, "-"]);
        let _ = deploy_must_not_panic("hostile byte pattern", ClientRequest::click("m", cfg.clone()));
        push_both_engines(&cfg, hostile_frames(frame_len));
    }

    /// Rule-list classifiers (`IPClassifier`/`IPFilter`) built from
    /// hostile fragments, pushed as well as parsed.
    #[test]
    fn hostile_ip_rules_never_panic(
        picks in proptest::collection::vec(0usize..hostile::HOSTILE_IP_RULES.len(), 1..4),
        frame_len in 0usize..4096,
    ) {
        let args: Vec<&str> = picks.iter().map(|&i| hostile::HOSTILE_IP_RULES[i]).collect();
        for class in ["IPClassifier", "IPFilter"] {
            let cfg = pipeline(class, &args);
            let _ = deploy_must_not_panic("hostile ip rules", ClientRequest::click("m", cfg.clone()));
            push_both_engines(&cfg, hostile_frames(frame_len));
        }
    }

    /// `MarkIPHeader(N)` writes a tenant-chosen L3 offset into packet
    /// metadata; header accessors downstream must bounds-check it at
    /// any value.
    #[test]
    fn hostile_mark_ip_header_offsets_never_panic(
        offset in proptest::arbitrary::any::<u64>(),
        frame_len in 0usize..4096,
    ) {
        let arg = format!("{offset}");
        let mut cfg = ClickConfig::new();
        cfg.add_element("in", "FromNetfront", &[]);
        cfg.add_element("m", "MarkIPHeader", &[&arg]);
        cfg.add_element("t", "DecIPTTL", &[]);
        cfg.add_element("out", "ToNetfront", &[]);
        cfg.connect("in", 0, "m", 0);
        cfg.connect("m", 0, "t", 0);
        cfg.connect("t", 0, "out", 0);
        let _ = deploy_must_not_panic("hostile mark offset", ClientRequest::click("m", cfg.clone()));
        push_both_engines(&cfg, hostile_frames(frame_len));
    }
}
