//! Static-analyzer integration tests.
//!
//! The load-bearing ones are differential, over one generator: wherever
//! the abstract interpreter claims a verdict it must agree with full
//! symbolic execution (which keeps the advisory field-effect table
//! honest — admission no longer consults it), the memoized checker must
//! agree with the whole-graph oracle, and `Controller::deploy` must
//! land every request in the class that oracle names.

mod lint_oracle;

use innet::analysis::{abstract_verdict, lint, SELF_SENTINEL};
use innet::click::{ClickConfig, Registry};
use innet::controller::HardeningPolicy;
use innet::prelude::*;
use innet::symnet::{
    check_module, check_module_memoized, ModelCache, SecurityContext, SecurityReport,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::net::Ipv4Addr;

const ASSIGNED: &str = "192.0.2.10";
const REGISTERED: &str = "172.16.15.133";

fn ctx(class: RequesterClass) -> SecurityContext {
    SecurityContext {
        assigned_addr: ASSIGNED.parse().unwrap(),
        registered: vec![REGISTERED.parse().unwrap()],
        class,
    }
}

/// The middle-element pool the generator draws from: every packet-path
/// element family the symbolic models cover (filters, rewriters, tunnels,
/// NATs, proxies, opaque VMs, responders), with valid arguments.
const POOL: &[(&str, &[&str])] = &[
    ("Counter", &[]),
    ("Queue", &[]),
    ("TimedUnqueue", &["120", "100"]),
    ("CheckIPHeader", &[]),
    ("DecIPTTL", &[]),
    ("SetTOS", &["4"]),
    ("Paint", &["3"]),
    ("IPFilter", &["allow udp"]),
    ("IPFilter", &["allow tcp dst port 80"]),
    ("IPFilter", &["allow udp dst port 1500"]),
    ("SetIPSrc", &[ASSIGNED]),
    ("SetIPSrc", &["8.8.8.8"]),
    ("SetIPDst", &[REGISTERED]),
    ("SetIPDst", &["203.0.113.77"]),
    ("IPRewriter", &["pattern - - 172.16.15.133 - 0 0"]),
    ("ICMPPingResponder", &[]),
    ("UDPTunnelEncap", &[ASSIGNED, "7000", REGISTERED, "7001"]),
    ("UDPTunnelDecap", &[]),
    ("IPNAT", &["203.0.113.1"]),
    ("StaticIPLookup", &["172.16.0.0/12 0"]),
    ("StockX86VM", &[]),
    ("ServerS", &[]),
];

/// Elements that name the first three addresses Figure 3's preferred
/// platform hands out, or its whole pool, so a chain can name the address
/// its module is about to be given. The filters on 192.0.2.10
/// ([`ASSIGNED`], rebound to `$SELF`) let a chain compare a field with
/// its own address and with one of those literals.
const POOL_LITERALS: &[(&str, &[&str])] = &[
    ("SetIPSrc", &["203.0.113.10"]),
    ("SetIPSrc", &["203.0.113.11"]),
    ("SetIPDst", &["203.0.113.10"]),
    ("SetIPDst", &["203.0.113.12"]),
    ("IPFilter", &["allow dst host 192.0.2.10"]),
    ("IPFilter", &["allow src host 192.0.2.10"]),
    ("IPFilter", &["allow dst host 203.0.113.10"]),
    ("IPFilter", &["allow dst host 203.0.113.11"]),
    ("IPFilter", &["allow dst net 203.0.113.0/24"]),
    ("IPFilter", &["allow src host 203.0.113.12"]),
    ("IPClassifier", &["dst host 192.0.2.10"]),
    ("IPClassifier", &["dst host 203.0.113.11"]),
];

/// A random linear chain `FromNetfront -> middle* -> terminal` over
/// [`POOL`]. Linear chains over the full pool already exercise every
/// abstract transfer function (constants, copies, runtime values,
/// filters, tunnels, havoc).
fn random_config(rng: &mut StdRng) -> ClickConfig {
    random_chain(rng, &[POOL])
}

/// [`random_config`] with its middle elements drawn from `pools` joined.
fn random_chain(rng: &mut StdRng, pools: &[&[(&str, &[&str])]]) -> ClickConfig {
    let drawable: Vec<_> = pools.iter().copied().flatten().collect();
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    let mut prev = "in".to_string();
    let middles = rng.gen_range(0usize..5);
    for i in 0..middles {
        let (class, args) = *drawable[rng.gen_range(0..drawable.len())];
        let name = format!("e{i}");
        cfg.add_element(name.clone(), class, args);
        cfg.connect(prev, 0, name.clone(), 0);
        prev = name;
    }
    let terminal = if rng.gen_range(0u32..8) == 0 {
        "Discard"
    } else {
        "ToNetfront"
    };
    cfg.add_element("out", terminal, &[]);
    cfg.connect(prev, 0, "out", 0);
    cfg
}

/// ≥1000 generated configurations × every requester class: wherever the
/// analyzer returns a verdict, symbolic execution must return the same
/// one. Mismatches print the offending configuration.
#[test]
fn fast_path_agrees_with_symnet_on_generated_configs() {
    let registry = Registry::standard();
    let mut rng = StdRng::seed_from_u64(0x1e7_2015);
    let mut decisive = 0usize;
    let mut inconclusive = 0usize;
    for case in 0..1000 {
        let cfg = random_config(&mut rng);
        for class in [
            RequesterClass::ThirdParty,
            RequesterClass::Client,
            RequesterClass::Operator,
        ] {
            let ctx = ctx(class);
            let Some(abs) = abstract_verdict(&cfg, &ctx, &registry) else {
                inconclusive += 1;
                continue;
            };
            decisive += 1;
            let sym = check_module(&cfg, &ctx, &registry).unwrap_or_else(|e| {
                panic!(
                    "case {case} ({class:?}): analyzer was conclusive but SymNet \
                     failed to model the config: {e}\n{}",
                    cfg.canonical_text()
                )
            });
            assert_eq!(
                abs.verdict,
                sym.verdict,
                "case {case} ({class:?}): fast path said {:?}, SymNet said {:?} \
                 (violations: {:?}, unknowns: {:?})\noffending config:\n{}",
                abs.verdict,
                sym.verdict,
                sym.violations,
                sym.unknowns,
                cfg.canonical_text()
            );
        }
    }
    // The analyzer must be decisive often enough for the comparison to
    // mean something; the exact rate depends on the pool mix.
    assert!(
        decisive > 100,
        "analyzer decided only {decisive} of {} cases",
        decisive + inconclusive
    );
}

/// `cfg` declared in a random order and, with `rename`, alpha-renamed:
/// every element gets a fresh name, handed out in a random order so the
/// sorted names no longer follow the declarations.
fn redeclared(cfg: &ClickConfig, rng: &mut StdRng, rename: bool) -> ClickConfig {
    let shuffled = |rng: &mut StdRng| {
        let mut v: Vec<usize> = (0..cfg.elements.len()).collect();
        for i in (1..v.len()).rev() {
            v.swap(i, rng.gen_range(0..=i));
        }
        v
    };
    let labels = shuffled(rng);
    let name = |n: &str| match cfg.elements.iter().position(|e| e.name == n) {
        Some(i) if rename => format!("x{}", labels[i]),
        _ => n.to_string(),
    };
    let mut out = ClickConfig::new();
    for i in shuffled(rng) {
        let decl = &cfg.elements[i];
        let args: Vec<&str> = decl.args.iter().map(String::as_str).collect();
        out.add_element(name(&decl.name), &decl.class, &args);
    }
    for c in &cfg.connections {
        out.connect(
            name(&c.from.element),
            c.from.port,
            name(&c.to.element),
            c.to.port,
        );
    }
    out
}

/// ≥1000 generated configurations × every requester class: the check on
/// a shared, warm [`ModelCache`] must give the report the no-memo
/// whole-graph oracle gives — the same verdict, flow count and
/// violations. After each configuration warms the memo, two variants of
/// it go through the same memo: one declared in another order and
/// alpha-renamed, which is wired from memoized models, and that one
/// declared in yet another order, which the graph memo serves with the
/// first variant's node numbering (the ordering bug class of a memo
/// keyed on canonical text).
#[test]
fn memoized_verdict_agrees_with_whole_graph() {
    let registry = Registry::standard();
    let seed = 0xc0_2015;
    println!("seed {seed:#x}");
    let mut rng = StdRng::seed_from_u64(seed);
    let warm = ModelCache::default();
    let mut checked = 0;
    let report = |r: SecurityReport| {
        let mut violations = r.violations;
        violations.sort();
        (r.verdict, r.flows_checked, violations)
    };
    for case in 0..1000 {
        let cfg = random_config(&mut rng);
        let renamed = redeclared(&cfg, &mut rng, true);
        let reordered = redeclared(&renamed, &mut rng, false);
        assert_eq!(renamed.canonical_text(), reordered.canonical_text());
        for (label, cfg) in [
            ("as generated", &cfg),
            ("renamed", &renamed),
            ("reordered", &reordered),
        ] {
            checked += 1;
            let memoized_before = warm.graphs_len();
            for class in [
                RequesterClass::ThirdParty,
                RequesterClass::Client,
                RequesterClass::Operator,
            ] {
                let ctx = ctx(class);
                let oracle = check_module(cfg, &ctx, &registry).map(report);
                let got =
                    check_module_memoized(cfg, &ctx, &registry, &warm).map(|(r, _)| report(r));
                assert_eq!(
                    got,
                    oracle,
                    "seed {seed:#x} case {case} ({class:?}, {label}): memoized vs \
                     whole-graph\noffending config:\n{}",
                    cfg.canonical_text()
                );
            }
            if label == "reordered" {
                assert_eq!(
                    warm.graphs_len(),
                    memoized_before,
                    "seed {seed:#x} case {case}: the graph memo served the reordered variant"
                );
            }
        }
    }
    // The warm graph memo served every reordered variant (and the
    // generator's repeats): it holds fewer graphs than configurations
    // went through it.
    assert!(
        warm.graphs_len() < checked,
        "{} graphs for {checked} configs",
        warm.graphs_len()
    );
}

// --- Seeded malformed configurations: each must trip its lint rule. ---

fn lint_of(cfg: &ClickConfig) -> innet::analysis::LintReport {
    lint(cfg, &Registry::standard())
}

#[test]
fn arity_violation_is_l004() {
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    cfg.add_element("c", "Counter", &[]);
    cfg.add_element("out", "ToNetfront", &[]);
    cfg.connect("in", 0, "c", 0);
    // Counter has exactly one output; port 1 does not exist.
    cfg.connect("c", 1, "out", 0);
    let r = lint_of(&cfg);
    assert!(r.has_rule("IN-L004"), "{r}");
    assert!(r.has_errors());
}

#[test]
fn dead_output_is_l007() {
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    cfg.add_element("t", "Tee", &["2"]);
    cfg.add_element("out", "ToNetfront", &[]);
    cfg.connect("in", 0, "t", 0);
    cfg.connect("t", 0, "out", 0);
    // t[1] is wired to nothing: its copies vanish silently.
    let r = lint_of(&cfg);
    assert!(r.has_rule("IN-L007"), "{r}");
}

#[test]
fn unreachable_element_is_l008() {
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    cfg.add_element("out", "ToNetfront", &[]);
    cfg.add_element("orphan", "Counter", &[]);
    cfg.add_element("sink", "Discard", &[]);
    cfg.connect("in", 0, "out", 0);
    cfg.connect("orphan", 0, "sink", 0);
    let r = lint_of(&cfg);
    assert!(r.has_rule("IN-L008"), "{r}");
}

#[test]
fn queueless_cycle_is_l009_and_a_queue_clears_it() {
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    cfg.add_element("a", "Counter", &[]);
    cfg.add_element("b", "Counter", &[]);
    cfg.connect("in", 0, "a", 0);
    cfg.connect("a", 0, "b", 0);
    cfg.connect("b", 0, "a", 0);
    let r = lint_of(&cfg);
    assert!(r.has_rule("IN-L009"), "{r}");

    // The same loop through a Queue is a legitimate feedback shape.
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    cfg.add_element("a", "Counter", &[]);
    cfg.add_element("q", "Queue", &[]);
    cfg.connect("in", 0, "a", 0);
    cfg.connect("a", 0, "q", 0);
    cfg.connect("q", 0, "a", 0);
    let r = lint_of(&cfg);
    assert!(!r.has_rule("IN-L009"), "{r}");
}

#[test]
fn remaining_rules_fire() {
    // IN-L001: duplicate names.
    let mut cfg = ClickConfig::new();
    cfg.add_element("x", "Counter", &[]);
    cfg.add_element("x", "Counter", &[]);
    assert!(lint_of(&cfg).has_rule("IN-L001"));

    // IN-L002: unknown class.
    let mut cfg = ClickConfig::new();
    cfg.add_element("f", "Frobnicator", &[]);
    assert!(lint_of(&cfg).has_rule("IN-L002"));

    // IN-L003: malformed arguments.
    let mut cfg = ClickConfig::new();
    cfg.add_element("t", "SetTOS", &["not-a-number"]);
    assert!(lint_of(&cfg).has_rule("IN-L003"));

    // IN-L005: dangling connection.
    let mut cfg = ClickConfig::new();
    cfg.connect("ghost", 0, "phantom", 0);
    assert!(lint_of(&cfg).has_rule("IN-L005"));

    // IN-L006: fanout without a Tee.
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    cfg.add_element("a", "Discard", &[]);
    cfg.add_element("b", "Discard", &[]);
    cfg.connect("in", 0, "a", 0);
    cfg.connect("in", 0, "b", 0);
    assert!(lint_of(&cfg).has_rule("IN-L006"));

    // IN-L010: wiring into a source is a warning, not an error.
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    cfg.add_element("in2", "FromNetfront", &[]);
    cfg.add_element("out", "ToNetfront", &[]);
    cfg.connect("in", 0, "in2", 0);
    cfg.connect("in2", 0, "out", 0);
    let r = lint_of(&cfg);
    assert!(r.has_rule("IN-L010"), "{r}");
    assert!(!r.has_errors(), "{r}");
}

#[test]
fn dead_classifier_rule_is_l011() {
    // Rule 2 `udp dst port 53` can never fire: rule 0 `udp` already
    // captures every UDP packet. The warning names the shortest
    // shadowing prefix (just rule 0 here).
    let cfg = ClickConfig::parse(
        "in :: FromNetfront(); \
         c :: IPClassifier(udp, tcp, udp dst port 53, -); \
         a :: Discard(); b :: Discard(); d :: Discard(); e :: Discard(); \
         in -> c; c[0] -> a; c[1] -> b; c[2] -> d; c[3] -> e;",
    )
    .unwrap();
    let r = lint_of(&cfg);
    assert!(r.has_rule("IN-L011"), "{r}");
    assert!(!r.has_errors(), "{r}");
    let d = r.diagnostics.iter().find(|d| d.rule == "IN-L011").unwrap();
    assert_eq!(d.element.as_deref(), Some("c"));
    assert!(d.message.contains("rule 2"), "{}", d.message);
    assert!(d.message.contains("0..=0"), "{}", d.message);
}

#[test]
fn dead_filter_rule_is_l011_with_multi_rule_prefix() {
    // Rule 2 `deny tcp dst port 80` is only fully covered once both
    // `tcp syn` (rule 0) and `tcp` (rule 1) are refuted, so the
    // shortest shadowing prefix is 0..=1.
    let cfg = ClickConfig::parse(
        "in :: FromNetfront(); \
         f :: IPFilter(allow tcp syn, allow tcp, deny tcp dst port 80, allow any); \
         out :: ToNetfront(); in -> f -> out;",
    )
    .unwrap();
    let r = lint_of(&cfg);
    assert!(r.has_rule("IN-L011"), "{r}");
    assert!(!r.has_errors(), "{r}");
    let d = r.diagnostics.iter().find(|d| d.rule == "IN-L011").unwrap();
    assert_eq!(d.element.as_deref(), Some("f"));
    assert!(d.message.contains("rule 2"), "{}", d.message);
    assert!(d.message.contains("0..=1"), "{}", d.message);
    assert!(d.message.contains("deny tcp dst port 80"), "{}", d.message);
}

#[test]
fn live_rules_are_not_l011() {
    // The Figure 4 filter and an order-sensitive classifier where every
    // rule still has reachable packets.
    let cfg = ClickConfig::parse(
        "in :: FromNetfront(); \
         f :: IPFilter(allow udp dst port 1500); \
         c :: IPClassifier(udp dst port 53, udp, -); \
         a :: Discard(); b :: Discard(); d :: Discard(); \
         in -> f -> c; c[0] -> a; c[1] -> b; c[2] -> d;",
    )
    .unwrap();
    let r = lint_of(&cfg);
    assert!(!r.has_rule("IN-L011"), "{r}");
}

// --- Controller integration: lint rejection and the symbolic stage. ---

fn controller() -> Controller {
    let mut c = Controller::new(Topology::figure3());
    c.register_client(
        "mobile-7",
        RequesterClass::Client,
        vec![REGISTERED.parse().unwrap()],
    );
    c.register_client(
        "cdn-corp",
        RequesterClass::ThirdParty,
        vec![Ipv4Addr::new(198, 51, 100, 1)],
    );
    c
}

#[test]
fn controller_rejects_lint_errors_with_the_diagnostic() {
    let mut c = controller();
    let mut cfg = ClickConfig::new();
    cfg.add_element("in", "FromNetfront", &[]);
    cfg.add_element("t", "Tee", &["2"]);
    cfg.add_element("out", "ToNetfront", &[]);
    cfg.connect("in", 0, "t", 0);
    cfg.connect("t", 0, "out", 0);
    let req = ClientRequest::click("m", cfg);
    let err = c.deploy("mobile-7", req).unwrap_err();
    match err {
        DeployError::Lint(report) => {
            assert!(report.has_rule("IN-L007"), "{report}");
        }
        other => panic!("expected a lint rejection, got {other}"),
    }
    assert_eq!(c.stats().lint_rejects, 1);
    assert_eq!(c.modules().len(), 0);
}

/// The stock corpus (no requirements) is admitted by the symbolic stage:
/// every verdict comes from one security check per request, and with
/// nothing for placement to verify no network model is compiled.
#[test]
fn stock_corpus_is_admitted_by_the_symbolic_stage() {
    let mut c = controller();
    let obs = innet::obs::Registry::new();
    c.attach_metrics(&obs);
    for (i, kind) in ["geo-dns", "reverse-proxy", "x86-vm", "explicit-proxy"]
        .iter()
        .enumerate()
    {
        let req = ClientRequest::parse(&format!("stock m{i}: {kind}")).unwrap();
        c.deploy("cdn-corp", req).unwrap();
    }
    let stats = c.stats();
    assert_eq!(stats.accepted, 4, "{stats:?}");
    assert!(stats.check_ns > 0, "the symbolic stage decided: {stats:?}");
    assert_eq!(stats.security_checks, 4, "{stats:?}");
    assert_eq!(stats.hop_cap_bailouts, 0, "{stats:?}");
    assert_eq!(stats.compile_ns, 0, "nothing for placement to verify");
    assert!(stats.analysis_ns > 0);

    // The counters are exported through the shared registry.
    let text = obs.snapshot().to_prometheus();
    assert!(text.contains("innet_ctl_lint_rejects_total"), "{text}");
}

/// The stock corpus — every stock module's configuration and the Table 1
/// middleboxes — lints the same under the summary-based oracle, and
/// admission refuses at lint exactly what the oracle finds errors in.
#[test]
fn lint_agrees_with_its_oracle_on_the_stock_corpus() {
    use innet::controller::{stock_config, table1_catalog, StockModule};
    let registry = Registry::standard();
    let peer = Ipv4Addr::new(198, 51, 100, 1);
    let owner2 = Ipv4Addr::new(172, 16, 15, 134);
    let assigned = ASSIGNED.parse().unwrap();
    let mut c = controller();
    for (i, kind) in [
        StockModule::ReverseHttpProxy,
        StockModule::ExplicitProxy,
        StockModule::GeoDns,
        StockModule::X86Vm,
    ]
    .into_iter()
    .enumerate()
    {
        let (oracle, _) = lint_oracle::assert_lint_agrees(&stock_config(kind, assigned), &registry);
        assert!(!oracle.has_errors(), "{kind:?}: {oracle}");
        let outcome = c.deploy("cdn-corp", ClientRequest::stock(format!("s{i}"), kind));
        assert!(!matches!(outcome, Err(DeployError::Lint(_))), "{kind:?}");
    }
    let catalog = table1_catalog(assigned, REGISTERED.parse().unwrap(), owner2, peer);
    for (name, cfg) in catalog {
        let (oracle, _) = lint_oracle::assert_lint_agrees(&cfg, &registry);
        let outcome = c.deploy("cdn-corp", ClientRequest::click(name, cfg));
        let linted = matches!(outcome, Err(DeployError::Lint(_)));
        assert_eq!(linted, oracle.has_errors(), "{name}: {oracle}");
    }
}

/// A deploy exports the admission-pipeline
/// instrumentation: the reason-labeled bailout counter, the security
/// check counter, and the per-stage latency histograms.
#[test]
fn symbolic_pipeline_metrics_are_exported() {
    let mut c = controller();
    let obs = innet::obs::Registry::new();
    c.attach_metrics(&obs);
    let req = ClientRequest::parse(
        "module batcher:\n\
         FromNetfront()\n\
           -> IPFilter(allow udp dst port 1500)\n\
           -> IPRewriter(pattern - - 172.16.15.133 - 0 0)\n\
           -> TimedUnqueue(120, 100)\n\
           -> dst :: ToNetfront();\n\
         reach from internet udp\n\
           -> batcher:dst:0 dst 172.16.15.133\n\
           -> client dst port 1500\n\
           const proto && dst port && payload",
    )
    .unwrap();
    c.deploy("mobile-7", req).unwrap();

    let stats = c.stats();
    assert_eq!(stats.security_checks, 1, "{stats:?}");
    assert_eq!(
        stats.symbolic_bailouts(),
        stats.hop_cap_bailouts + stats.visit_cap_bailouts
    );

    let text = obs.snapshot().to_prometheus();
    for metric in [
        "innet_ctl_symbolic_bailouts_total",
        "innet_ctl_security_checks_total",
        "innet_ctl_stage_lint_ns",
        "innet_ctl_stage_symbolic_ns",
        "innet_ctl_stage_placement_ns",
    ] {
        assert!(text.contains(metric), "missing {metric} in:\n{text}");
    }
}

/// `cfg` with every argument naming [`ASSIGNED`] rebound to `to` — the
/// `$SELF` placeholder for a request, the address the controller will
/// assign for the oracle's copy.
fn rebind_assigned(cfg: &ClickConfig, to: &str) -> ClickConfig {
    let mut cfg = cfg.clone();
    for arg in cfg.elements.iter_mut().flat_map(|e| &mut e.args) {
        *arg = arg.replace(ASSIGNED, to);
    }
    cfg
}

/// ≥1000 generated configurations × every requester class: the admission
/// pipeline (verdict memo, lint, memoized security check, placement)
/// must put each request in the class the whole-graph oracle
/// `check_module` names — `Safe` installs plain, `SafeWithSandbox`
/// installs sandboxed, `Reject` is a `SecurityReject` — with a lint
/// refusal exactly when `lint` reports errors (and the summary-based lint
/// oracle agrees with it) and `BadConfig` exactly when the oracle cannot
/// model the configuration. One controller serves
/// the three classes of a configuration, so a verdict replayed across
/// classes would show; each accept is killed at once so Figure 3 never
/// fills.
#[test]
fn admission_agrees_with_the_whole_graph_oracle_on_generated_configs() {
    const SEED: u64 = 0xad31_2015;
    // Where Figure 3's preferred platform starts handing out addresses;
    // every accept below asserts the controller really chose the address
    // the oracle was asked about.
    let first_addr = u32::from(Ipv4Addr::new(203, 0, 113, 10));
    let registry = Registry::standard();
    let mut rng = StdRng::seed_from_u64(SEED);
    let (mut plain, mut sandboxed, mut rejected, mut linted) = (0, 0, 0, 0);
    for case in 0..1000 {
        let cfg = random_config(&mut rng);
        let template = rebind_assigned(&cfg, "$SELF");
        let mut c = Controller::new(Topology::figure3());
        let mut accepts = 0u32;
        for class in [
            RequesterClass::ThirdParty,
            RequesterClass::Client,
            RequesterClass::Operator,
        ] {
            let who = format!("{class:?}");
            c.register_client(&who, class, vec![REGISTERED.parse().unwrap()]);
            let addr = Ipv4Addr::from(first_addr + accepts);
            let bound = rebind_assigned(&cfg, &addr.to_string());
            let oracle_ctx = SecurityContext {
                assigned_addr: addr,
                ..ctx(class)
            };
            let oracle = check_module(&bound, &oracle_ctx, &registry).map(|r| r.verdict);
            let (oracle_report, _) = lint_oracle::assert_lint_agrees(&bound, &registry);
            let lint_errors = oracle_report.has_errors();

            let outcome = c.deploy(&who, ClientRequest::click("m", template.clone()));
            let agrees = match (&outcome, &oracle) {
                (Err(DeployError::Lint(_)), _) => lint_errors,
                _ if lint_errors => false,
                (Err(DeployError::BadConfig(_)), Err(_)) => true,
                (Err(DeployError::SecurityReject(_)), Ok(Verdict::Reject)) => true,
                (Ok(resp), Ok(Verdict::SafeWithSandbox)) => resp.sandboxed,
                (Ok(resp), Ok(Verdict::Safe)) => !resp.sandboxed,
                _ => false,
            };
            assert!(
                agrees,
                "seed {SEED:#x} case {case} ({class:?}): deploy said {outcome:?}, the oracle \
                 {oracle:?} (lint errors: {lint_errors})\noffending config:\n{}",
                bound.canonical_text()
            );
            match outcome {
                Ok(resp) => {
                    assert_eq!(resp.public_addr, addr, "seed {SEED:#x} case {case}");
                    accepts += 1;
                    if class == RequesterClass::Operator {
                        // Trusted: says nothing about the checker.
                    } else if resp.sandboxed {
                        sandboxed += 1;
                    } else {
                        plain += 1;
                    }
                    c.kill(resp.module_id).unwrap();
                }
                Err(DeployError::Lint(_)) => linted += 1,
                Err(_) => rejected += 1,
            }
        }
        assert_eq!(c.stats().hop_cap_bailouts, 0, "case {case}");
    }
    // Every class of tenant outcome must actually occur, or the
    // comparison above proves less than it reads.
    assert!(
        plain > 50 && sandboxed > 50 && rejected > 50,
        "tenant outcomes: {plain} plain, {sandboxed} sandboxed, {rejected} rejected, \
         {linted} lint refusals"
    );
}

/// `Reject` < `SafeWithSandbox` < `Safe`.
fn permissiveness(verdict: Verdict) -> u8 {
    match verdict {
        Verdict::Reject => 0,
        Verdict::SafeWithSandbox => 1,
        Verdict::Safe => 2,
    }
}

/// 1000 generated configurations that may also name the addresses the
/// controller hands out next, and compare them with `$SELF`, × every
/// requester class, each deployed three times: no module is installed
/// with a verdict more permissive than `check_module` of the request
/// bound to the address it landed at. A configuration that does not name
/// `$SELF` has one verdict for every address, so for it the bound holds
/// at each of the three pool addresses. That is what lets a memo hit
/// replay the verdict wherever the copy lands.
#[test]
fn admission_is_never_more_permissive_than_the_check_where_the_module_lands() {
    const SEED: u64 = 0x5e1f_2015;
    println!("seed {SEED:#x}");
    let pool = [10, 11, 12].map(|host| Ipv4Addr::new(203, 0, 113, host));
    let registry = Registry::standard();
    let check_at = |cfg: &ClickConfig, class, addr: Ipv4Addr| {
        let bound = rebind_assigned(cfg, &addr.to_string());
        let at = SecurityContext {
            assigned_addr: addr,
            ..ctx(class)
        };
        let verdict = check_module(&bound, &at, &registry).ok()?.verdict;
        Some((verdict, bound))
    };
    let mut rng = StdRng::seed_from_u64(SEED);
    let (mut stricter, mut met) = (0u32, 0u32);
    for case in 0..1000 {
        let cfg = random_chain(&mut rng, &[POOL, POOL_LITERALS]);
        let template = rebind_assigned(&cfg, "$SELF");
        let names_self = template != cfg;
        for class in [
            RequesterClass::ThirdParty,
            RequesterClass::Client,
            RequesterClass::Operator,
        ] {
            let mut c = Controller::new(Topology::figure3());
            let who = format!("{class:?}");
            c.register_client(&who, class, vec![REGISTERED.parse().unwrap()]);
            for attempt in 0..3 {
                let tag = format!("seed {SEED:#x} case {case} ({class:?}) attempt {attempt}");
                let (admitted, landed) =
                    match c.deploy(&who, ClientRequest::click("m", template.clone())) {
                        Ok(resp) if resp.sandboxed => {
                            (Verdict::SafeWithSandbox, Some(resp.public_addr))
                        }
                        Ok(resp) => (Verdict::Safe, Some(resp.public_addr)),
                        Err(
                            DeployError::SecurityReject(_)
                            | DeployError::Lint(_)
                            | DeployError::BadConfig(_),
                        ) => (Verdict::Reject, None),
                        Err(e) => panic!("{tag}: {e}"),
                    };
                let mut at: Vec<Ipv4Addr> = landed.into_iter().collect();
                if !names_self {
                    at.extend(pool);
                }
                for addr in at {
                    let Some((verdict, bound)) = check_at(&cfg, class, addr) else {
                        continue;
                    };
                    assert!(
                        permissiveness(admitted) <= permissiveness(verdict),
                        "{tag}: admission said {admitted:?}, the check at {addr} \
                         {verdict:?}\noffending config:\n{}",
                        bound.canonical_text()
                    );
                    stricter += u32::from(permissiveness(admitted) < permissiveness(verdict));
                }
            }
            // A chain the check at the sentinel alone would let in where
            // some pool address stops it: `$SELF` meets a literal there.
            if let Some((at_sentinel, _)) = check_at(&cfg, class, SELF_SENTINEL) {
                met += u32::from(pool.iter().any(|&addr| {
                    check_at(&cfg, class, addr).is_some_and(|(verdict, _)| {
                        permissiveness(verdict) < permissiveness(at_sentinel)
                    })
                }));
            }
        }
    }
    // The literals must actually produce the cases the property is
    // about: a chain some pool address passes and admission does not, and
    // one that only the check where it lands can stop.
    assert!(stricter > 0, "seed {SEED:#x}: no literal ever matched");
    assert!(met > 0, "seed {SEED:#x}: `$SELF` never met a literal");
}

/// A spoofing config is rejected with a security report, not a lint
/// error (it is structurally fine).
#[test]
fn spoofing_is_rejected_with_a_security_report() {
    let mut c = controller();
    let req =
        ClientRequest::parse("module evil:\nFromNetfront() -> SetIPSrc(8.8.8.8) -> ToNetfront();")
            .unwrap();
    let err = c.deploy("cdn-corp", req).unwrap_err();
    assert!(matches!(err, DeployError::SecurityReject(_)), "{err}");
    assert_eq!(c.stats().lint_rejects, 0);
}

/// Hardening's UDP-reflection ban reads the symbolic egress flows: the
/// stock DNS server, admitted by default, is refused under it.
#[test]
fn udp_reflection_ban_rejects_the_stock_dns_server() {
    let mut c = controller();
    c.set_hardening(HardeningPolicy {
        ingress_filtering: true,
        ban_udp_reflection: true,
    });
    let req = ClientRequest::parse("stock dns: geo-dns").unwrap();
    assert!(matches!(
        c.deploy("cdn-corp", req),
        Err(DeployError::SecurityReject(_))
    ));
    assert!(c.stats().check_ns > 0);
}
