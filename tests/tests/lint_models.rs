//! Lint reads the models the security check builds.
//!
//! Lint parses each element once, into the model memo's entry, and reads
//! its port facts off the model; the security check then builds its graph
//! from the same entries. These tests pin that the check parses nothing
//! lint has not, and compare the model-reading lint with the
//! summary-based one it replaced on generated wirings.

mod lint_oracle;

use innet::analysis::{lint_cached, SELF_SENTINEL};
use innet::click::{ClickConfig, Registry};
use innet::prelude::*;
use innet::symnet::{check_module_memoized, ModelCache, SecurityContext};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Entries in the model memo, read off `ModelCache`'s `Debug` form, which
/// shows each memo's epoch and length (models first, then graphs).
fn model_entries(models: &ModelCache) -> usize {
    let text = format!("{models:?}");
    let (memo, _) = text
        .split_once("graphs")
        .expect("ModelCache shows its graph memo");
    let len = memo.rsplit("len: ").next().expect("Memo shows its length");
    len.trim_end_matches(|c: char| !c.is_ascii_digit())
        .parse()
        .expect("a length")
}

/// A novel request with a netfront pair, a multi-rule `IPFilter` and an
/// `IPClassifier`, linted over a shared memo: the security check's graph
/// build finds every element there and adds no entry.
#[test]
fn the_security_check_parses_nothing_lint_has_not() {
    let registry = Registry::standard();
    let cfg = ClickConfig::parse(
        "in :: FromNetfront();
         f :: IPFilter(allow udp dst port 31337, allow tcp dst port 31338, deny all);
         c :: IPClassifier(udp, -);
         u :: ToNetfront(0); o :: ToNetfront(1);
         in -> f -> c; c[0] -> u; c[1] -> o;",
    )
    .unwrap();
    let models = ModelCache::default();
    let report = lint_cached(&cfg, &registry, &models);
    assert!(!report.has_errors(), "{report}");
    assert_eq!(model_entries(&models), 5, "one entry per distinct element");

    let ctx = SecurityContext {
        assigned_addr: SELF_SENTINEL,
        registered: vec!["172.16.15.133".parse().unwrap()],
        class: RequesterClass::Client,
    };
    check_module_memoized(&cfg, &ctx, &registry, &models).unwrap();
    assert_eq!(
        models.graphs_len(),
        1,
        "the check built and memoized its graph"
    );
    assert_eq!(model_entries(&models), 5, "the graph build added no model");
}

/// Middle elements for [`random_wiring`], with their input and output
/// counts: every port shape lint tells apart (sinks, fan-out, two-input
/// middleboxes, queues), rule lists with live and shadowed rules, and
/// arguments or classes that do not parse.
const POOL: &[(&str, &[&str], usize, usize)] = &[
    ("Counter", &[], 1, 1),
    ("Queue", &["8"], 1, 1),
    ("TimedUnqueue", &["120", "100"], 1, 1),
    ("Discard", &[], 1, 0),
    ("Idle", &[], 1, 1),
    ("Tee", &["2"], 1, 2),
    ("RoundRobinSwitch", &["3"], 1, 3),
    ("CheckPaint", &["1"], 1, 2),
    ("Paint", &["1"], 1, 1),
    ("DecIPTTL", &[], 1, 1),
    ("SetIPSrc", &["$SELF"], 1, 1),
    ("IPFilter", &["allow udp"], 1, 1),
    ("IPFilter", &["allow udp", "allow tcp", "deny all"], 1, 1),
    ("IPFilter", &["deny all", "allow udp"], 1, 1),
    ("IPFilter", &["allow udp", "allow udp dst port 53"], 1, 1),
    ("IPClassifier", &["udp", "tcp", "-"], 1, 3),
    ("IPClassifier", &["-", "udp"], 1, 2),
    ("IPClassifier", &["udp", "udp dst port 53", "-"], 1, 3),
    ("StaticIPLookup", &["10.0.0.0/8 0", "0.0.0.0/0 1"], 1, 2),
    ("StaticIPLookup", &["10.0.0.0/8 0", "10.0.0.0/8 1"], 1, 2),
    ("StatefulFirewall", &["allow udp"], 2, 2),
    ("IPNAT", &["203.0.113.1"], 2, 2),
    ("IPRewriter", &["pattern - - 172.16.15.133 - 0 0"], 1, 1),
    ("ChangeEnforcer", &["$SELF"], 2, 2),
    ("ICMPPingResponder", &[], 1, 1),
    ("UDPTunnelDecap", &[], 1, 1),
    ("StockX86VM", &[], 1, 1),
    ("StockDNSServer", &["$SELF"], 1, 1),
    ("ServerS", &[], 1, 1),
    ("IPFilter", &["allow bogus"], 1, 1),
    ("Tee", &["x"], 1, 1),
    ("SetIPSrc", &["240.0.0.7"], 1, 1),
    ("Frobnicator", &["3"], 1, 1),
];

/// A random wiring: one or two netfront entries and up to five [`POOL`]
/// elements. Each output is wired, mostly forward (to an exit of its own
/// past the last element) and now and then back (a cycle). Now and then
/// an output is left unwired or wired twice, a port is out of range, a
/// wire names an undeclared element or a name is declared twice. So every
/// structural rule fires on some wirings, and many wirings are clean.
fn random_wiring(rng: &mut StdRng) -> ClickConfig {
    let mut cfg = ClickConfig::new();
    let mut shapes: Vec<(String, usize, usize)> = Vec::new();
    let entries = rng.gen_range(1..3);
    for i in 0..entries {
        let iface = i.to_string();
        cfg.add_element(format!("in{i}"), "FromNetfront", &[iface.as_str()]);
        shapes.push((format!("in{i}"), 1, 1));
    }
    for i in 0..rng.gen_range(0..6) {
        let (class, args, inputs, outputs) = POOL[rng.gen_range(0..POOL.len())];
        let name = if i > 0 && rng.gen_range(0..40) == 0 {
            format!("e{}", i - 1)
        } else {
            format!("e{i}")
        };
        cfg.add_element(name.clone(), class, args);
        shapes.push((name, inputs, outputs));
    }
    // Forward wires feed the first element nothing feeds yet, so most
    // wirings reach every element.
    let mut fed: Vec<bool> = (0..shapes.len()).map(|i| i < entries).collect();
    let mut exits = 0;
    for (i, (from, _, outputs)) in shapes.iter().enumerate() {
        let rare = |rng: &mut StdRng, odds: u32| rng.gen_range(0..odds) == 0;
        for port in 0..*outputs + usize::from(rare(rng, 40)) {
            if rare(rng, 20) {
                continue;
            }
            for _ in 0..1 + usize::from(rare(rng, 40)) {
                let unfed = (i + 1..shapes.len()).find(|&t| !fed[t]);
                let (to, to_port) = match unfed {
                    _ if rare(rng, 6) => {
                        let t = rng.gen_range(0..shapes.len());
                        let (to, inputs, _) = &shapes[t];
                        (to.clone(), rng.gen_range(0..*inputs))
                    }
                    Some(t) => {
                        fed[t] = true;
                        let (to, inputs, _) = &shapes[t];
                        (to.clone(), rng.gen_range(0..*inputs))
                    }
                    None => {
                        let iface = exits.to_string();
                        cfg.add_element(format!("out{exits}"), "ToNetfront", &[iface.as_str()]);
                        exits += 1;
                        (format!("out{}", exits - 1), 0)
                    }
                };
                let to = if rare(rng, 60) {
                    "ghost".to_string()
                } else {
                    to
                };
                cfg.connect(from.clone(), port, to, to_port + usize::from(rare(rng, 40)));
            }
        }
    }
    cfg
}

/// On generated wirings the model-reading lint and the summary-based
/// oracle give the same rule ids, and admission refuses at lint exactly
/// when the oracle finds an error.
#[test]
fn lint_agrees_with_its_oracle_on_generated_wirings() {
    const SEEDS: [u64; 2] = [0x11e7_2015, 0x5e1f_0043];
    const CASES: usize = 1000;
    let registry = Registry::standard();
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut refused, mut warned, mut differed) = (0, 0, 0);
        for case in 0..CASES {
            let cfg = random_wiring(&mut rng);
            let (oracle, differs) = lint_oracle::assert_lint_agrees(&cfg, &registry);
            let mut c = Controller::new(Topology::figure3());
            c.register_client(
                "t",
                RequesterClass::Client,
                vec!["172.16.15.133".parse().unwrap()],
            );
            let outcome = c.deploy("t", ClientRequest::click("m", cfg));
            let linted = matches!(outcome, Err(DeployError::Lint(_)));
            assert_eq!(linted, oracle.has_errors(), "seed {seed:#x} case {case}");
            refused += usize::from(linted);
            warned += usize::from(!oracle.diagnostics.is_empty() && !linted);
            differed += usize::from(differs);
        }
        println!(
            "seed {seed:#x}: {CASES} wirings, {refused} refused at lint, {warned} warned only, \
             {differed} with rule ids that differ from the oracle's"
        );
        assert!(
            refused > 0 && refused < CASES,
            "seed {seed:#x}: {refused} refused"
        );
    }
}
