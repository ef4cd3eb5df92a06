//! The summary-based lint, kept as a test oracle for the one that reads
//! the models.
//!
//! Until lint read each element through the model memo it resolved every
//! element through `Registry::summary`, and re-built each multi-rule
//! `IPFilter`/`IPClassifier` for IN-L011. [`oracle_lint`] is that
//! implementation, unchanged but for its name and import paths, and
//! [`assert_lint_agrees`] checks the production lint against it: both must
//! give the same multiset of rule ids, up to the rows of [`DIFFERENCES`].

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use innet::analysis::{bind_self, lint, Diagnostic, LintReport, Severity, SELF_SENTINEL};
use innet::click::elements::{IPClassifier, IPFilter};
use innet::click::{
    class_info, ClickConfig, ElementSummary, Netfront, PortCount, Registry, SummaryKind,
};
use innet::symnet::{pattern, SymPacket};

/// IN-L012: every element whose arguments, as written, name an address
/// in 240.0.0.0/4, the block [`SELF_SENTINEL`] is drawn from. `$SELF` is
/// not an address, so it never trips the rule.
///
/// The whole block is refused, not just the sentinel: a filter that may
/// name prefixes could otherwise narrow a field to exactly the sentinel
/// without naming it, by excluding its neighbours. Any prefix that
/// separates the sentinel from its neighbour 240.0.0.0 is a /32 at one
/// of the two, and both lie in the block.
fn reserved_addresses(cfg: &ClickConfig) -> Vec<Diagnostic> {
    let reserved = |token: &str| {
        let addr = token.parse::<Ipv4Addr>().ok()?;
        (addr.octets()[0] >= 240).then_some(addr)
    };
    cfg.elements
        .iter()
        .filter_map(|e| {
            let tokens = e
                .args
                .iter()
                .flat_map(|a| a.split(|c: char| !c.is_ascii_digit() && c != '.'));
            let named = tokens.filter_map(reserved).next()?;
            Some(Diagnostic {
                rule: "IN-L012",
                severity: Severity::Error,
                element: Some(e.name.clone()),
                port: None,
                message: format!(
                    "`{}` names {named}, inside 240.0.0.0/4, which stands for `$SELF` \
                     while a request is checked: write `$SELF` for the module's own address",
                    e.class
                ),
            })
        })
        .collect()
}

/// Per-element facts resolved once and shared by several rules.
struct Resolved {
    /// Field-effect summary, if the class has one and the args parse.
    summary: Option<ElementSummary>,
    /// Port signature, if resolvable at all.
    ports: Option<PortCount>,
}

/// Runs every lint rule over `cfg`.
///
/// Works on arbitrary configurations, including ones
/// [`ClickConfig::validate`] would reject — lint is the friendlier
/// diagnostic layer in front of validation, so builder-constructed
/// configurations get precise findings too. `$SELF` may stand for the
/// module's own address; see the module docs.
pub fn oracle_lint(cfg: &ClickConfig, registry: &Registry) -> LintReport {
    let reserved = reserved_addresses(cfg);
    let bound = bind_self(cfg, SELF_SENTINEL);
    let cfg: &ClickConfig = &bound;
    let mut report = LintReport::default();
    let mut push = |rule: &'static str,
                    severity: Severity,
                    element: Option<&str>,
                    port: Option<usize>,
                    message: String| {
        report.diagnostics.push(Diagnostic {
            rule,
            severity,
            element: element.map(str::to_string),
            port,
            message,
        });
    };

    // IN-L001: duplicate names.
    let mut seen = HashSet::new();
    for e in &cfg.elements {
        if !seen.insert(e.name.as_str()) {
            push(
                "IN-L001",
                Severity::Error,
                Some(&e.name),
                None,
                format!("element name `{}` declared more than once", e.name),
            );
        }
    }

    // IN-L002/IN-L003: class and argument checks; resolve summaries.
    let mut resolved: Vec<Resolved> = Vec::with_capacity(cfg.elements.len());
    for e in &cfg.elements {
        let known = registry.knows(&e.class) || registry.has_summary(&e.class);
        if !known {
            push(
                "IN-L002",
                Severity::Error,
                Some(&e.name),
                None,
                format!("unknown element class `{}`", e.class),
            );
            resolved.push(Resolved {
                summary: None,
                ports: None,
            });
            continue;
        }
        // Prefer the summary (it shares argument validation with the
        // constructor and also covers the Stock* pseudo-classes).
        let outcome = if registry.has_summary(&e.class) {
            registry.summary(&e.class, &e.args).map(|s| {
                let ports = s.ports;
                Resolved {
                    summary: Some(s),
                    ports: Some(ports),
                }
            })
        } else {
            registry.instantiate(&e.class, &e.args).map(|el| Resolved {
                summary: None,
                ports: Some(el.ports()),
            })
        };
        match outcome {
            Ok(r) => resolved.push(r),
            Err(err) => {
                push(
                    "IN-L003",
                    Severity::Error,
                    Some(&e.name),
                    None,
                    format!("bad arguments for `{}`: {err}", e.class),
                );
                resolved.push(Resolved {
                    summary: None,
                    ports: None,
                });
            }
        }
    }

    let index: HashMap<&str, usize> = cfg
        .elements
        .iter()
        .enumerate()
        .map(|(i, e)| (e.name.as_str(), i))
        .collect();

    // IN-L004/IN-L005: port arity and dangling references.
    for c in &cfg.connections {
        for (pr, is_input) in [(&c.from, false), (&c.to, true)] {
            let Some(&idx) = index.get(pr.element.as_str()) else {
                push(
                    "IN-L005",
                    Severity::Error,
                    Some(&pr.element),
                    Some(pr.port),
                    format!("connection references undeclared element `{}`", pr.element),
                );
                continue;
            };
            let Some(ports) = resolved[idx].ports else {
                continue; // Already diagnosed via IN-L002/IN-L003.
            };
            let (limit, kind) = if is_input {
                (ports.inputs, "input")
            } else {
                (ports.outputs, "output")
            };
            if pr.port >= limit {
                push(
                    "IN-L004",
                    Severity::Error,
                    Some(&pr.element),
                    Some(pr.port),
                    format!(
                        "`{}` has {limit} {kind} port(s) but port {} is wired",
                        pr.element, pr.port
                    ),
                );
            }
        }
    }

    // IN-L006: output fanout.
    let mut out_uses: HashMap<(&str, usize), usize> = HashMap::new();
    for c in &cfg.connections {
        *out_uses
            .entry((c.from.element.as_str(), c.from.port))
            .or_default() += 1;
    }
    let mut fanouts: Vec<_> = out_uses.iter().filter(|(_, &n)| n > 1).collect();
    fanouts.sort();
    for (&(el, port), &n) in fanouts {
        push(
            "IN-L006",
            Severity::Error,
            Some(el),
            Some(port),
            format!("output `{el}`[{port}] is wired to {n} inputs (push fanout needs a Tee)"),
        );
    }

    // IN-L007: dead outputs. Sink-kind elements (Idle) are exempt — their
    // declared output never emits.
    for (i, e) in cfg.elements.iter().enumerate() {
        let Some(ports) = resolved[i].ports else {
            continue;
        };
        if matches!(
            resolved[i].summary.as_ref().map(|s| &s.kind),
            Some(SummaryKind::Sink)
        ) {
            continue;
        }
        for p in 0..ports.outputs {
            if !out_uses.contains_key(&(e.name.as_str(), p)) {
                push(
                    "IN-L007",
                    Severity::Error,
                    Some(&e.name),
                    Some(p),
                    format!(
                        "output `{}`[{p}] is wired to nothing: packets vanish",
                        e.name
                    ),
                );
            }
        }
    }

    // IN-L008: reachability from the ingress set (mirrors the verifier's
    // entry selection: every netfront entry, else the first element).
    if !cfg.elements.is_empty() {
        let mut entries: Vec<usize> = cfg
            .elements
            .iter()
            .enumerate()
            .filter(|(_, e)| is_entry(&e.class))
            .map(|(i, _)| i)
            .collect();
        if entries.is_empty() {
            entries.push(0);
        }
        let mut adj: HashMap<usize, Vec<usize>> = HashMap::new();
        for c in &cfg.connections {
            if let (Some(&f), Some(&t)) = (
                index.get(c.from.element.as_str()),
                index.get(c.to.element.as_str()),
            ) {
                adj.entry(f).or_default().push(t);
            }
        }
        let mut reached = HashSet::new();
        let mut stack = entries;
        while let Some(i) = stack.pop() {
            if reached.insert(i) {
                if let Some(next) = adj.get(&i) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        for (i, e) in cfg.elements.iter().enumerate() {
            if !reached.contains(&i) {
                push(
                    "IN-L008",
                    Severity::Error,
                    Some(&e.name),
                    None,
                    format!("element `{}` is unreachable from any ingress", e.name),
                );
            }
        }
    }

    // IN-L009: a combinational cycle with no queue-like element anywhere
    // on it. Equivalently: a cycle in the flow-pair graph restricted to
    // non-queue elements.
    let adj = flow_pair_adjacency(cfg, &resolved, &index, true);
    if let Some((e, _)) = find_cycle(&adj) {
        push(
            "IN-L009",
            Severity::Error,
            Some(&cfg.elements[e].name),
            None,
            format!(
                "element `{}` sits on a cycle with no queue element: packets loop forever",
                cfg.elements[e].name
            ),
        );
    }

    // IN-L010: wiring into a source element's input.
    for c in &cfg.connections {
        if let Some(&t) = index.get(c.to.element.as_str()) {
            if is_entry(&cfg.elements[t].class) {
                push(
                    "IN-L010",
                    Severity::Warning,
                    Some(&c.to.element),
                    Some(c.to.port),
                    format!(
                        "`{}` is a source; wiring `{}` into it mismatches push/pull",
                        c.to.element, c.from.element
                    ),
                );
            }
        }
    }

    // IN-L011: dead classifier/filter rules. `IPFilter` and
    // `IPClassifier` match first-hit, so a rule whose match set is fully
    // covered by the rules before it can never fire. Decided exactly
    // against the symbolic pattern semantics (RangeSet intersection
    // underneath): walk the rules in order, carrying the branch set of
    // packets *not* matched by any earlier rule; rule `i` is dead when no
    // carried branch can still satisfy it. The warning names the shortest
    // shadowing prefix. If refutation fragments the branch set past a
    // small cap, the element is skipped (conservative: no warning).
    const SHADOW_BRANCH_CAP: usize = 64;
    for e in &cfg.elements {
        // A single rule cannot be shadowed; skip before paying for
        // element instantiation or any symbolic work (lint runs on every
        // admission, and one-rule filters are the common case).
        if e.args.len() < 2 || !matches!(e.class.as_str(), "IPFilter" | "IPClassifier") {
            continue;
        }
        let rules: Vec<_> = match e.class.as_str() {
            "IPFilter" => {
                let Ok(el) = registry.instantiate(&e.class, &e.args) else {
                    continue; // Diagnosed via IN-L003.
                };
                let Some(f) = (&*el as &dyn Any).downcast_ref::<IPFilter>() else {
                    continue;
                };
                f.rules().iter().map(|(_, x)| x.clone()).collect()
            }
            "IPClassifier" => {
                let Ok(el) = registry.instantiate(&e.class, &e.args) else {
                    continue;
                };
                let Some(c) = (&*el as &dyn Any).downcast_ref::<IPClassifier>() else {
                    continue;
                };
                c.rules().to_vec()
            }
            _ => continue,
        };
        let mut remaining = vec![SymPacket::unconstrained()];
        for (ri, rule) in rules.iter().enumerate() {
            if remaining.iter().any(|p| pattern::satisfiable(p, rule)) {
                // Still matchable: remove its match set before looking at
                // the rules after it.
                let next: Vec<SymPacket> = remaining
                    .iter()
                    .flat_map(|p| pattern::refute(p, rule))
                    .collect();
                if next.len() > SHADOW_BRANCH_CAP {
                    break;
                }
                remaining = next;
                continue;
            }
            // Dead. Find the shortest prefix that already covers it by
            // replaying refutation from scratch.
            let mut probe = vec![SymPacket::unconstrained()];
            let mut shadow = ri.saturating_sub(1);
            for (rj, prev) in rules[..ri].iter().enumerate() {
                probe = probe
                    .iter()
                    .flat_map(|p| pattern::refute(p, prev))
                    .collect();
                if !probe.iter().any(|p| pattern::satisfiable(p, rule)) {
                    shadow = rj;
                    break;
                }
            }
            let text = e.args.get(ri).cloned().unwrap_or_else(|| format!("#{ri}"));
            push(
                "IN-L011",
                Severity::Warning,
                Some(&e.name),
                None,
                format!(
                    "`{}` rule {ri} (`{text}`) can never match: \
                     fully shadowed by rules 0..={shadow}",
                    e.class
                ),
            );
            // A dead rule matches nothing, so `remaining` is unchanged.
        }
    }

    report.diagnostics.extend(reserved);
    report
}

/// Whether `class` receives from outside the module (a netfront entry).
fn is_entry(class: &str) -> bool {
    class_info(class).and_then(|c| c.netfront) == Some(Netfront::Entry)
}

/// Adjacency of the flow-pair graph: node `(element, in_port)` has an
/// edge to `(target, target_in_port)` when some flow of the element
/// forwards from `in_port` to an output wired to the target.
///
/// With `skip_queue_like`, queue-like elements are removed entirely (used
/// by the queueless-cycle rule: a cycle in the remaining graph is a cycle
/// containing no queue).
fn flow_pair_adjacency(
    cfg: &ClickConfig,
    resolved: &[Resolved],
    index: &HashMap<&str, usize>,
    skip_queue_like: bool,
) -> HashMap<(usize, usize), Vec<(usize, usize)>> {
    let mut wires: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
    for c in &cfg.connections {
        if let (Some(&f), Some(&t)) = (
            index.get(c.from.element.as_str()),
            index.get(c.to.element.as_str()),
        ) {
            // On fanout (invalid, diagnosed separately) the last wire
            // wins; cycle detection stays conservative either way.
            wires.insert((f, c.from.port), (t, c.to.port));
        }
    }
    let skipped = |i: usize| {
        skip_queue_like && class_info(&cfg.elements[i].class).is_some_and(|c| c.queue_like)
    };
    let mut adj: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
    for (i, r) in resolved.iter().enumerate() {
        if skipped(i) {
            continue;
        }
        let pairs: Vec<(usize, usize)> = match &r.summary {
            Some(s) => match &s.kind {
                SummaryKind::Flows(flows) => {
                    flows.iter().map(|f| (f.in_port, f.out_port)).collect()
                }
                SummaryKind::Egress | SummaryKind::Sink => Vec::new(),
            },
            None => match r.ports {
                // No summary: conservatively assume every input can reach
                // every output.
                Some(p) => (0..p.inputs)
                    .flat_map(|ip| (0..p.outputs).map(move |op| (ip, op)))
                    .collect(),
                None => Vec::new(),
            },
        };
        for (ip, op) in pairs {
            if let Some(&(t, tin)) = wires.get(&(i, op)) {
                if !skipped(t) {
                    adj.entry((i, ip)).or_default().push((t, tin));
                }
            }
        }
    }
    adj
}

/// Finds any node on a directed cycle, or `None` if the graph is acyclic.
fn find_cycle(adj: &HashMap<(usize, usize), Vec<(usize, usize)>>) -> Option<(usize, usize)> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: HashMap<(usize, usize), Color> = HashMap::new();
    let mut roots: Vec<_> = adj.keys().copied().collect();
    roots.sort();
    for root in roots {
        if *color.get(&root).unwrap_or(&Color::White) != Color::White {
            continue;
        }
        // Iterative DFS with an explicit edge-cursor stack.
        let mut stack: Vec<((usize, usize), usize)> = vec![(root, 0)];
        color.insert(root, Color::Gray);
        while let Some(&(node, next)) = stack.last() {
            let succs = adj.get(&node).map(Vec::as_slice).unwrap_or(&[]);
            if next < succs.len() {
                stack.last_mut().expect("nonempty").1 += 1;
                let s = succs[next];
                match *color.get(&s).unwrap_or(&Color::White) {
                    Color::White => {
                        color.insert(s, Color::Gray);
                        stack.push((s, 0));
                    }
                    Color::Gray => return Some(s),
                    Color::Black => {}
                }
            } else {
                color.insert(node, Color::Black);
                stack.pop();
            }
        }
    }
    None
}

/// The ways the model-reading lint may differ from [`oracle_lint`]: the
/// class whose model answers differently from its summary, the rule whose
/// findings move, and why the model's answer is the right one. Empty: on
/// every corpus the two agree rule for rule. (A first-match element's
/// shadowed rules still name their outputs, so IN-L009 does not rest on
/// the pattern solver; see `ElementModel::reach`.)
pub const DIFFERENCES: &[(&str, &str, &str)] = &[];

/// Lints `cfg` with [`lint`] and with [`oracle_lint`] and asserts that
/// they give the same multiset of rule ids, up to a row of
/// [`DIFFERENCES`] whose class `cfg` declares. Returns the oracle's
/// report and whether the rule ids differed.
pub fn assert_lint_agrees(cfg: &ClickConfig, registry: &Registry) -> (LintReport, bool) {
    let (got, want) = (lint(cfg, registry), oracle_lint(cfg, registry));
    let ids = |r: &LintReport| {
        let mut ids: Vec<&'static str> = r.diagnostics.iter().map(|d| d.rule).collect();
        ids.sort_unstable();
        ids
    };
    let (got_ids, want_ids) = (ids(&got), ids(&want));
    let count = |ids: &[&str], rule: &str| ids.iter().filter(|r| **r == rule).count();
    for rule in got_ids.iter().chain(&want_ids) {
        if count(&got_ids, rule) == count(&want_ids, rule) {
            continue;
        }
        let row = DIFFERENCES
            .iter()
            .find(|&&(class, r, _)| r == *rule && cfg.elements.iter().any(|e| e.class == class));
        assert!(
            row.is_some(),
            "lint and its oracle disagree on {rule}, and no row explains it, in\n{}\n\
             lint:\n{got}\noracle:\n{want}",
            cfg.canonical_text()
        );
    }
    (want, got_ids != want_ids)
}
