//! The Click static analyzer end to end: lint a configuration with a
//! seeded wiring mistake, print the structured diagnostics, then fix it
//! and print the field-effect summary table the abstract interpreter
//! derives for each egress flow. The lint pass is what the controller
//! uses to refuse malformed configurations with precise messages; the
//! table is advisory, for the configuration's author.
//!
//! Run with: `cargo run -p innet-examples --bin lint`

use innet::analysis::{flow_effects, lint};
use innet::prelude::*;

fn main() {
    let registry = Registry::standard();

    // A plausible first draft with two classic mistakes: a Tee branch
    // wired to nothing (packets vanish) and a leftover debug counter
    // nothing feeds.
    let mut draft = ClickConfig::new();
    draft.add_element("in", "FromNetfront", &[]);
    draft.add_element("mirror", "Tee", &["2"]);
    draft.add_element("nat", "IPRewriter", &["pattern - - 172.16.15.133 - 0 0"]);
    draft.add_element("out", "ToNetfront", &[]);
    draft.add_element("dbg", "Counter", &[]);
    draft.add_element("dbg_sink", "Discard", &[]);
    draft.connect("in", 0, "mirror", 0);
    draft.connect("mirror", 0, "nat", 0);
    draft.connect("nat", 0, "out", 0);
    draft.connect("dbg", 0, "dbg_sink", 0);

    println!("== lint: first draft ==");
    let report = lint(&draft, &registry);
    for d in &report.diagnostics {
        println!("  {d}");
    }
    println!(
        "  -> {} finding(s), errors: {}",
        report.diagnostics.len(),
        report.has_errors()
    );

    // The corrected configuration: mirror branch fed to a counter that
    // drains into a Discard, debug chain attached.
    let fixed = ClickConfig::parse(
        "in :: FromNetfront();
         mirror :: Tee(2);
         nat :: IPRewriter(pattern - - 172.16.15.133 - 0 0);
         out :: ToNetfront();
         dbg :: Counter();
         dbg_sink :: Discard();
         in -> mirror;
         mirror[0] -> nat -> out;
         mirror[1] -> dbg -> dbg_sink;",
    )
    .expect("fixed config parses");

    println!();
    println!("== lint: fixed ==");
    let report = lint(&fixed, &registry);
    println!(
        "  {} finding(s), errors: {}",
        report.diagnostics.len(),
        report.has_errors()
    );

    println!();
    println!("== field effects per abstract egress flow ==");
    let effects = flow_effects(&fixed, &registry).expect("chain is analyzable");
    for (i, fx) in effects.iter().enumerate() {
        println!(
            "  flow {i}{}:",
            if fx.filtered { " (filtered)" } else { "" }
        );
        for (field, value, written) in &fx.fields {
            // Only show fields the flow touched, plus the addresses the
            // security rules care about.
            if *written || *field == "ip_src" || *field == "ip_dst" {
                let mark = if *written { "*" } else { " " };
                println!("    {mark} {field:10} = {value}");
            }
        }
    }
}
