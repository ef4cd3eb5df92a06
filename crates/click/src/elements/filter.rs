//! `IPFilter` — ordered allow/deny rules.

use innet_packet::{pattern::PatternExpr, Packet};

use crate::{
    args::ConfigArgs,
    element::{Context, Element, ElementError, PortCount, Sink},
};

/// The action of an [`IPFilter`] rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterAction {
    /// Pass the packet on output 0.
    Allow,
    /// Drop the packet.
    Deny,
}

/// `IPFilter(allow EXPR, deny EXPR, ...)` — evaluates rules in order and
/// applies the first matching action; the implicit final rule is `deny all`.
///
/// This is the element the paper's Figure 4 client uses
/// (`IPFilter(allow udp port 1500)`), and the per-tenant "personalized
/// firewall" of the scalability experiments.
#[derive(Debug)]
pub struct IPFilter {
    rules: Vec<(FilterAction, PatternExpr)>,
    passed: u64,
    dropped: u64,
}

impl IPFilter {
    /// Builds a filter from parsed rules.
    pub fn new(rules: Vec<(FilterAction, PatternExpr)>) -> IPFilter {
        IPFilter {
            rules,
            passed: 0,
            dropped: 0,
        }
    }

    /// Parses `IPFilter(...)`. Each argument is `allow <expr>`,
    /// `deny <expr>`, or `drop <expr>` (an alias for deny).
    pub fn from_args(args: &ConfigArgs) -> Result<IPFilter, ElementError> {
        let bad = |message: String| ElementError::BadArgs {
            class: "IPFilter",
            message,
        };
        let mut rules = Vec::new();
        for rule in args.all() {
            let mut parts = rule.splitn(2, char::is_whitespace);
            let action = match parts.next() {
                Some("allow") => FilterAction::Allow,
                Some("deny") | Some("drop") => FilterAction::Deny,
                other => {
                    return Err(bad(format!(
                        "rule must start with allow/deny/drop, got {other:?}"
                    )))
                }
            };
            let expr_s = parts.next().unwrap_or("");
            let expr: PatternExpr = expr_s
                .parse()
                .map_err(|e| bad(format!("bad expression '{expr_s}': {e}")))?;
            rules.push((action, expr));
        }
        if rules.is_empty() {
            return Err(bad("needs at least one rule".to_string()));
        }
        Ok(IPFilter::new(rules))
    }

    /// The parsed rules, in match order.
    pub fn rules(&self) -> &[(FilterAction, PatternExpr)] {
        &self.rules
    }

    /// Packets passed so far.
    pub fn passed(&self) -> u64 {
        self.passed
    }

    /// Packets dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Element for IPFilter {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        let view = innet_packet::pattern::PacketView::of(&pkt);
        for (action, expr) in &self.rules {
            if expr.matches_view(&view) {
                match action {
                    FilterAction::Allow => {
                        self.passed += 1;
                        out.push(0, pkt);
                    }
                    FilterAction::Deny => self.dropped += 1,
                }
                return;
            }
        }
        // Implicit final deny.
        self.dropped += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::VecSink;
    use innet_packet::PacketBuilder;
    use std::net::Ipv4Addr;

    fn udp(dport: u16) -> Packet {
        PacketBuilder::udp()
            .dst(Ipv4Addr::new(9, 9, 9, 9), dport)
            .build()
    }

    #[test]
    fn paper_rule_allows_port_1500() {
        let args = ConfigArgs::parse("IPFilter", "allow udp port 1500");
        let mut f = IPFilter::from_args(&args).unwrap();
        let mut s = VecSink::new();
        f.push(0, udp(1500), &Context::default(), &mut s);
        f.push(0, udp(80), &Context::default(), &mut s);
        assert_eq!(s.pushed.len(), 1);
        assert_eq!(f.passed(), 1);
        assert_eq!(f.dropped(), 1);
    }

    #[test]
    fn first_match_wins() {
        let args = ConfigArgs::parse("IPFilter", "deny udp dst port 53, allow udp");
        let mut f = IPFilter::from_args(&args).unwrap();
        let mut s = VecSink::new();
        f.push(0, udp(53), &Context::default(), &mut s);
        f.push(0, udp(54), &Context::default(), &mut s);
        assert_eq!(s.pushed.len(), 1);
        assert_eq!(s.pushed[0].1.udp().unwrap().dst_port(), 54);
    }

    #[test]
    fn implicit_deny_all() {
        let args = ConfigArgs::parse("IPFilter", "allow tcp");
        let mut f = IPFilter::from_args(&args).unwrap();
        let mut s = VecSink::new();
        f.push(0, udp(1), &Context::default(), &mut s);
        assert!(s.pushed.is_empty());
        assert_eq!(f.dropped(), 1);
    }

    #[test]
    fn bad_rules_rejected() {
        assert!(IPFilter::from_args(&ConfigArgs::parse("IPFilter", "permit udp")).is_err());
        assert!(IPFilter::from_args(&ConfigArgs::parse("IPFilter", "")).is_err());
        assert!(IPFilter::from_args(&ConfigArgs::parse("IPFilter", "allow wibble")).is_err());
    }
}
