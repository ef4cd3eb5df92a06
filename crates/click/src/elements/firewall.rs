//! `StatefulFirewall` — the paper's canonical stateful middlebox: allow
//! selected outbound traffic and only *related* inbound traffic.

use std::collections::HashMap;

use innet_packet::{pattern::PatternExpr, FlowKey, FlowTuple, Packet};

use crate::{
    args::ConfigArgs,
    element::{Context, Element, ElementError, PortCount, Sink},
};

/// Default idle timeout for connection-tracking entries (5 minutes, the
/// usual conntrack default).
pub const DEFAULT_TIMEOUT_S: f64 = 300.0;

/// `StatefulFirewall(allow EXPR, ..., [timeout SECS])`.
///
/// * Input 0 / output 0: inside → outside. Packets matching an allow rule
///   create or refresh a connection entry and pass; others are dropped.
/// * Input 1 / output 1: outside → inside. Packets pass only when they
///   belong to a live connection (the paper's Figure 2 `firewall_in`:
///   `if (p[firewall_tag]) return p; else NULL`).
///
/// Connection entries expire after the idle timeout — the mechanism the
/// paper leans on in §7 to bound implicit authorizations in time.
#[derive(Debug)]
pub struct StatefulFirewall {
    allow: Vec<PatternExpr>,
    timeout_ns: u64,
    conns: HashMap<FlowTuple, u64>,
    passed_out: u64,
    passed_in: u64,
    dropped: u64,
}

impl StatefulFirewall {
    /// Builds a firewall from parsed rules.
    pub fn new(allow: Vec<PatternExpr>, timeout_ns: u64) -> StatefulFirewall {
        StatefulFirewall {
            allow,
            timeout_ns: timeout_ns.max(1),
            conns: HashMap::new(),
            passed_out: 0,
            passed_in: 0,
            dropped: 0,
        }
    }

    /// Parses `StatefulFirewall(...)`.
    pub fn from_args(args: &ConfigArgs) -> Result<StatefulFirewall, ElementError> {
        let bad = |message: String| ElementError::BadArgs {
            class: "StatefulFirewall",
            message,
        };
        let mut allow = Vec::new();
        let mut timeout_s = DEFAULT_TIMEOUT_S;
        for arg in args.all() {
            if let Some(rest) = arg.strip_prefix("timeout") {
                timeout_s = rest
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("bad timeout '{arg}'")))?;
                continue;
            }
            let expr_s = arg.strip_prefix("allow").unwrap_or(arg).trim();
            allow.push(
                expr_s
                    .parse::<PatternExpr>()
                    .map_err(|e| bad(format!("bad rule '{arg}': {e}")))?,
            );
        }
        if allow.is_empty() {
            return Err(bad("needs at least one allow rule".to_string()));
        }
        if timeout_s <= 0.0 {
            return Err(bad("timeout must be positive".to_string()));
        }
        Ok(StatefulFirewall::new(allow, (timeout_s * 1e9) as u64))
    }

    /// Number of live connection-tracking entries (including expired ones
    /// not yet reaped).
    pub fn tracked(&self) -> usize {
        self.conns.len()
    }

    /// Counters: (outbound passed, inbound passed, dropped).
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.passed_out, self.passed_in, self.dropped)
    }

    /// The configured allow rules.
    pub fn allow_rules(&self) -> &[PatternExpr] {
        &self.allow
    }

    fn live(&self, key: &FlowTuple, now_ns: u64) -> bool {
        self.conns
            .get(key)
            .is_some_and(|&last| now_ns.saturating_sub(last) <= self.timeout_ns)
    }
}

impl Element for StatefulFirewall {
    fn ports(&self) -> PortCount {
        PortCount::new(2, 2)
    }

    fn push(&mut self, port: usize, pkt: Packet, ctx: &Context, out: &mut dyn Sink) {
        let Ok(key) = FlowKey::of(&pkt) else {
            self.dropped += 1;
            return;
        };
        let canon = key.canonical();
        match port {
            0 => {
                // Inside -> outside: must match an allow rule.
                if self.allow.iter().any(|r| r.matches(&pkt)) {
                    self.conns.insert(canon, ctx.now_ns);
                    self.passed_out += 1;
                    out.push(0, pkt);
                } else {
                    self.dropped += 1;
                }
            }
            _ => {
                // Outside -> inside: only related traffic.
                if self.live(&canon, ctx.now_ns) {
                    self.conns.insert(canon, ctx.now_ns);
                    self.passed_in += 1;
                    out.push(1, pkt);
                } else {
                    self.dropped += 1;
                }
            }
        }
    }

    fn tick(&mut self, ctx: &Context, _out: &mut dyn Sink) {
        let timeout = self.timeout_ns;
        let now = ctx.now_ns;
        self.conns
            .retain(|_, &mut last| now.saturating_sub(last) <= timeout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::VecSink;
    use innet_packet::PacketBuilder;
    use std::net::Ipv4Addr;

    fn fw() -> StatefulFirewall {
        StatefulFirewall::from_args(&ConfigArgs::parse(
            "StatefulFirewall",
            "allow udp, timeout 60",
        ))
        .unwrap()
    }

    fn out_pkt() -> Packet {
        PacketBuilder::udp()
            .src(Ipv4Addr::new(10, 0, 0, 5), 4000)
            .dst(Ipv4Addr::new(8, 8, 8, 8), 53)
            .build()
    }

    fn reply_pkt() -> Packet {
        PacketBuilder::udp()
            .src(Ipv4Addr::new(8, 8, 8, 8), 53)
            .dst(Ipv4Addr::new(10, 0, 0, 5), 4000)
            .build()
    }

    #[test]
    fn paper_figure1_scenario() {
        // Outbound UDP passes; the related reply comes back in; an
        // unrelated inbound packet is dropped.
        let mut f = fw();
        let mut s = VecSink::new();
        f.push(0, out_pkt(), &Context::at(0), &mut s);
        assert_eq!(s.pushed.len(), 1);
        assert_eq!(s.pushed[0].0, 0);

        f.push(1, reply_pkt(), &Context::at(1_000), &mut s);
        assert_eq!(s.pushed.len(), 2);
        assert_eq!(s.pushed[1].0, 1);

        let stranger = PacketBuilder::udp()
            .src(Ipv4Addr::new(6, 6, 6, 6), 1)
            .dst(Ipv4Addr::new(10, 0, 0, 5), 4000)
            .build();
        f.push(1, stranger, &Context::at(2_000), &mut s);
        assert_eq!(s.pushed.len(), 2, "unrelated inbound dropped");
        assert_eq!(f.counters(), (1, 1, 1));
    }

    #[test]
    fn non_matching_outbound_dropped() {
        let mut f = fw();
        let mut s = VecSink::new();
        let tcp = PacketBuilder::tcp().build();
        f.push(0, tcp, &Context::at(0), &mut s);
        assert!(s.pushed.is_empty());
    }

    #[test]
    fn idle_timeout_revokes_authorization() {
        let mut f = fw(); // 60 s timeout.
        let mut s = VecSink::new();
        f.push(0, out_pkt(), &Context::at(0), &mut s);
        // 61 virtual seconds later the reply no longer passes.
        f.push(1, reply_pkt(), &Context::at(61_000_000_000), &mut s);
        assert_eq!(s.pushed.len(), 1);
    }

    #[test]
    fn reply_refreshes_timer() {
        let mut f = fw();
        let mut s = VecSink::new();
        f.push(0, out_pkt(), &Context::at(0), &mut s);
        f.push(1, reply_pkt(), &Context::at(50_000_000_000), &mut s);
        // 50 s after the reply (100 s after the request) still passes.
        f.push(1, reply_pkt(), &Context::at(100_000_000_000), &mut s);
        assert_eq!(s.pushed.len(), 3);
    }

    #[test]
    fn tick_reaps_expired_entries() {
        let mut f = fw();
        let mut s = VecSink::new();
        f.push(0, out_pkt(), &Context::at(0), &mut s);
        assert_eq!(f.tracked(), 1);
        f.tick(&Context::at(120_000_000_000), &mut s);
        assert_eq!(f.tracked(), 0);
    }

    #[test]
    fn rules_without_allow_prefix_accepted() {
        let f = StatefulFirewall::from_args(&ConfigArgs::parse("StatefulFirewall", "udp"));
        assert!(f.is_ok());
    }

    #[test]
    fn bad_args_rejected() {
        assert!(StatefulFirewall::from_args(&ConfigArgs::parse("StatefulFirewall", "")).is_err());
        assert!(StatefulFirewall::from_args(&ConfigArgs::parse(
            "StatefulFirewall",
            "allow udp, timeout -3"
        ))
        .is_err());
    }
}
