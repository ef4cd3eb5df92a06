//! `ChangeEnforcer` — the In-Net sandbox element (paper §4.4, §7.2).
//!
//! When static analysis cannot prove a processing module safe, the
//! controller wraps it with a `ChangeEnforcer` on every netfront path. The
//! enforcer behaves like a stateful firewall around the module: traffic from
//! the world to the module always passes (and implicitly authorizes the
//! source as a response destination, with an idle timeout); traffic from the
//! module to the world passes only when it is not spoofed and its
//! destination is authorized (white-listed or implicitly authorized).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use innet_packet::Packet;

use crate::{
    args::ConfigArgs,
    element::{Context, Element, ElementError, PortCount, Sink},
};

/// Default idle timeout for implicit authorizations (60 s, mirroring
/// typical stateful-firewall UDP timeouts).
pub const DEFAULT_AUTH_TIMEOUT_S: f64 = 60.0;

/// `ChangeEnforcer(MODULE_ADDR[, timeout SECS][, WHITELIST...])`.
///
/// Ports: input 0 = world → module (emitted on output 0); input 1 =
/// module → world (emitted on output 1 when conforming, dropped and counted
/// otherwise).
#[derive(Debug)]
pub struct ChangeEnforcer {
    module_addr: Ipv4Addr,
    whitelist: Vec<Ipv4Addr>,
    timeout_ns: u64,
    /// Implicitly authorized destinations -> last time they sent to us.
    authorized: HashMap<Ipv4Addr, u64>,
    passed_in: u64,
    passed_out: u64,
    blocked_spoof: u64,
    blocked_dst: u64,
}

impl ChangeEnforcer {
    /// Creates an enforcer for the module at `module_addr`.
    pub fn new(module_addr: Ipv4Addr, whitelist: Vec<Ipv4Addr>, timeout_ns: u64) -> Self {
        ChangeEnforcer {
            module_addr,
            whitelist,
            timeout_ns: timeout_ns.max(1),
            authorized: HashMap::new(),
            passed_in: 0,
            passed_out: 0,
            blocked_spoof: 0,
            blocked_dst: 0,
        }
    }

    /// Parses `ChangeEnforcer(...)`.
    pub fn from_args(args: &ConfigArgs) -> Result<ChangeEnforcer, ElementError> {
        let bad = |message: String| ElementError::BadArgs {
            class: "ChangeEnforcer",
            message,
        };
        if args.is_empty() {
            return Err(bad("needs the module address".to_string()));
        }
        let module_addr = args.addr_at(0)?;
        let mut whitelist = Vec::new();
        let mut timeout_s = DEFAULT_AUTH_TIMEOUT_S;
        for arg in args.all().skip(1) {
            if let Some(rest) = arg.strip_prefix("timeout") {
                timeout_s = rest
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("bad timeout '{arg}'")))?;
            } else {
                whitelist.push(
                    arg.parse()
                        .map_err(|_| bad(format!("bad white-list address '{arg}'")))?,
                );
            }
        }
        if timeout_s <= 0.0 {
            return Err(bad("timeout must be positive".to_string()));
        }
        Ok(ChangeEnforcer::new(
            module_addr,
            whitelist,
            (timeout_s * 1e9) as u64,
        ))
    }

    /// Counters: (inbound passed, outbound passed, blocked spoofed,
    /// blocked unauthorized destination).
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.passed_in,
            self.passed_out,
            self.blocked_spoof,
            self.blocked_dst,
        )
    }

    /// The configured module address and white-list.
    pub fn params(&self) -> (Ipv4Addr, &[Ipv4Addr]) {
        (self.module_addr, &self.whitelist)
    }

    fn authorized_dst(&self, dst: Ipv4Addr, now_ns: u64) -> bool {
        if self.whitelist.contains(&dst) {
            return true;
        }
        self.authorized
            .get(&dst)
            .is_some_and(|&last| now_ns.saturating_sub(last) <= self.timeout_ns)
    }
}

impl Element for ChangeEnforcer {
    fn ports(&self) -> PortCount {
        PortCount::new(2, 2)
    }

    fn push(&mut self, port: usize, pkt: Packet, ctx: &Context, out: &mut dyn Sink) {
        match port {
            0 => {
                // World -> module: record the implicit authorization.
                if let Ok(ip) = pkt.ipv4() {
                    self.authorized.insert(ip.src(), ctx.now_ns);
                }
                self.passed_in += 1;
                out.push(0, pkt);
            }
            _ => {
                // Module -> world: anti-spoof then default-off.
                let Ok(ip) = pkt.ipv4() else {
                    self.blocked_spoof += 1;
                    return;
                };
                if ip.src() != self.module_addr {
                    self.blocked_spoof += 1;
                    return;
                }
                if !self.authorized_dst(ip.dst(), ctx.now_ns) {
                    self.blocked_dst += 1;
                    return;
                }
                self.passed_out += 1;
                out.push(1, pkt);
            }
        }
    }

    fn tick(&mut self, ctx: &Context, _out: &mut dyn Sink) {
        let timeout = self.timeout_ns;
        let now = ctx.now_ns;
        self.authorized
            .retain(|_, &mut last| now.saturating_sub(last) <= timeout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::VecSink;
    use innet_packet::PacketBuilder;

    const MODULE: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 10);
    const CLIENT: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 7);
    const VICTIM: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 66);
    const LISTED: Ipv4Addr = Ipv4Addr::new(203, 0, 113, 5);

    fn enforcer() -> ChangeEnforcer {
        ChangeEnforcer::from_args(&ConfigArgs::parse(
            "ChangeEnforcer",
            "192.0.2.10, timeout 60, 203.0.113.5",
        ))
        .unwrap()
    }

    #[test]
    fn implicit_authorization_flow() {
        let mut e = enforcer();
        let mut s = VecSink::new();
        // Client sends to module -> implicit authorization recorded.
        e.push(
            0,
            PacketBuilder::udp().src(CLIENT, 1).dst(MODULE, 2).build(),
            &Context::at(0),
            &mut s,
        );
        assert_eq!(s.pushed.len(), 1);
        // Module replies to the client -> allowed.
        e.push(
            1,
            PacketBuilder::udp().src(MODULE, 2).dst(CLIENT, 1).build(),
            &Context::at(1_000),
            &mut s,
        );
        assert_eq!(s.pushed.len(), 2);
        assert_eq!(s.pushed[1].0, 1);
    }

    #[test]
    fn unauthorized_destination_blocked() {
        let mut e = enforcer();
        let mut s = VecSink::new();
        e.push(
            1,
            PacketBuilder::udp().src(MODULE, 2).dst(VICTIM, 1).build(),
            &Context::at(0),
            &mut s,
        );
        assert!(s.pushed.is_empty());
        assert_eq!(e.counters().3, 1);
    }

    #[test]
    fn whitelist_always_allowed() {
        let mut e = enforcer();
        let mut s = VecSink::new();
        e.push(
            1,
            PacketBuilder::udp().src(MODULE, 2).dst(LISTED, 1).build(),
            &Context::at(0),
            &mut s,
        );
        assert_eq!(s.pushed.len(), 1);
    }

    #[test]
    fn spoofed_source_blocked() {
        let mut e = enforcer();
        let mut s = VecSink::new();
        // Even to a white-listed destination, a spoofed source is blocked.
        e.push(
            1,
            PacketBuilder::udp().src(VICTIM, 2).dst(LISTED, 1).build(),
            &Context::at(0),
            &mut s,
        );
        assert!(s.pushed.is_empty());
        assert_eq!(e.counters().2, 1);
    }

    #[test]
    fn authorization_expires() {
        let mut e = enforcer(); // 60 s timeout.
        let mut s = VecSink::new();
        e.push(
            0,
            PacketBuilder::udp().src(CLIENT, 1).dst(MODULE, 2).build(),
            &Context::at(0),
            &mut s,
        );
        e.push(
            1,
            PacketBuilder::udp().src(MODULE, 2).dst(CLIENT, 1).build(),
            &Context::at(61_000_000_000),
            &mut s,
        );
        assert_eq!(s.pushed.len(), 1, "reply after timeout blocked");
    }

    #[test]
    fn tick_reaps() {
        let mut e = enforcer();
        let mut s = VecSink::new();
        e.push(
            0,
            PacketBuilder::udp().src(CLIENT, 1).dst(MODULE, 2).build(),
            &Context::at(0),
            &mut s,
        );
        assert_eq!(e.authorized.len(), 1);
        e.tick(&Context::at(120_000_000_000), &mut s);
        assert!(e.authorized.is_empty());
    }
}
