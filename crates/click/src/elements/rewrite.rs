//! `IPRewriter` — pattern-based header rewriting, Click style.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use innet_packet::{FlowKey, IpProto, Packet};

use crate::{
    args::ConfigArgs,
    element::{Context, Element, ElementError, PortCount, Sink},
};

/// One field of a rewrite pattern: keep (`-`) or overwrite with a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldSpec<T> {
    /// `-` — leave the field unchanged.
    Keep,
    /// Overwrite with this value.
    Set(T),
}

impl<T: Copy> FieldSpec<T> {
    /// Applies the spec to a current value.
    pub fn apply(self, cur: T) -> T {
        match self {
            FieldSpec::Keep => cur,
            FieldSpec::Set(v) => v,
        }
    }
}

/// The parsed `pattern SADDR SPORT DADDR DPORT FWD REV` specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewritePattern {
    /// New source address.
    pub saddr: FieldSpec<Ipv4Addr>,
    /// New source port.
    pub sport: FieldSpec<u16>,
    /// New destination address.
    pub daddr: FieldSpec<Ipv4Addr>,
    /// New destination port.
    pub dport: FieldSpec<u16>,
    /// Output port for forward-direction packets.
    pub fwd_out: usize,
    /// Output port for reverse-direction packets.
    pub rev_out: usize,
}

fn parse_field<T: std::str::FromStr>(s: &str, what: &str) -> Result<FieldSpec<T>, ElementError> {
    if s == "-" {
        Ok(FieldSpec::Keep)
    } else {
        s.parse::<T>()
            .map(FieldSpec::Set)
            .map_err(|_| ElementError::BadArgs {
                class: "IPRewriter",
                message: format!("bad {what} '{s}'"),
            })
    }
}

impl RewritePattern {
    /// Parses the whitespace-separated pattern specification.
    pub fn parse(spec: &str) -> Result<RewritePattern, ElementError> {
        let bad = |message: String| ElementError::BadArgs {
            class: "IPRewriter",
            message,
        };
        let toks: Vec<&str> = spec.split_whitespace().collect();
        match toks.as_slice() {
            ["pattern", saddr, sport, daddr, dport, fwd, rev] => Ok(RewritePattern {
                saddr: parse_field(saddr, "source address")?,
                sport: parse_field(sport, "source port")?,
                daddr: parse_field(daddr, "destination address")?,
                dport: parse_field(dport, "destination port")?,
                fwd_out: fwd
                    .parse()
                    .map_err(|_| bad(format!("bad forward port '{fwd}'")))?,
                rev_out: rev
                    .parse()
                    .map_err(|_| bad(format!("bad reverse port '{rev}'")))?,
            }),
            _ => Err(bad(format!(
                "expected 'pattern SADDR SPORT DADDR DPORT FWD REV', got '{spec}'"
            ))),
        }
    }
}

/// `IPRewriter(pattern SADDR SPORT DADDR DPORT FWD REV)`.
///
/// Forward packets (input 0) have the non-`-` fields overwritten and leave
/// on output `FWD`; the element remembers the mapping so reverse packets
/// (input 1) addressed to the rewritten endpoint are restored and leave on
/// output `REV`. This is exactly how the paper's Figure 4 module steers
/// notifications to the client's private address.
#[derive(Debug)]
pub struct IPRewriter {
    pattern: RewritePattern,
    /// rewritten-flow (as seen by the far side, reversed) -> original flow.
    reverse_map: HashMap<FlowKey, FlowKey>,
    rewritten: u64,
    restored: u64,
    dropped: u64,
}

impl IPRewriter {
    /// Parses `IPRewriter(...)`.
    pub fn from_args(args: &ConfigArgs) -> Result<IPRewriter, ElementError> {
        args.expect_len(1)?;
        Ok(IPRewriter {
            pattern: RewritePattern::parse(args.str_at(0)?)?,
            reverse_map: HashMap::new(),
            rewritten: 0,
            restored: 0,
            dropped: 0,
        })
    }

    /// Counters: (rewritten, restored, dropped).
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.rewritten, self.restored, self.dropped)
    }

    /// The configured rewrite pattern.
    pub fn pattern(&self) -> &RewritePattern {
        &self.pattern
    }

    fn apply(pkt: &mut Packet, key: FlowKey, new: FlowKey) {
        if let Ok(mut ip) = pkt.ipv4_mut() {
            ip.set_src(new.src);
            ip.set_dst(new.dst);
            ip.update_checksum();
        }
        match key.proto {
            IpProto::Udp => {
                if let Ok(mut u) = pkt.udp_mut() {
                    u.set_src_port(new.src_port);
                    u.set_dst_port(new.dst_port);
                }
            }
            IpProto::Tcp => {
                if let Ok(mut t) = pkt.tcp_mut() {
                    t.set_src_port(new.src_port);
                    t.set_dst_port(new.dst_port);
                }
            }
            _ => {}
        }
    }
}

impl Element for IPRewriter {
    fn ports(&self) -> PortCount {
        let outs = self.pattern.fwd_out.max(self.pattern.rev_out) + 1;
        PortCount::new(2, outs)
    }

    fn push(&mut self, port: usize, mut pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        let Ok(key) = FlowKey::of(&pkt) else {
            self.dropped += 1;
            return;
        };
        match port {
            0 => {
                let new = FlowKey {
                    src: self.pattern.saddr.apply(key.src),
                    src_port: self.pattern.sport.apply(key.src_port),
                    dst: self.pattern.daddr.apply(key.dst),
                    dst_port: self.pattern.dport.apply(key.dst_port),
                    proto: key.proto,
                };
                // Remember how to undo this for replies: a reply to `new`
                // arrives with the reversed 5-tuple.
                self.reverse_map.insert(new.reversed(), key.reversed());
                IPRewriter::apply(&mut pkt, key, new);
                self.rewritten += 1;
                out.push(self.pattern.fwd_out, pkt);
            }
            _ => match self.reverse_map.get(&key).copied() {
                Some(orig) => {
                    IPRewriter::apply(&mut pkt, key, orig);
                    self.restored += 1;
                    out.push(self.pattern.rev_out, pkt);
                }
                None => self.dropped += 1,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::VecSink;
    use innet_packet::PacketBuilder;

    const CLIENT: Ipv4Addr = Ipv4Addr::new(172, 16, 15, 133);
    const REMOTE: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);
    const MODULE: Ipv4Addr = Ipv4Addr::new(5, 5, 5, 5);

    fn rewriter() -> IPRewriter {
        IPRewriter::from_args(&ConfigArgs::parse(
            "IPRewriter",
            "pattern - - 172.16.15.133 - 0 0",
        ))
        .unwrap()
    }

    #[test]
    fn figure4_dst_rewrite() {
        let mut rw = rewriter();
        let mut s = VecSink::new();
        let pkt = PacketBuilder::udp()
            .src(REMOTE, 999)
            .dst(MODULE, 1500)
            .build();
        rw.push(0, pkt, &Context::default(), &mut s);
        let out = s.only(0).unwrap();
        let ip = out.ipv4().unwrap();
        assert_eq!(ip.dst(), CLIENT);
        assert_eq!(ip.src(), REMOTE, "source untouched (the '-' fields)");
        assert_eq!(out.udp().unwrap().dst_port(), 1500);
        assert!(ip.verify_checksum());
    }

    #[test]
    fn reverse_direction_restored() {
        let mut rw = rewriter();
        let mut s = VecSink::new();
        rw.push(
            0,
            PacketBuilder::udp()
                .src(REMOTE, 999)
                .dst(MODULE, 1500)
                .build(),
            &Context::default(),
            &mut s,
        );
        // The client answers: src=CLIENT:1500 dst=REMOTE:999.
        let reply = PacketBuilder::udp()
            .src(CLIENT, 1500)
            .dst(REMOTE, 999)
            .build();
        rw.push(1, reply, &Context::default(), &mut s);
        assert_eq!(s.pushed.len(), 2);
        let restored = &s.pushed[1].1;
        // The reply must look like it came from the module address.
        assert_eq!(restored.ipv4().unwrap().src(), MODULE);
        assert_eq!(restored.ipv4().unwrap().dst(), REMOTE);
    }

    #[test]
    fn unknown_reverse_dropped() {
        let mut rw = rewriter();
        let mut s = VecSink::new();
        rw.push(
            1,
            PacketBuilder::udp().src(CLIENT, 1).dst(REMOTE, 2).build(),
            &Context::default(),
            &mut s,
        );
        assert!(s.pushed.is_empty());
        assert_eq!(rw.counters().2, 1);
    }

    #[test]
    fn full_rewrite_pattern() {
        let rw = IPRewriter::from_args(&ConfigArgs::parse(
            "IPRewriter",
            "pattern 1.1.1.1 1000 2.2.2.2 2000 0 1",
        ))
        .unwrap();
        assert_eq!(rw.ports().outputs, 2);
    }

    #[test]
    fn bad_patterns_rejected() {
        for bad in [
            "pattern - - - -",
            "pattern x - - - 0 0",
            "rewrite - - - - 0 0",
            "pattern - - - - a 0",
        ] {
            assert!(
                IPRewriter::from_args(&ConfigArgs::parse("IPRewriter", bad)).is_err(),
                "{bad} should fail"
            );
        }
    }
}
