//! Packet classification: raw byte patterns (`Classifier`) and the
//! tcpdump-style `IPClassifier`.

use innet_packet::{pattern::PatternExpr, Packet};

use crate::{
    args::ConfigArgs,
    element::{Context, Element, ElementError, PortCount, Sink},
};

/// One `Classifier` pattern: byte comparisons at fixed offsets, or a
/// catch-all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BytePattern {
    /// `offset/value[%mask]` comparisons that must all hold.
    Match(Vec<ByteCheck>),
    /// `-` — matches everything.
    CatchAll,
}

/// A single masked byte-string comparison at an offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteCheck {
    /// Byte offset from the start of the frame.
    pub offset: usize,
    /// Expected value bytes.
    pub value: Vec<u8>,
    /// Mask applied to both packet and value bytes (same length as value).
    pub mask: Vec<u8>,
}

impl ByteCheck {
    /// Whether the masked comparison holds against `pkt`'s bytes.
    ///
    /// `offset` and `value` are tenant-controlled, so the bounds check
    /// must not compute `offset + value.len()` — at `offset = usize::MAX`
    /// that sum overflows (a panic in debug builds, a wrapped-and-small
    /// bound that indexes out of range in release builds). Comparing
    /// against the bytes *remaining past* the offset cannot overflow.
    pub fn matches(&self, pkt: &Packet) -> bool {
        let data = pkt.bytes();
        if data.len().saturating_sub(self.offset) < self.value.len() {
            return false;
        }
        data[self.offset..]
            .iter()
            .zip(self.value.iter().zip(self.mask.iter()))
            .all(|(d, (v, m))| d & m == v & m)
    }
}

fn parse_hex_nibbles(s: &str) -> Option<Vec<u8>> {
    if s.is_empty() || !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

impl BytePattern {
    /// Parses one pattern: space-separated `offset/hex[%hexmask]` terms or
    /// `-`.
    pub fn parse(s: &str) -> Result<BytePattern, String> {
        let s = s.trim();
        if s == "-" {
            return Ok(BytePattern::CatchAll);
        }
        let mut checks = Vec::new();
        for term in s.split_whitespace() {
            let (off_s, rest) = term
                .split_once('/')
                .ok_or_else(|| format!("bad classifier term '{term}'"))?;
            let offset: usize = off_s
                .parse()
                .map_err(|_| format!("bad offset in '{term}'"))?;
            let (val_s, mask_s) = match rest.split_once('%') {
                Some((v, m)) => (v, Some(m)),
                None => (rest, None),
            };
            let value = parse_hex_nibbles(val_s).ok_or_else(|| format!("bad hex in '{term}'"))?;
            let mask = match mask_s {
                Some(m) => {
                    let mask =
                        parse_hex_nibbles(m).ok_or_else(|| format!("bad mask in '{term}'"))?;
                    if mask.len() != value.len() {
                        return Err(format!("mask/value length mismatch in '{term}'"));
                    }
                    mask
                }
                None => vec![0xff; value.len()],
            };
            checks.push(ByteCheck {
                offset,
                value,
                mask,
            });
        }
        if checks.is_empty() {
            return Err("empty classifier pattern".to_string());
        }
        Ok(BytePattern::Match(checks))
    }

    /// Whether the whole pattern matches `pkt`.
    pub fn matches(&self, pkt: &Packet) -> bool {
        match self {
            BytePattern::CatchAll => true,
            BytePattern::Match(checks) => checks.iter().all(|c| c.matches(pkt)),
        }
    }
}

/// `Classifier(PATTERN, PATTERN, ...)` — sends each packet to the output of
/// the first matching raw byte pattern; unmatched packets are dropped.
#[derive(Debug)]
pub struct Classifier {
    patterns: Vec<BytePattern>,
    dropped: u64,
}

impl Classifier {
    /// Parses `Classifier(...)`.
    pub fn from_args(args: &ConfigArgs) -> Result<Classifier, ElementError> {
        if args.is_empty() {
            return Err(ElementError::BadArgs {
                class: "Classifier",
                message: "needs at least one pattern".to_string(),
            });
        }
        let patterns = args
            .all()
            .map(BytePattern::parse)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|m| ElementError::BadArgs {
                class: "Classifier",
                message: m,
            })?;
        Ok(Classifier {
            patterns,
            dropped: 0,
        })
    }

    /// The parsed patterns, in match order (the plan compiler lowers
    /// these into a [`crate::compile::CompiledRouter`] byte program).
    pub fn patterns(&self) -> &[BytePattern] {
        &self.patterns
    }

    /// Packets that matched no pattern.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Element for Classifier {
    fn ports(&self) -> PortCount {
        PortCount::new(1, self.patterns.len())
    }

    fn push(&mut self, _port: usize, pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        for (i, p) in self.patterns.iter().enumerate() {
            if p.matches(&pkt) {
                out.push(i, pkt);
                return;
            }
        }
        self.dropped += 1;
    }
}

/// `IPClassifier(EXPR, EXPR, ...)` — sends each packet to the output of the
/// first matching tcpdump-style expression; unmatched packets are dropped.
///
/// Rules are scanned linearly, as in Click. The platform's consolidation
/// layer uses an `IPClassifier` with one `dst host` rule per tenant as its
/// demultiplexer, which is exactly the setup measured in the paper's
/// Figure 8 — the linear scan is what eventually bends that curve.
#[derive(Debug)]
pub struct IPClassifier {
    rules: Vec<PatternExpr>,
    /// Per-rule compiled fast path (Click compiles classifier programs;
    /// the common `dst host A` demux rule becomes one integer compare).
    compiled: Vec<CompiledRule>,
    dropped: u64,
}

/// The compiled form of one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CompiledRule {
    /// `dst host A`: destination equals the value.
    DstHost(u32),
    /// Anything else: evaluate the expression tree.
    General,
}

fn compile_rule(rule: &PatternExpr) -> CompiledRule {
    use innet_packet::pattern::{Atom, Dir};
    if let PatternExpr::Atom(Atom::Net(Dir::Dst, net)) = rule {
        if net.prefix_len() == 32 {
            return CompiledRule::DstHost(net.first_u32());
        }
    }
    CompiledRule::General
}

impl IPClassifier {
    /// Builds a classifier from parsed rules.
    pub fn new(rules: Vec<PatternExpr>) -> IPClassifier {
        let compiled = rules.iter().map(compile_rule).collect();
        IPClassifier {
            rules,
            compiled,
            dropped: 0,
        }
    }

    /// Parses `IPClassifier(...)`.
    pub fn from_args(args: &ConfigArgs) -> Result<IPClassifier, ElementError> {
        if args.is_empty() {
            return Err(ElementError::BadArgs {
                class: "IPClassifier",
                message: "needs at least one rule".to_string(),
            });
        }
        Ok(IPClassifier::new(args.patterns()?))
    }

    /// The parsed rules, in match order.
    pub fn rules(&self) -> &[PatternExpr] {
        &self.rules
    }

    /// Packets that matched no rule.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Element for IPClassifier {
    fn ports(&self) -> PortCount {
        PortCount::new(1, self.rules.len())
    }

    fn push(&mut self, _port: usize, pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        // Parse the headers once, scan the compiled rules against the view.
        let view = innet_packet::pattern::PacketView::of(&pkt);
        let is_ip = view.proto.is_some();
        for (i, c) in self.compiled.iter().enumerate() {
            let hit = match c {
                CompiledRule::DstHost(a) => is_ip && view.dst == *a,
                CompiledRule::General => self.rules[i].matches_view(&view),
            };
            if hit {
                out.push(i, pkt);
                return;
            }
        }
        self.dropped += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::VecSink;
    use innet_packet::PacketBuilder;

    #[test]
    fn byte_pattern_ethertype() {
        // 12/0800 matches the IPv4 ethertype of built packets.
        let p = BytePattern::parse("12/0800").unwrap();
        assert!(p.matches(&PacketBuilder::udp().build()));
        let p6 = BytePattern::parse("12/86dd").unwrap();
        assert!(!p6.matches(&PacketBuilder::udp().build()));
    }

    #[test]
    fn byte_pattern_mask() {
        // Match only the low nibble of the protocol byte (offset 23).
        let p = BytePattern::parse("23/01%0f").unwrap();
        let udp = PacketBuilder::udp().build(); // proto 17 = 0x11 -> low nibble 1.
        assert!(p.matches(&udp));
    }

    #[test]
    fn classifier_first_match_wins() {
        let args = ConfigArgs::parse("Classifier", "12/0800, -");
        let mut c = Classifier::from_args(&args).unwrap();
        let mut s = VecSink::new();
        c.push(0, PacketBuilder::udp().build(), &Context::default(), &mut s);
        assert_eq!(s.pushed[0].0, 0, "IPv4 matched before the catch-all");
    }

    #[test]
    fn classifier_drops_unmatched() {
        let args = ConfigArgs::parse("Classifier", "12/86dd");
        let mut c = Classifier::from_args(&args).unwrap();
        let mut s = VecSink::new();
        c.push(0, PacketBuilder::udp().build(), &Context::default(), &mut s);
        assert!(s.pushed.is_empty());
        assert_eq!(c.dropped(), 1);
    }

    #[test]
    fn ip_classifier_routes_by_rule() {
        let args = ConfigArgs::parse("IPClassifier", "udp dst port 53, udp, -");
        let mut c = IPClassifier::from_args(&args).unwrap();
        let mut s = VecSink::new();
        let dns = PacketBuilder::udp()
            .dst(std::net::Ipv4Addr::new(1, 1, 1, 1), 53)
            .build();
        let other_udp = PacketBuilder::udp()
            .dst(std::net::Ipv4Addr::new(1, 1, 1, 1), 99)
            .build();
        let tcp = PacketBuilder::tcp().build();
        c.push(0, dns, &Context::default(), &mut s);
        c.push(0, other_udp, &Context::default(), &mut s);
        c.push(0, tcp, &Context::default(), &mut s);
        let ports: Vec<usize> = s.pushed.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![0, 1, 2]);
    }

    #[test]
    fn compiled_dst_host_agrees_with_general() {
        use std::net::Ipv4Addr;
        let args = ConfigArgs::parse(
            "IPClassifier",
            "dst host 10.0.0.7, dst net 10.0.0.0/8, udp, -",
        );
        let mut c = IPClassifier::from_args(&args).unwrap();
        let mut s = VecSink::new();
        let cases = [
            (
                PacketBuilder::udp()
                    .dst(Ipv4Addr::new(10, 0, 0, 7), 1)
                    .build(),
                0usize,
            ),
            (
                PacketBuilder::udp()
                    .dst(Ipv4Addr::new(10, 9, 9, 9), 1)
                    .build(),
                1,
            ),
            (
                PacketBuilder::udp()
                    .dst(Ipv4Addr::new(9, 9, 9, 9), 1)
                    .build(),
                2,
            ),
            (
                PacketBuilder::tcp()
                    .dst(Ipv4Addr::new(9, 9, 9, 9), 1)
                    .build(),
                3,
            ),
        ];
        for (pkt, want) in cases {
            s.pushed.clear();
            c.push(0, pkt, &Context::default(), &mut s);
            assert_eq!(s.pushed[0].0, want);
        }
    }

    #[test]
    fn bad_patterns_rejected() {
        assert!(BytePattern::parse("12-0800").is_err());
        assert!(BytePattern::parse("x/0800").is_err());
        assert!(BytePattern::parse("12/080").is_err());
        assert!(BytePattern::parse("12/0800%ff").is_err());
        assert!(Classifier::from_args(&ConfigArgs::parse("Classifier", "")).is_err());
        assert!(IPClassifier::from_args(&ConfigArgs::parse("IPClassifier", "")).is_err());
    }
}
