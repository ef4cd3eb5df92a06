//! `DPI` — deep packet inspection by payload signature matching.

use innet_packet::Packet;

use crate::{
    args::ConfigArgs,
    element::{Context, Element, ElementError, PortCount, Sink},
};

/// `DPI("SIG", "SIG", ...)` — scans the L4 payload for the configured byte
/// signatures. Clean packets leave on output 0; packets containing any
/// signature leave on output 1 (drop it by leaving output 1 unconnected).
///
/// Signatures are given as (optionally double-quoted) strings. Matching is
/// a naive substring scan — the cost model the paper's DPI middlebox
/// (Table 1) pays per packet.
#[derive(Debug)]
pub struct Dpi {
    signatures: Vec<Vec<u8>>,
    clean: u64,
    flagged: u64,
}

impl Dpi {
    /// Parses `DPI(...)`.
    pub fn from_args(args: &ConfigArgs) -> Result<Dpi, ElementError> {
        if args.is_empty() {
            return Err(ElementError::BadArgs {
                class: "DPI",
                message: "needs at least one signature".to_string(),
            });
        }
        let signatures = args
            .all()
            .map(|s| s.trim_matches('"').as_bytes().to_vec())
            .collect();
        Ok(Dpi {
            signatures,
            clean: 0,
            flagged: 0,
        })
    }

    /// Counters: (clean, flagged).
    pub fn counters(&self) -> (u64, u64) {
        (self.clean, self.flagged)
    }

    fn contains(haystack: &[u8], needle: &[u8]) -> bool {
        !needle.is_empty() && haystack.windows(needle.len()).any(|w| w == needle)
    }
}

impl Element for Dpi {
    fn ports(&self) -> PortCount {
        PortCount::new(1, 2)
    }

    fn push(&mut self, _port: usize, pkt: Packet, _ctx: &Context, out: &mut dyn Sink) {
        let payload = pkt.payload().unwrap_or(&[]);
        let hit = self
            .signatures
            .iter()
            .any(|sig| Dpi::contains(payload, sig));
        if hit {
            self.flagged += 1;
            out.push(1, pkt);
        } else {
            self.clean += 1;
            out.push(0, pkt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::VecSink;
    use innet_packet::PacketBuilder;

    #[test]
    fn flags_matching_payload() {
        let mut d = Dpi::from_args(&ConfigArgs::parse("DPI", "\"EVIL\", attack")).unwrap();
        let mut s = VecSink::new();
        d.push(
            0,
            PacketBuilder::udp().payload(b"hello EVIL world").build(),
            &Context::default(),
            &mut s,
        );
        d.push(
            0,
            PacketBuilder::udp().payload(b"an attack vector").build(),
            &Context::default(),
            &mut s,
        );
        d.push(
            0,
            PacketBuilder::udp().payload(b"benign").build(),
            &Context::default(),
            &mut s,
        );
        let ports: Vec<usize> = s.pushed.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![1, 1, 0]);
        assert_eq!(d.counters(), (1, 2));
    }

    #[test]
    fn empty_payload_is_clean() {
        let mut d = Dpi::from_args(&ConfigArgs::parse("DPI", "x")).unwrap();
        let mut s = VecSink::new();
        d.push(0, PacketBuilder::udp().build(), &Context::default(), &mut s);
        assert_eq!(s.pushed[0].0, 0);
    }

    #[test]
    fn needs_signature() {
        assert!(Dpi::from_args(&ConfigArgs::parse("DPI", "")).is_err());
    }
}
