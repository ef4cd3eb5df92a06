//! Canonical serialization and stable hashing of configurations.
//!
//! The controller caches verification verdicts keyed by the *meaning* of a
//! tenant configuration rather than its spelling: two requests whose
//! configurations differ only in declaration order, connection order, or
//! argument whitespace must produce the same cache key. [`ClickConfig::canonical_text`]
//! computes a normal form with those degrees of freedom removed, and
//! [`ClickConfig::canonical_hash`] digests it with 64-bit FNV-1a — a hash
//! that, unlike `std`'s seeded `DefaultHasher`, is identical across
//! processes and runs.

use std::fmt::Write as _;

use crate::config::ClickConfig;

/// 64-bit FNV-1a over a byte string: stable across processes and
/// platforms, cheap, and good enough dispersion for cache digests. Do not
/// use it alone as a map key for security-relevant caches — it is not
/// collision-resistant against adversarial inputs; key the map by the full
/// canonical form and treat this as a fingerprint.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Collapses every whitespace run to a single space and trims the ends, so
/// `allow udp   dst port 1500` and `allow udp dst port 1500` normalize to
/// the same argument.
fn normalize_arg(arg: &str) -> String {
    let mut out = String::with_capacity(arg.len());
    for word in arg.split_whitespace() {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(word);
    }
    out
}

impl ClickConfig {
    /// Serializes to a canonical normal form: element declarations sorted
    /// by `(name, class, args)` with whitespace-normalized arguments,
    /// followed by connections sorted by `(from, from_port, to, to_port)`.
    ///
    /// Two configurations describing the same element graph under
    /// different statement orderings or argument spacing yield identical
    /// canonical text; the text parses back to an equivalent
    /// configuration. Element *names* are preserved (they are part of the
    /// graph's identity — requirements reference them as way-points), so
    /// alpha-renamed configurations canonicalize differently by design.
    ///
    /// The rendered text is memoized per config instance (every
    /// admission-path memo — verdict, lint, graph — keys on it), so
    /// repeated calls return a clone of the first rendering.
    pub fn canonical_text(&self) -> String {
        self.canonical
            .get_or_init(|| self.render_canonical())
            .clone()
    }

    fn render_canonical(&self) -> String {
        let mut elements: Vec<(&str, &str, Vec<String>)> = self
            .elements
            .iter()
            .map(|e| {
                (
                    e.name.as_str(),
                    e.class.as_str(),
                    e.args.iter().map(|a| normalize_arg(a)).collect(),
                )
            })
            .collect();
        elements.sort();
        let mut connections: Vec<(&str, usize, &str, usize)> = self
            .connections
            .iter()
            .map(|c| {
                (
                    c.from.element.as_str(),
                    c.from.port,
                    c.to.element.as_str(),
                    c.to.port,
                )
            })
            .collect();
        connections.sort();

        let mut s = String::new();
        for (name, class, args) in &elements {
            let _ = writeln!(s, "{} :: {}({});", name, class, args.join(", "));
        }
        for (from, from_port, to, to_port) in &connections {
            let _ = writeln!(s, "{from}[{from_port}] -> [{to_port}]{to};");
        }
        s
    }

    /// Stable 64-bit fingerprint of [`canonical_text`](Self::canonical_text).
    pub fn canonical_hash(&self) -> u64 {
        fnv1a_64(self.canonical_text().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_order_is_irrelevant() {
        let a = ClickConfig::parse(
            "src :: FromNetfront(); f :: IPFilter(allow udp); snk :: ToNetfront(); \
             src -> f -> snk;",
        )
        .unwrap();
        let b = ClickConfig::parse(
            "snk :: ToNetfront(); f :: IPFilter(allow udp); src :: FromNetfront(); \
             src -> f -> snk;",
        )
        .unwrap();
        assert_eq!(a.canonical_text(), b.canonical_text());
        assert_eq!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn connection_order_is_irrelevant() {
        let a = ClickConfig::parse(
            "c :: Classifier(12/0800, -); d1 :: Discard; d2 :: Discard; \
             c[0] -> d1; c[1] -> d2;",
        )
        .unwrap();
        let b = ClickConfig::parse(
            "c :: Classifier(12/0800, -); d1 :: Discard; d2 :: Discard; \
             c[1] -> d2; c[0] -> d1;",
        )
        .unwrap();
        assert_eq!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn argument_whitespace_normalized() {
        let a = ClickConfig::parse("f :: IPFilter(allow   udp\n dst port 1500);").unwrap();
        let b = ClickConfig::parse("f :: IPFilter(allow udp dst port 1500);").unwrap();
        assert_eq!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn different_configs_differ() {
        let a = ClickConfig::parse("f :: IPFilter(allow udp);").unwrap();
        let b = ClickConfig::parse("f :: IPFilter(allow tcp);").unwrap();
        let c = ClickConfig::parse("g :: IPFilter(allow udp);").unwrap();
        assert_ne!(a.canonical_hash(), b.canonical_hash());
        assert_ne!(a.canonical_hash(), c.canonical_hash(), "names are identity");
    }

    #[test]
    fn canonical_text_reparses_equivalent() {
        let cfg = ClickConfig::parse(
            "FromNetfront() -> IPFilter(allow udp dst port 1500) \
             -> IPRewriter(pattern - - 172.16.15.133 - 0 0) -> dst :: ToNetfront();",
        )
        .unwrap();
        let again = ClickConfig::parse(&cfg.canonical_text()).unwrap();
        assert_eq!(again.canonical_text(), cfg.canonical_text());
        assert_eq!(again.elements.len(), cfg.elements.len());
        assert_eq!(again.connections.len(), cfg.connections.len());
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }
}
