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

use std::cmp::Ordering;
use std::fmt::Write as _;

use innet_packet::fnv1a_64;

use crate::config::ClickConfig;

/// The words of `arg`, in order: its normal form collapses every
/// whitespace run to a single space and trims the ends, so
/// `allow udp   dst port 1500` and `allow udp dst port 1500` normalize to
/// the same argument.
fn words(arg: &str) -> impl Iterator<Item = (bool, &str)> {
    arg.split_whitespace()
        .enumerate()
        .map(|(i, word)| (i > 0, word))
}

/// The bytes of `arg`'s normal form, without building it.
fn normal_bytes(arg: &str) -> impl Iterator<Item = u8> + '_ {
    words(arg).flat_map(|(spaced, word)| spaced.then_some(b' ').into_iter().chain(word.bytes()))
}

/// Orders argument lists as the lists of their normal forms order.
fn cmp_args(a: &[String], b: &[String]) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| normal_bytes(x).cmp(normal_bytes(y)))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a.len().cmp(&b.len()))
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
    /// repeated calls return a clone of the first rendering; a caller
    /// that only reads it borrows [`canonical_str`](Self::canonical_str).
    pub fn canonical_text(&self) -> String {
        self.canonical_str().to_owned()
    }

    /// The memoized [`canonical_text`](Self::canonical_text), borrowed.
    pub fn canonical_str(&self) -> &str {
        self.canonical.get_or_init(|| self.render_canonical())
    }

    /// Renders the normal form in one pass into one buffer: indices are
    /// sorted, not copies, and arguments are normalized as they are
    /// written.
    fn render_canonical(&self) -> String {
        let (els, cons) = (&self.elements, &self.connections);
        let args_len = |args: &[String]| args.iter().map(|a| a.len() + 2).sum::<usize>();
        let len = els
            .iter()
            .map(|e| e.name.len() + e.class.len() + args_len(&e.args) + 8)
            .chain(
                cons.iter()
                    .map(|c| c.from.element.len() + c.to.element.len() + 16),
            )
            .sum();
        let mut s = String::with_capacity(len);

        let mut order: Vec<usize> = (0..els.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            let (a, b) = (&els[a], &els[b]);
            a.name
                .cmp(&b.name)
                .then_with(|| a.class.cmp(&b.class))
                .then_with(|| cmp_args(&a.args, &b.args))
        });
        for e in order.iter().map(|&i| &els[i]) {
            s.push_str(&e.name);
            s.push_str(" :: ");
            s.push_str(&e.class);
            s.push('(');
            for (i, arg) in e.args.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                for (spaced, word) in words(arg) {
                    if spaced {
                        s.push(' ');
                    }
                    s.push_str(word);
                }
            }
            s.push_str(");\n");
        }

        order.clear();
        order.extend(0..cons.len());
        let key = |i: usize| {
            let c = &cons[i];
            (
                c.from.element.as_str(),
                c.from.port,
                c.to.element.as_str(),
                c.to.port,
            )
        };
        order.sort_unstable_by(|&a, &b| key(a).cmp(&key(b)));
        for (from, from_port, to, to_port) in order.into_iter().map(key) {
            let _ = writeln!(s, "{from}[{from_port}] -> [{to_port}]{to};");
        }
        s
    }

    /// Stable 64-bit fingerprint of [`canonical_text`](Self::canonical_text).
    pub fn canonical_hash(&self) -> u64 {
        fnv1a_64(self.canonical_str().as_bytes())
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
}
