//! Helpers for parsing element configuration strings.
//!
//! Click passes each element a comma-separated argument list. This module
//! splits that list (respecting nested parentheses and quotes) and offers
//! typed accessors so element constructors stay small.

use std::net::Ipv4Addr;
use std::str::FromStr;

use innet_packet::pattern::PatternExpr;

use crate::element::ElementError;

/// A parsed element argument list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigArgs {
    class: &'static str,
    args: Vec<String>,
}

/// Byte offsets of `raw`'s top-level commas: those outside parentheses
/// and double quotes. Every delimiter is ASCII, so a byte scan cuts only
/// at char boundaries.
fn top_level_commas(raw: &str) -> impl Iterator<Item = usize> + '_ {
    let (mut depth, mut in_quote) = (0usize, false);
    raw.bytes().enumerate().filter_map(move |(i, b)| {
        match b {
            b'"' => in_quote = !in_quote,
            b'(' if !in_quote => depth += 1,
            b')' if !in_quote => depth = depth.saturating_sub(1),
            b',' if depth == 0 && !in_quote => return Some(i),
            _ => {}
        }
        None
    })
}

/// Splits a raw argument string on top-level commas, trimming whitespace.
///
/// Commas inside parentheses or double quotes do not split, so patterns like
/// `Classifier(12/0800, -)` and nested expressions survive. Each argument
/// is copied once, from its span, into a list sized to hold them all.
pub fn split_args(raw: &str) -> Vec<String> {
    // `Foo()` and `Foo( )` both mean "no arguments".
    if raw.trim().is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(top_level_commas(raw).count() + 1);
    let mut start = 0;
    for comma in top_level_commas(raw) {
        out.push(raw[start..comma].trim().to_owned());
        start = comma + 1;
    }
    let last = raw[start..].trim();
    if !last.is_empty() {
        out.push(last.to_owned());
    }
    if out.len() == 1 && out[0].is_empty() {
        out.clear();
    }
    out
}

impl ConfigArgs {
    /// Wraps pre-split arguments for the element class `class`.
    pub fn new(class: &'static str, args: &[String]) -> ConfigArgs {
        ConfigArgs {
            class,
            args: args.to_vec(),
        }
    }

    /// Parses a raw comma-separated argument string.
    pub fn parse(class: &'static str, raw: &str) -> ConfigArgs {
        ConfigArgs {
            class,
            args: split_args(raw),
        }
    }

    /// The element class these arguments configure.
    pub(crate) fn class(&self) -> &'static str {
        self.class
    }

    /// Number of arguments.
    pub fn len(&self) -> usize {
        self.args.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.args.is_empty()
    }

    /// All arguments as string slices.
    pub fn all(&self) -> impl Iterator<Item = &str> {
        self.args.iter().map(|s| s.as_str())
    }

    fn bad(&self, message: impl Into<String>) -> ElementError {
        ElementError::BadArgs {
            class: self.class,
            message: message.into(),
        }
    }

    /// Fails unless exactly `n` arguments were given.
    pub fn expect_len(&self, n: usize) -> Result<(), ElementError> {
        if self.args.len() == n {
            Ok(())
        } else {
            Err(self.bad(format!("expected {n} arguments, got {}", self.args.len())))
        }
    }

    /// Fails unless between `lo` and `hi` arguments were given.
    pub fn expect_len_range(&self, lo: usize, hi: usize) -> Result<(), ElementError> {
        if (lo..=hi).contains(&self.args.len()) {
            Ok(())
        } else {
            Err(self.bad(format!(
                "expected {lo}..={hi} arguments, got {}",
                self.args.len()
            )))
        }
    }

    /// The `i`-th argument as a raw string.
    pub fn str_at(&self, i: usize) -> Result<&str, ElementError> {
        self.args
            .get(i)
            .map(|s| s.as_str())
            .ok_or_else(|| self.bad(format!("missing argument {i}")))
    }

    /// The `i`-th argument parsed as `T`.
    pub fn parse_at<T: FromStr>(&self, i: usize) -> Result<T, ElementError> {
        let s = self.str_at(i)?;
        s.parse::<T>()
            .map_err(|_| self.bad(format!("argument {i} ('{s}') is not a valid value")))
    }

    /// The `i`-th argument parsed as `T`, or `default` when absent.
    pub fn parse_or<T: FromStr>(&self, i: usize, default: T) -> Result<T, ElementError> {
        if i < self.args.len() {
            self.parse_at(i)
        } else {
            Ok(default)
        }
    }

    /// The `i`-th argument as an IPv4 address.
    pub fn addr_at(&self, i: usize) -> Result<Ipv4Addr, ElementError> {
        self.parse_at(i)
    }

    /// The `i`-th argument as a flow pattern.
    pub fn pattern_at(&self, i: usize) -> Result<PatternExpr, ElementError> {
        let s = self.str_at(i)?;
        s.parse::<PatternExpr>()
            .map_err(|e| self.bad(format!("argument {i}: {e}")))
    }

    /// All arguments parsed as flow patterns (one rule per argument).
    pub fn patterns(&self) -> Result<Vec<PatternExpr>, ElementError> {
        (0..self.args.len()).map(|i| self.pattern_at(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_top_level_only() {
        assert_eq!(
            split_args("a, b(c, d), \"e, f\""),
            vec!["a", "b(c, d)", "\"e, f\""]
        );
    }

    #[test]
    fn empty_and_blank() {
        assert!(split_args("").is_empty());
        assert!(split_args("   ").is_empty());
    }

    #[test]
    fn typed_accessors() {
        let a = ConfigArgs::parse("T", "120, 100, 1.2.3.4");
        assert_eq!(a.parse_at::<u64>(0).unwrap(), 120);
        assert_eq!(a.parse_or::<u64>(5, 9).unwrap(), 9);
        assert_eq!(a.addr_at(2).unwrap(), Ipv4Addr::new(1, 2, 3, 4));
        assert!(a.parse_at::<u64>(2).is_err());
        assert!(a.expect_len(3).is_ok());
        assert!(a.expect_len(2).is_err());
        assert!(a.expect_len_range(1, 3).is_ok());
    }

    #[test]
    fn pattern_args() {
        let a = ConfigArgs::parse("IPFilter", "allow udp dst port 1500");
        // "allow" is handled by IPFilter itself; here parse a plain pattern.
        let b = ConfigArgs::parse("IPClassifier", "udp dst port 1500, tcp, -");
        let pats = b.patterns().unwrap();
        assert_eq!(pats.len(), 3);
        assert_eq!(a.len(), 1);
    }
}
