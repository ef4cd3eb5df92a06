//! The symbolic value domain: variables, constants, ranges, and origins.
//!
//! A variable's possible values are a [`RangeSet`]: sorted, disjoint,
//! inclusive `u64` ranges. Every symbolic branch narrows or copies these
//! sets, and nearly all of them hold one range (an address block, a port,
//! a protocol) or two (the same with one value cut out). So a set keeps up
//! to two ranges inline and moves to a heap `Vec` only at the third.
//! `intersect` and `complement` build their result in place. Equality
//! compares the ranges, whichever storage holds them, so the storage is
//! invisible outside this module.

use serde::{Deserialize, Serialize};

/// Identifier of a symbolic variable, unique within one execution branch.
pub type VarId = u64;

/// Where a symbolic variable came from. Origin drives the security
/// verdict: values revealed by decapsulation can be attributed to the
/// tunnel peer, while values produced by opaque code cannot be attributed
/// at all (paper §7.1, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Origin {
    /// An unconstrained input field (the "any possible traffic" injection
    /// of §4.4).
    Free,
    /// Revealed by decapsulating traffic that was addressed to the module.
    Decap,
    /// Produced by unmodellable (opaque) processing such as an x86 VM.
    Opaque,
    /// Result of modeled arithmetic whose exact value we do not track
    /// (e.g. a decremented unknown TTL, an allocated NAT port).
    Computed,
}

/// A symbolic value: either a known constant or a variable.
///
/// Equality of two `Var` values with the same [`VarId`] is *semantic*
/// equality — SymNet's "bound to the same symbolic variable" (paper §4.4):
/// when the server model executes `p[ip_dst] = p[ip_src]`, the destination
/// field receives the very same variable the source field held, and the
/// implicit-authorization check later recognizes the binding structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SymValue {
    /// A known constant (addresses are stored as `u32`, ports as `u16`,
    /// widened to `u64`).
    Const(u64),
    /// A symbolic variable.
    Var(VarId),
}

impl SymValue {
    /// The constant payload, if this is a constant.
    pub fn as_const(&self) -> Option<u64> {
        match self {
            SymValue::Const(c) => Some(*c),
            SymValue::Var(_) => None,
        }
    }

    /// The variable id, if this is a variable.
    pub fn as_var(&self) -> Option<VarId> {
        match self {
            SymValue::Const(_) => None,
            SymValue::Var(v) => Some(*v),
        }
    }
}

/// The storage behind a [`RangeSet`]: up to two ranges inline, a heap
/// `Vec` from the third on.
#[derive(Clone, Serialize, Deserialize)]
enum Ranges {
    Empty,
    One((u64, u64)),
    Two([(u64, u64); 2]),
    /// Three or more ranges.
    Spilled(Vec<(u64, u64)>),
}

/// A set of `u64` values represented as sorted, disjoint, inclusive ranges.
#[derive(Clone, Serialize, Deserialize)]
pub struct RangeSet {
    ranges: Ranges,
}

impl RangeSet {
    /// The full domain.
    pub fn full() -> RangeSet {
        RangeSet::range(0, u64::MAX)
    }

    /// The empty set.
    pub fn empty() -> RangeSet {
        RangeSet {
            ranges: Ranges::Empty,
        }
    }

    /// A single value.
    pub fn single(v: u64) -> RangeSet {
        RangeSet::range(v, v)
    }

    /// An inclusive range. `lo > hi` yields the empty set.
    pub fn range(lo: u64, hi: u64) -> RangeSet {
        RangeSet {
            ranges: if lo <= hi {
                Ranges::One((lo, hi))
            } else {
                Ranges::Empty
            },
        }
    }

    /// The ranges, in ascending order.
    fn as_slice(&self) -> &[(u64, u64)] {
        match &self.ranges {
            Ranges::Empty => &[],
            Ranges::One(r) => std::slice::from_ref(r),
            Ranges::Two(rs) => rs,
            Ranges::Spilled(v) => v,
        }
    }

    /// Appends a range above every range already held.
    fn push(&mut self, r: (u64, u64)) {
        self.ranges = match std::mem::replace(&mut self.ranges, Ranges::Empty) {
            Ranges::Empty => Ranges::One(r),
            Ranges::One(a) => Ranges::Two([a, r]),
            Ranges::Two([a, b]) => Ranges::Spilled(vec![a, b, r]),
            Ranges::Spilled(mut v) => {
                v.push(r);
                Ranges::Spilled(v)
            }
        };
    }

    /// Whether no value satisfies the set.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Whether the set is the full domain.
    pub fn is_full(&self) -> bool {
        self.as_slice() == [(0, u64::MAX)]
    }

    /// Whether `v` is a member.
    pub fn contains(&self, v: u64) -> bool {
        self.as_slice().iter().any(|&(lo, hi)| lo <= v && v <= hi)
    }

    /// Some member of the set, if any (used to produce witness packets).
    pub fn witness(&self) -> Option<u64> {
        self.as_slice().first().map(|&(lo, _)| lo)
    }

    /// The single member, if the set has exactly one.
    pub fn as_single(&self) -> Option<u64> {
        match self.as_slice() {
            [(lo, hi)] if lo == hi => Some(*lo),
            _ => None,
        }
    }

    /// Set intersection.
    pub fn intersect(&self, other: &RangeSet) -> RangeSet {
        let (a, b) = (self.as_slice(), other.as_slice());
        let mut out = RangeSet::empty();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (a_lo, a_hi) = a[i];
            let (b_lo, b_hi) = b[j];
            let lo = a_lo.max(b_lo);
            let hi = a_hi.min(b_hi);
            if lo <= hi {
                out.push((lo, hi));
            }
            if a_hi < b_hi {
                i += 1;
            } else {
                j += 1;
            }
        }
        out
    }

    /// Set complement.
    pub fn complement(&self) -> RangeSet {
        let mut out = RangeSet::empty();
        let mut next = 0u64;
        for &(lo, hi) in self.as_slice() {
            if lo > next {
                out.push((next, lo - 1));
            }
            match hi.checked_add(1) {
                Some(n) => next = n,
                // The set reaches `u64::MAX`: nothing above it to add.
                None => return out,
            }
        }
        out.push((next, u64::MAX));
        out
    }

    /// Set difference (`self \ other`).
    pub fn minus(&self, other: &RangeSet) -> RangeSet {
        self.intersect(&other.complement())
    }
}

/// Two sets are equal when they hold the same ranges, whichever storage
/// holds them.
impl PartialEq for RangeSet {
    fn eq(&self, other: &RangeSet) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for RangeSet {}

impl std::fmt::Debug for RangeSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RangeSet")
            .field("ranges", &self.as_slice())
            .finish()
    }
}

/// Constraint information attached to one variable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VarInfo {
    /// Values the variable may take.
    pub ranges: RangeSet,
    /// Where the variable came from.
    pub origin: Origin,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_and_range() {
        let s = RangeSet::single(5);
        assert!(s.contains(5));
        assert!(!s.contains(6));
        assert_eq!(s.as_single(), Some(5));
        assert!(RangeSet::range(9, 3).is_empty());
    }

    #[test]
    fn intersect_disjoint_and_overlapping() {
        let a = RangeSet::range(0, 10);
        let b = RangeSet::range(5, 20);
        assert_eq!(a.intersect(&b), RangeSet::range(5, 10));
        let c = RangeSet::range(11, 12);
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    fn complement_roundtrip() {
        let a = RangeSet::range(10, 20);
        let c = a.complement();
        assert!(c.contains(9));
        assert!(c.contains(21));
        assert!(!c.contains(15));
        assert_eq!(c.complement(), a);
    }

    #[test]
    fn complement_edges() {
        assert_eq!(RangeSet::empty().complement(), RangeSet::full());
        assert!(RangeSet::full().complement().is_empty());
        let zero = RangeSet::single(0);
        assert!(!zero.complement().contains(0));
        assert!(zero.complement().contains(1));
        let max = RangeSet::single(u64::MAX);
        assert!(max.complement().contains(u64::MAX - 1));
        assert!(!max.complement().contains(u64::MAX));
    }

    #[test]
    fn minus() {
        let a = RangeSet::range(0, 10);
        let d = a.minus(&RangeSet::single(5));
        assert!(d.contains(4));
        assert!(!d.contains(5));
        assert!(d.contains(6));
        assert!(!d.contains(11));
    }

    #[test]
    fn witness_is_member() {
        let a = RangeSet::range(42, 99);
        assert!(a.contains(a.witness().unwrap()));
        assert_eq!(RangeSet::empty().witness(), None);
    }

    #[test]
    fn multi_range_intersect() {
        let a = RangeSet::range(0, 100).minus(&RangeSet::range(40, 60));
        let b = RangeSet::range(30, 70);
        let i = a.intersect(&b);
        assert!(i.contains(30));
        assert!(i.contains(39));
        assert!(!i.contains(50));
        assert!(i.contains(61));
        assert!(!i.contains(71));
    }

    /// The `Vec`-backed algorithms `RangeSet` used before it held ranges
    /// inline: the oracle the inline storage is checked against.
    mod vec_oracle {
        pub fn intersect(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
            let mut out = Vec::new();
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                let (a_lo, a_hi) = a[i];
                let (b_lo, b_hi) = b[j];
                let lo = a_lo.max(b_lo);
                let hi = a_hi.min(b_hi);
                if lo <= hi {
                    out.push((lo, hi));
                }
                if a_hi < b_hi {
                    i += 1;
                } else {
                    j += 1;
                }
            }
            out
        }

        pub fn complement(a: &[(u64, u64)]) -> Vec<(u64, u64)> {
            if a.is_empty() {
                return vec![(0, u64::MAX)];
            }
            let mut out = Vec::new();
            let mut next = 0u64;
            let mut saturated = false;
            for &(lo, hi) in a {
                if lo > next {
                    out.push((next, lo - 1));
                }
                match hi.checked_add(1) {
                    Some(n) => next = n.max(next),
                    None => {
                        saturated = true;
                        break;
                    }
                }
            }
            if !saturated {
                out.push((next, u64::MAX));
            }
            out
        }
    }

    /// Range endpoints are drawn from here: a small domain plus the top of
    /// `u64`, so `complement`'s overflow edge is hit often.
    const ENDPOINTS: [u64; 20] = [
        0,
        1,
        2,
        3,
        4,
        5,
        6,
        7,
        8,
        9,
        10,
        11,
        12,
        13,
        14,
        15,
        u64::MAX - 3,
        u64::MAX - 2,
        u64::MAX - 1,
        u64::MAX,
    ];

    /// Membership probes. Every endpoint an operation can produce is in
    /// `0..=16` or `MAX-4..=MAX`, so membership is constant on the gap
    /// between, and `1 << 40` stands for all of it: agreeing on the probes
    /// is agreeing everywhere.
    fn probes() -> impl Iterator<Item = u64> {
        (0..=16).chain([1 << 40]).chain(u64::MAX - 4..=u64::MAX)
    }

    /// A random set of `k` sorted, disjoint, non-adjacent ranges (the only
    /// sets the public operations build).
    fn ranges_of(rng: &mut rand::rngs::StdRng, k: usize) -> Vec<(u64, u64)> {
        use rand::Rng;
        loop {
            let mut pts: Vec<u64> = (0..2 * k)
                .map(|_| ENDPOINTS[rng.gen_range(0..ENDPOINTS.len())])
                .collect();
            pts.sort_unstable();
            let ranges: Vec<(u64, u64)> = pts.chunks(2).map(|c| (c[0], c[1])).collect();
            if ranges
                .windows(2)
                .all(|w| w[0].1.checked_add(1).is_some_and(|n| n < w[1].0))
            {
                return ranges;
            }
        }
    }

    fn set_of(ranges: &[(u64, u64)]) -> RangeSet {
        let mut s = RangeSet::empty();
        for &r in ranges {
            s.push(r);
        }
        s
    }

    #[test]
    fn inline_storage_agrees_with_the_vec_oracle() {
        use rand::{Rng, SeedableRng};
        const SEED: u64 = 0x5e7_2a9e;
        println!("RangeSet property seed: {SEED:#x}");
        let mut rng = rand::rngs::StdRng::seed_from_u64(SEED);
        let mut by_len = [0usize; 5];
        for case in 0..4_000 {
            let (ka, kb) = (rng.gen_range(0..5), rng.gen_range(0..5));
            let (ra, rb) = (ranges_of(&mut rng, ka), ranges_of(&mut rng, kb));
            let (a, b) = (set_of(&ra), set_of(&rb));
            let ctx = format!("seed {SEED:#x} case {case}: a = {ra:?}, b = {rb:?}");
            by_len[ra.len()] += 1;

            // Against the parent's algorithms.
            let inter = vec_oracle::intersect(&ra, &rb);
            let comp = vec_oracle::complement(&ra);
            let minus = vec_oracle::intersect(&ra, &vec_oracle::complement(&rb));
            assert_eq!(a.intersect(&b).as_slice(), inter, "intersect, {ctx}");
            assert_eq!(a.complement().as_slice(), comp, "complement, {ctx}");
            assert_eq!(a.minus(&b).as_slice(), minus, "minus, {ctx}");
            assert_eq!(a.is_empty(), ra.is_empty(), "is_empty, {ctx}");
            assert_eq!(a.is_full(), ra == [(0, u64::MAX)], "is_full, {ctx}");
            let single = match ra.as_slice() {
                [(lo, hi)] if lo == hi => Some(*lo),
                _ => None,
            };
            assert_eq!(a.as_single(), single, "as_single, {ctx}");
            assert_eq!(a.witness(), ra.first().map(|r| r.0), "witness, {ctx}");
            assert_eq!(a == b, ra == rb, "==, {ctx}");

            // Against brute-force membership.
            let member = |r: &[(u64, u64)], v: u64| r.iter().any(|&(lo, hi)| lo <= v && v <= hi);
            let (i, c, m) = (a.intersect(&b), a.complement(), a.minus(&b));
            for v in probes() {
                let (in_a, in_b) = (member(&ra, v), member(&rb, v));
                assert_eq!(a.contains(v), in_a, "contains({v}), {ctx}");
                assert_eq!(i.contains(v), in_a && in_b, "intersect at {v}, {ctx}");
                assert_eq!(c.contains(v), !in_a, "complement at {v}, {ctx}");
                assert_eq!(m.contains(v), in_a && !in_b, "minus at {v}, {ctx}");
            }
            assert_eq!(a.is_full(), probes().all(|v| a.contains(v)), "full, {ctx}");
            assert_eq!(
                a.is_empty(),
                probes().all(|v| !a.contains(v)),
                "empty, {ctx}"
            );
            assert_eq!(
                a == b,
                probes().all(|v| a.contains(v) == b.contains(v)),
                "== is set equality, {ctx}"
            );
            if let Some(x) = a.as_single() {
                assert!(probes().all(|v| a.contains(v) == (v == x)), "single, {ctx}");
            }

            // Storage is invisible: the same ranges held on the heap are
            // the same set.
            let spilled = RangeSet {
                ranges: Ranges::Spilled(ra.clone()),
            };
            assert_eq!(spilled, a, "== across storage, {ctx}");
            assert_eq!(format!("{spilled:?}"), format!("{a:?}"), "Debug, {ctx}");
            assert_eq!(
                matches!(a.ranges, Ranges::Spilled(_)),
                ra.len() > 2,
                "spills exactly past two ranges, {ctx}"
            );
        }
        assert!(
            by_len.iter().all(|&n| n > 0),
            "every size 0..=4 was generated: {by_len:?}"
        );
    }
}
