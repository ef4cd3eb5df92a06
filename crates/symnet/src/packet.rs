//! The symbolic packet: field layers, constraint store, trace, and write
//! history.
//!
//! Symbolic execution forks a packet at every branch, so a fork must cost
//! next to nothing, and one that only reads must cost nothing more. Every
//! part of a [`SymPacket`] is laid out for that:
//!
//! * **Trace and write history** are persistent lists ([`PList`]): a fork
//!   shares the path travelled so far, however long it is.
//! * **Constraint store.** Variable ids are dense: [`SymPacket::fresh`]
//!   hands out the next index, and no variable is ever removed. So the
//!   store is a `Vec` indexed by id, and the next id is its length. It sits
//!   behind an `Arc` and is copied on the first write after a fork
//!   (`Arc::make_mut`). A constraint that leaves a variable's set
//!   unchanged writes nothing. So a fork that only observes (a security
//!   check, a requirement way-point, an egress flow) shares its parent's
//!   store.
//! * **Header layers.** The current header is held inline. The inner
//!   headers under it are in a `Vec` that stays empty, and so unallocated,
//!   unless a modeled tunnel encapsulated the packet.
//!
//! Cloning a packet therefore allocates nothing. A fork's first write
//! copies the store in two allocations (the `Arc` and its `Vec`): a
//! [`RangeSet`] holds its ranges inline, so the copy allocates nothing
//! per variable.

use std::sync::Arc;

use crate::{
    field::{Field, FieldMap, ALL_FIELDS},
    plist::PList,
    value::{Origin, RangeSet, SymValue, VarId, VarInfo},
};

/// One step of a symbolic packet's journey: which node it arrived at, on
/// which input port, and a snapshot of its header fields at arrival.
#[derive(Debug, Clone)]
pub struct Hop {
    /// Node index within the executing graph.
    pub node: usize,
    /// Input port the packet arrived on.
    pub in_port: usize,
    /// Header fields at arrival (before the node processes the packet).
    pub fields: FieldMap,
}

/// A record of a field being overwritten.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRec {
    /// The field written.
    pub field: Field,
    /// Index into the trace of the hop during which the write happened
    /// (`usize::MAX` when written before injection).
    pub at_hop: usize,
}

/// A symbolic packet — a *set* of concrete packets sharing constraints
/// (paper §3).
#[derive(Debug, Clone)]
pub struct SymPacket {
    /// The current (outermost) header.
    top: FieldMap,
    /// The headers under `top`, innermost first (empty unless
    /// encapsulated by a modeled tunnel).
    below: Vec<FieldMap>,
    /// Constraint store, indexed by [`VarId`]; shared between forks until
    /// one of them writes.
    store: Arc<Vec<VarInfo>>,
    feasible: bool,
    /// Arrival history (persistent: branches share their common prefix,
    /// so cloning a packet is O(1) regardless of path length).
    trace: PList<Hop>,
    /// Field overwrite history (persistent, like the trace).
    writes: PList<WriteRec>,
    /// Field values at injection time (for binding comparisons).
    pub ingress: FieldMap,
}

impl SymPacket {
    /// A freshly injected packet: each header field is a new
    /// [`Origin::Free`] variable ranging over `ranges(field)`, or
    /// `Const(0)` where that is `None`.
    fn injected(ranges: impl Fn(Field) -> Option<RangeSet>) -> SymPacket {
        let mut top = FieldMap::zeroed();
        let mut store = Vec::with_capacity(ALL_FIELDS.len());
        for f in ALL_FIELDS {
            if let Some(ranges) = ranges(f) {
                top.set(f, SymValue::Var(store.len() as VarId));
                store.push(VarInfo {
                    ranges,
                    origin: Origin::Free,
                });
            }
        }
        SymPacket {
            top,
            below: Vec::new(),
            store: Arc::new(store),
            feasible: true,
            trace: PList::new(),
            writes: PList::new(),
            ingress: top,
        }
    }

    /// A fully unconstrained packet: every header field is a fresh free
    /// variable (except `FwTag`, which starts at `Const(0)`, and `TcpSyn`,
    /// constrained to {0,1}).
    pub fn unconstrained() -> SymPacket {
        SymPacket::injected(|f| match f {
            Field::FwTag => None,
            Field::TcpSyn => Some(RangeSet::range(0, 1)),
            _ => Some(RangeSet::full()),
        })
    }

    /// A summarization capture probe: *every* field — including `FwTag`
    /// and `TcpSyn` — is a fresh, fully unconstrained [`Origin::Free`]
    /// variable. Unlike [`SymPacket::unconstrained`] (which models real
    /// platform ingress), the probe carries no initial narrowing, so every
    /// constraint a chain applies is captured as a pure intersection set
    /// that replays exactly onto *any* entry value.
    pub(crate) fn capture_probe() -> SymPacket {
        SymPacket::injected(|_| Some(RangeSet::full()))
    }

    /// Allocates a fresh variable of the given origin.
    pub fn fresh(&mut self, origin: Origin) -> SymValue {
        self.fresh_ranged(origin, RangeSet::full())
    }

    /// Allocates a fresh variable of the given origin pre-constrained to
    /// `ranges` (summary replay materializing a recorded fresh slot).
    pub fn fresh_ranged(&mut self, origin: Origin, ranges: RangeSet) -> SymValue {
        let id = self.store.len() as VarId;
        Arc::make_mut(&mut self.store).push(VarInfo { ranges, origin });
        SymValue::Var(id)
    }

    /// The constraint entry of a variable.
    fn info(&self, id: VarId) -> Option<&VarInfo> {
        self.store.get(id as usize)
    }

    /// The current (outermost) header layer.
    pub fn top(&self) -> &FieldMap {
        &self.top
    }

    /// Number of header layers (1 = not encapsulated by a modeled tunnel).
    pub fn depth(&self) -> usize {
        self.below.len() + 1
    }

    /// Reads a field of the current layer.
    pub fn get(&self, f: Field) -> SymValue {
        self.top.get(f)
    }

    /// Overwrites a field, recording the write against the current hop.
    pub fn write(&mut self, f: Field, v: SymValue) {
        let at_hop = self.trace.len().saturating_sub(1);
        let at_hop = if self.trace.is_empty() {
            usize::MAX
        } else {
            at_hop
        };
        self.writes.push(WriteRec { field: f, at_hop });
        self.top.set(f, v);
    }

    /// Whether the packet's constraints are still satisfiable.
    pub fn feasible(&self) -> bool {
        self.feasible
    }

    /// Restricts a field to the given value set. Returns the packet's
    /// resulting feasibility (and latches infeasibility).
    pub fn constrain(&mut self, f: Field, allowed: &RangeSet) -> bool {
        self.constrain_value(self.get(f), allowed)
    }

    /// Restricts a field to exactly `v`.
    pub fn constrain_eq(&mut self, f: Field, v: u64) -> bool {
        self.constrain(f, &RangeSet::single(v))
    }

    /// Excludes `set` from a field's allowed values.
    pub fn constrain_not(&mut self, f: Field, set: &RangeSet) -> bool {
        self.constrain(f, &set.complement())
    }

    /// The possible values of a field: a constant's singleton, or the
    /// variable's current range set.
    pub fn possible(&self, f: Field) -> RangeSet {
        self.possible_of(self.get(f))
    }

    /// The possible values of a symbolic value under this packet's
    /// constraint store (a constant's singleton, or the variable's range).
    pub fn possible_of(&self, v: SymValue) -> RangeSet {
        match v {
            SymValue::Const(c) => RangeSet::single(c),
            SymValue::Var(id) => self
                .info(id)
                .map(|i| i.ranges.clone())
                .unwrap_or_else(RangeSet::full),
        }
    }

    /// Restricts a symbolic *value* (rather than a field slot) to the
    /// given set. Needed by summary replay: a chain's constraints apply to
    /// the values a field held at chain entry, which copies may since have
    /// moved into other fields. Returns (and latches) feasibility.
    ///
    /// The store is written (and so unshared from other forks) only when
    /// the variable's set actually shrinks.
    pub fn constrain_value(&mut self, v: SymValue, allowed: &RangeSet) -> bool {
        if !self.feasible {
            return false;
        }
        match v {
            SymValue::Const(c) => {
                if !allowed.contains(c) {
                    self.feasible = false;
                }
            }
            SymValue::Var(id) => {
                let cur = &self.info(id).expect("store entry for var").ranges;
                let next = cur.intersect(allowed);
                let narrowed = next != *cur;
                self.feasible = !next.is_empty();
                if narrowed {
                    Arc::make_mut(&mut self.store)[id as usize].ranges = next;
                }
            }
        }
        self.feasible
    }

    /// The origin of a value (constants have no origin).
    pub fn origin_of(&self, v: SymValue) -> Option<Origin> {
        match v {
            SymValue::Const(_) => None,
            SymValue::Var(id) => self.info(id).map(|i| i.origin),
        }
    }

    /// Whether the field is provably the single constant `v` (either a
    /// `Const` or a variable constrained to the singleton).
    pub fn provably_eq(&self, f: Field, v: u64) -> bool {
        self.possible(f).as_single() == Some(v)
    }

    /// Whether two symbolic values are *provably equal*: identical
    /// constants, or the same variable (SymNet's structural binding).
    pub fn provably_same(&self, a: SymValue, b: SymValue) -> bool {
        match (a, b) {
            (SymValue::Const(x), SymValue::Const(y)) => x == y,
            (SymValue::Var(x), SymValue::Var(y)) => x == y,
            (SymValue::Const(c), SymValue::Var(v)) | (SymValue::Var(v), SymValue::Const(c)) => self
                .info(v)
                .is_some_and(|i| i.ranges.as_single() == Some(c)),
        }
    }

    /// Whether the field has ever been overwritten since injection.
    pub fn ever_written(&self, f: Field) -> bool {
        self.writes.iter_rev().any(|w| w.field == f)
    }

    /// Whether the field was overwritten strictly after arriving at hop
    /// index `since` (exclusive) up to now — the invariant check for
    /// `const` clauses on a requirement hop.
    pub fn written_after(&self, f: Field, since: usize) -> bool {
        self.writes
            .iter_rev()
            .any(|w| w.field == f && w.at_hop != usize::MAX && w.at_hop >= since)
    }

    /// Whether the field was overwritten during hops `[from, to)` — the
    /// per-segment invariant check for requirement `const` clauses.
    pub fn written_between(&self, f: Field, from: usize, to: usize) -> bool {
        self.writes
            .iter_rev()
            .any(|w| w.field == f && w.at_hop != usize::MAX && w.at_hop >= from && w.at_hop < to)
    }

    /// Number of recorded arrivals.
    pub fn trace_len(&self) -> usize {
        self.trace.len()
    }

    /// Materializes the arrival history, oldest first.
    pub fn hops(&self) -> Vec<Hop> {
        self.trace.to_vec()
    }

    /// How many times this packet has arrived at `node`.
    pub fn visits(&self, node: usize) -> usize {
        self.trace.iter_rev().filter(|h| h.node == node).count()
    }

    /// How many times this packet arrived at `node` within the most
    /// recent `window` hops. Forwarding loops revisit nodes with short
    /// periods, so a bounded window detects them while keeping the
    /// engine's per-hop cost O(window) instead of O(path) — the last
    /// piece of the (near-)linear Figure 10 scaling.
    pub fn visits_recent(&self, node: usize, window: usize) -> usize {
        self.trace
            .iter_rev()
            .take(window)
            .filter(|h| h.node == node)
            .count()
    }

    /// Records arrival at a node (the engine calls this before executing
    /// the node's model).
    pub fn record_arrival(&mut self, node: usize, in_port: usize) {
        self.trace.push(Hop {
            node,
            in_port,
            fields: self.top,
        });
    }

    /// Pushes a new outer header layer whose fields are all `Const(0)`;
    /// the encapsulation model then writes the outer fields explicitly.
    /// The inner header is preserved untouched underneath.
    pub fn push_layer(&mut self) {
        // Carry payload identity through: the tunnel payload *is* the
        // inner packet; its identity value is retained so that invariants
        // over `payload` survive an encap/decap round trip.
        let payload = self.get(Field::Payload);
        let mut outer = FieldMap::zeroed();
        outer.set(Field::Payload, payload);
        self.below.push(std::mem::replace(&mut self.top, outer));
    }

    /// Pops the outer header layer, restoring the inner one. Returns
    /// `false` when there is no inner layer (the packet was not
    /// encapsulated by a modeled element) — the caller should then
    /// replace the fields with fresh [`Origin::Decap`] variables instead.
    pub fn pop_layer(&mut self) -> bool {
        match self.below.pop() {
            Some(inner) => {
                self.top = inner;
                true
            }
            None => false,
        }
    }

    /// Replaces every header field with a fresh variable of the given
    /// origin (used for decapsulation of unknown tunnels and for opaque
    /// x86 processing), recording writes.
    pub fn havoc_all(&mut self, origin: Origin) {
        for f in ALL_FIELDS {
            let v = self.fresh(origin);
            self.write(f, v);
        }
    }

    /// A view of this packet as it looked at a recorded trace snapshot:
    /// the same constraint store, with the header fields replaced by the
    /// snapshot. Used to evaluate flow specifications "at the time of
    /// visit" of a requirement way-point.
    pub fn at_snapshot(&self, fields: FieldMap) -> SymPacket {
        let mut p = self.clone();
        p.top = fields;
        p
    }

    /// A human-readable rendering of the current fields, for reports.
    pub fn render_fields(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (f, v) in self.top().iter() {
            match v {
                SymValue::Const(c) => {
                    let _ = write!(s, "{f}={c} ");
                }
                SymValue::Var(id) => {
                    let set = self.possible(f);
                    if let Some(c) = set.as_single() {
                        let _ = write!(s, "{f}=v{id}[={c}] ");
                    } else if set.is_full() {
                        let _ = write!(s, "{f}=v{id} ");
                    } else {
                        let _ = write!(s, "{f}=v{id}[..] ");
                    }
                }
            }
        }
        s.trim_end().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_is_feasible_and_free() {
        let p = SymPacket::unconstrained();
        assert!(p.feasible());
        assert!(p.get(Field::IpSrc).as_var().is_some());
        assert_eq!(p.get(Field::FwTag), SymValue::Const(0));
        assert_eq!(p.origin_of(p.get(Field::IpSrc)), Some(Origin::Free));
    }

    #[test]
    fn constrain_to_singleton_then_conflict() {
        let mut p = SymPacket::unconstrained();
        assert!(p.constrain_eq(Field::Proto, 17));
        assert!(p.provably_eq(Field::Proto, 17));
        assert!(!p.constrain_eq(Field::Proto, 6), "17 != 6 is infeasible");
        assert!(!p.feasible());
    }

    #[test]
    fn binding_constrains_both_fields() {
        // Model the paper's server: p[ip_dst] = p[ip_src]. Constraining
        // the destination afterwards also constrains the source.
        let mut p = SymPacket::unconstrained();
        let src = p.get(Field::IpSrc);
        p.write(Field::IpDst, src);
        assert!(p.provably_same(p.get(Field::IpDst), p.get(Field::IpSrc)));
        assert!(p.constrain_eq(Field::IpDst, 42));
        assert!(p.provably_eq(Field::IpSrc, 42));
    }

    #[test]
    fn write_tracking() {
        let mut p = SymPacket::unconstrained();
        p.record_arrival(0, 0);
        assert!(!p.ever_written(Field::Ttl));
        p.write(Field::Ttl, SymValue::Const(63));
        assert!(p.ever_written(Field::Ttl));
        assert!(p.written_after(Field::Ttl, 0));
        p.record_arrival(1, 0);
        assert!(!p.written_after(Field::Ttl, 1));
    }

    #[test]
    fn encap_decap_restores_inner() {
        let mut p = SymPacket::unconstrained();
        let inner_dst = p.get(Field::IpDst);
        p.push_layer();
        p.write(Field::IpSrc, SymValue::Const(1));
        p.write(Field::IpDst, SymValue::Const(2));
        assert_eq!(p.get(Field::IpDst), SymValue::Const(2));
        assert!(p.pop_layer());
        assert_eq!(p.get(Field::IpDst), inner_dst, "inner header restored");
        assert!(!p.pop_layer(), "only one layer left");
    }

    #[test]
    fn payload_identity_survives_encap() {
        let mut p = SymPacket::unconstrained();
        let payload = p.get(Field::Payload);
        p.push_layer();
        assert_eq!(p.get(Field::Payload), payload);
    }

    #[test]
    fn havoc_changes_origin() {
        let mut p = SymPacket::unconstrained();
        p.record_arrival(0, 0);
        p.havoc_all(Origin::Opaque);
        assert_eq!(p.origin_of(p.get(Field::IpSrc)), Some(Origin::Opaque));
        assert!(p.ever_written(Field::IpSrc));
    }

    #[test]
    fn tcp_syn_bounded() {
        let p = SymPacket::unconstrained();
        let set = p.possible(Field::TcpSyn);
        assert!(set.contains(0) && set.contains(1) && !set.contains(2));
    }

    /// A packet's fields, depth, feasibility, and per-variable set and
    /// origin.
    type Observed = (Vec<SymValue>, usize, bool, Vec<(RangeSet, Option<Origin>)>);

    /// Everything a caller can observe of a packet: its fields, depth and
    /// feasibility, the set and origin of every variable, and the id the
    /// next fresh variable gets.
    fn observe(p: &SymPacket) -> Observed {
        let fields = ALL_FIELDS.iter().map(|&f| p.get(f)).collect();
        let next = p.clone().fresh(Origin::Computed);
        let vars = (0..next.as_var().unwrap())
            .map(|id| {
                (
                    p.possible_of(SymValue::Var(id)),
                    p.origin_of(SymValue::Var(id)),
                )
            })
            .chain([(p.possible_of(next), None)])
            .collect();
        (fields, p.depth(), p.feasible(), vars)
    }

    #[test]
    fn forks_are_isolated_in_both_directions() {
        let plain = SymPacket::unconstrained();
        let mut encapsulated = SymPacket::unconstrained();
        encapsulated.record_arrival(0, 0);
        encapsulated.constrain_eq(Field::Proto, 17);
        encapsulated.push_layer();
        encapsulated.write(Field::IpDst, SymValue::Const(7));
        type Mutation = (&'static str, fn(&mut SymPacket));
        let mutations: [Mutation; 8] = [
            ("constrain", |p| {
                p.constrain(Field::IpSrc, &RangeSet::range(10, 20));
            }),
            ("constrain_not", |p| {
                p.constrain_not(Field::Payload, &RangeSet::single(80));
            }),
            ("infeasible", |p| {
                p.constrain_eq(Field::TcpSyn, 2);
            }),
            ("fresh", |p| {
                p.fresh(Origin::Opaque);
            }),
            ("write", |p| p.write(Field::IpSrc, SymValue::Const(9))),
            ("push_layer", |p| {
                p.push_layer();
                p.write(Field::IpSrc, SymValue::Const(1));
            }),
            ("pop_layer", |p| {
                if !p.pop_layer() {
                    p.havoc_all(Origin::Decap);
                }
            }),
            ("havoc_all", |p| p.havoc_all(Origin::Opaque)),
        ];
        for base in [&plain, &encapsulated] {
            for (name, mutate) in mutations {
                let p = base.clone();
                let before = observe(&p);
                let mut q = p.clone();
                mutate(&mut q);
                assert_ne!(observe(&q), before, "{name} changed nothing");
                assert_eq!(
                    observe(&p),
                    before,
                    "{name} on the fork leaked into the original"
                );

                let mut p = base.clone();
                let q = p.clone();
                mutate(&mut p);
                assert_eq!(
                    observe(&q),
                    before,
                    "{name} on the original leaked into the fork"
                );
            }
        }
    }

    #[test]
    fn read_only_forks_share_the_store() {
        let mut p = SymPacket::unconstrained();
        p.constrain(Field::DstPort, &RangeSet::range(0, 1023));
        let mut q = p.clone();
        assert!(q.constrain(Field::DstPort, &RangeSet::range(0, 65535)));
        assert!(q.constrain(Field::FwTag, &RangeSet::single(0)));
        assert!(
            Arc::ptr_eq(&p.store, &q.store),
            "a no-op constraint copies nothing"
        );
        let s = p.at_snapshot(p.ingress);
        assert!(
            Arc::ptr_eq(&p.store, &s.store),
            "a snapshot view copies nothing"
        );
        q.constrain(Field::DstPort, &RangeSet::single(22));
        assert!(
            !Arc::ptr_eq(&p.store, &q.store),
            "a narrowing write unshares"
        );
        assert_eq!(p.possible(Field::DstPort), RangeSet::range(0, 1023));
    }

    #[test]
    fn snapshot_replaces_only_the_top_layer() {
        let mut p = SymPacket::unconstrained();
        let inner = *p.top();
        p.push_layer();
        p.write(Field::IpSrc, SymValue::Const(1));
        let outer = *p.top();
        let mut s = p.at_snapshot(inner);
        assert_eq!(s.depth(), 2);
        assert_eq!(*s.top(), inner);
        assert!(s.pop_layer());
        assert_eq!(
            *s.top(),
            inner,
            "the layer below the snapshot is the packet's own"
        );
        assert_eq!(
            (*p.top(), p.depth()),
            (outer, 2),
            "the original is untouched"
        );
    }
}
