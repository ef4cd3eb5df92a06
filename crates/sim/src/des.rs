//! A minimal discrete-event core: a time-ordered queue of typed events
//! with deterministic tie-breaking.
//!
//! [`EventQueue`] is the one future-event list of the simulator: the
//! fleet driver's timeline and the fleet fabric's in-flight packets are
//! both instances of it, so "earliest time first, ties in scheduling
//! order" is written once, here.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Virtual time in nanoseconds.
pub type SimTime = u64;

/// One nanosecond-scale second.
pub const SECOND: SimTime = 1_000_000_000;

/// One millisecond in [`SimTime`] units.
pub const MILLI: SimTime = 1_000_000;

/// A scheduled event. Entries compare on `(at, seq)` only, so the payload
/// needs no ordering (or even equality) of its own.
#[derive(Debug, Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list.
///
/// Events scheduled for the same instant pop in scheduling order, so runs
/// are reproducible regardless of event payloads.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling into the past is clamped to `now` (the event fires
    /// immediately but still in FIFO order).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        self.heap.push(Reverse(Entry {
            at,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// Pops the next event, advancing virtual time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(e) = self.heap.pop()?;
        self.now = e.at;
        Some((e.at, e.event))
    }

    /// Pops the next event if it is due at or before `now`, advancing
    /// virtual time to it; a later event stays queued.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek()?.0.at > now {
            return None;
        }
        self.pop()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_at_same_instant() {
        let mut q = EventQueue::new();
        q.schedule(5, 1);
        q.schedule(5, 2);
        q.schedule(5, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn now_advances_and_clamps() {
        let mut q = EventQueue::new();
        q.schedule(100, "x");
        q.pop();
        assert_eq!(q.now(), 100);
        // Scheduling into the past clamps to now.
        q.schedule(50, "y");
        assert_eq!(q.pop(), Some((100, "y")));
    }

    #[test]
    fn pop_due_stops_at_now() {
        let mut q = EventQueue::new();
        assert_eq!(q.pop_due(100), None, "an empty queue has nothing due");
        q.schedule(100, "due");
        q.schedule(101, "later");
        assert_eq!(q.pop_due(100), Some((100, "due")), "an event at now pops");
        assert_eq!(q.pop_due(100), None, "a later event stays");
        assert_eq!(q.len(), 1);
        assert_eq!(q.now(), 100);
        assert_eq!(q.pop_due(101), Some((101, "later")));
    }

    #[test]
    fn scheduling_at_now_while_draining_goes_last() {
        // A fabric packet re-routed on arrival is rescheduled at the
        // instant being drained: it must follow the arrivals already
        // queued for that instant.
        let mut q = EventQueue::new();
        q.schedule(10, 1);
        q.schedule(10, 2);
        let mut order = Vec::new();
        while let Some((at, e)) = q.pop_due(10) {
            if e == 1 {
                q.schedule(at, 3);
            }
            order.push(e);
        }
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn payload_needs_no_equality() {
        // Entries order on (time, sequence) alone, so a payload such as
        // f64 (no `Eq`) is queued like any other.
        let mut q: EventQueue<f64> = EventQueue::new();
        q.schedule(2, 0.5);
        q.schedule(1, f64::NAN);
        assert!(q.pop().is_some_and(|(at, x)| at == 1 && x.is_nan()));
        assert_eq!(q.pop(), Some((2, 0.5)));
    }
}
