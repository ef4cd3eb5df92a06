//! Queueing elements: `Queue` and the batcher `TimedUnqueue`.

use std::collections::VecDeque;

use innet_packet::Packet;

use crate::{
    args::ConfigArgs,
    element::{Context, Element, ElementError, PortCount, Sink},
};

/// `Queue([CAPACITY])` — stores packets (tail-dropping beyond capacity,
/// default 1000) and releases everything stored on each tick.
#[derive(Debug)]
pub struct Queue {
    q: VecDeque<Packet>,
    cap: usize,
    dropped: u64,
    has_pending: bool,
}

impl Queue {
    /// Parses `Queue([CAPACITY])`.
    pub fn from_args(args: &ConfigArgs) -> Result<Queue, ElementError> {
        args.expect_len_range(0, 1)?;
        let cap: usize = args.parse_or(0, 1000)?;
        Ok(Queue {
            q: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
            has_pending: false,
        })
    }

    /// Packets currently stored.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Packets tail-dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Element for Queue {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, pkt: Packet, _ctx: &Context, _out: &mut dyn Sink) {
        if self.q.len() < self.cap {
            self.q.push_back(pkt);
            self.has_pending = true;
        } else {
            self.dropped += 1;
        }
    }

    fn tick(&mut self, _ctx: &Context, out: &mut dyn Sink) {
        while let Some(pkt) = self.q.pop_front() {
            out.push(0, pkt);
        }
        self.has_pending = false;
    }

    fn next_tick_ns(&self) -> Option<u64> {
        // Ready as soon as anything is queued.
        if self.has_pending {
            Some(0)
        } else {
            None
        }
    }
}

/// `TimedUnqueue(INTERVAL_S[, BURST])` — the paper's batcher: stores
/// packets and releases up to `BURST` of them every `INTERVAL_S` seconds
/// (fractional seconds accepted; default burst 1).
///
/// The push-notification use case (paper §4.5 and Figure 13) instantiates
/// `TimedUnqueue(120, 100)` so a mobile device's radio only wakes every two
/// minutes.
#[derive(Debug)]
pub struct TimedUnqueue {
    interval_ns: u64,
    burst: usize,
    q: VecDeque<Packet>,
    /// Next scheduled release, set when the first packet arrives.
    next_release_ns: Option<u64>,
    /// Releases performed (for tests and the energy model).
    pub releases: u64,
}

impl TimedUnqueue {
    /// Creates a batcher with the given interval and burst.
    pub fn new(interval_ns: u64, burst: usize) -> TimedUnqueue {
        TimedUnqueue {
            interval_ns: interval_ns.max(1),
            burst: burst.max(1),
            q: VecDeque::new(),
            next_release_ns: None,
            releases: 0,
        }
    }

    /// Parses `TimedUnqueue(INTERVAL_S[, BURST])`.
    pub fn from_args(args: &ConfigArgs) -> Result<TimedUnqueue, ElementError> {
        args.expect_len_range(1, 2)?;
        let interval_s: f64 = args.parse_at(0)?;
        if interval_s <= 0.0 {
            return Err(ElementError::BadArgs {
                class: "TimedUnqueue",
                message: "interval must be positive".to_string(),
            });
        }
        let burst: usize = args.parse_or(1, 1)?;
        Ok(TimedUnqueue::new((interval_s * 1e9) as u64, burst))
    }

    /// Packets currently held.
    pub fn queued(&self) -> usize {
        self.q.len()
    }

    /// The configured batching interval in nanoseconds.
    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }
}

impl Element for TimedUnqueue {
    fn ports(&self) -> PortCount {
        PortCount::ONE_ONE
    }

    fn push(&mut self, _port: usize, pkt: Packet, ctx: &Context, _out: &mut dyn Sink) {
        if self.next_release_ns.is_none() {
            self.next_release_ns = Some(ctx.now_ns + self.interval_ns);
        }
        self.q.push_back(pkt);
    }

    fn tick(&mut self, ctx: &Context, out: &mut dyn Sink) {
        let Some(next) = self.next_release_ns else {
            return;
        };
        if ctx.now_ns < next {
            return;
        }
        self.releases += 1;
        for _ in 0..self.burst {
            match self.q.pop_front() {
                Some(pkt) => out.push(0, pkt),
                None => break,
            }
        }
        self.next_release_ns = if self.q.is_empty() {
            None
        } else {
            Some(ctx.now_ns + self.interval_ns)
        };
    }

    fn next_tick_ns(&self) -> Option<u64> {
        self.next_release_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::VecSink;
    use innet_packet::PacketBuilder;

    #[test]
    fn queue_stores_and_releases_on_tick() {
        let mut q = Queue::from_args(&ConfigArgs::parse("Queue", "")).unwrap();
        let mut s = VecSink::new();
        q.push(0, PacketBuilder::udp().build(), &Context::at(0), &mut s);
        q.push(0, PacketBuilder::udp().build(), &Context::at(0), &mut s);
        assert!(s.pushed.is_empty());
        assert_eq!(q.len(), 2);
        q.tick(&Context::at(1), &mut s);
        assert_eq!(s.pushed.len(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn queue_tail_drop() {
        let mut q = Queue::from_args(&ConfigArgs::parse("Queue", "2")).unwrap();
        let mut s = VecSink::new();
        for _ in 0..5 {
            q.push(0, PacketBuilder::udp().build(), &Context::at(0), &mut s);
        }
        assert_eq!(q.len(), 2);
        assert_eq!(q.dropped(), 3);
    }

    #[test]
    fn timed_unqueue_batches() {
        // 2-second interval, burst 3.
        let mut tu = TimedUnqueue::from_args(&ConfigArgs::parse("TimedUnqueue", "2, 3")).unwrap();
        let mut s = VecSink::new();
        for _ in 0..5 {
            tu.push(0, PacketBuilder::udp().build(), &Context::at(0), &mut s);
        }
        assert_eq!(tu.next_tick_ns(), Some(2_000_000_000));
        // Too early: nothing released.
        tu.tick(&Context::at(1_000_000_000), &mut s);
        assert!(s.pushed.is_empty());
        // First release: burst of 3.
        tu.tick(&Context::at(2_000_000_000), &mut s);
        assert_eq!(s.pushed.len(), 3);
        assert_eq!(tu.queued(), 2);
        // Second release empties it.
        tu.tick(&Context::at(4_000_000_000), &mut s);
        assert_eq!(s.pushed.len(), 5);
        assert_eq!(tu.next_tick_ns(), None);
        assert_eq!(tu.releases, 2);
    }

    #[test]
    fn fractional_interval() {
        let tu = TimedUnqueue::from_args(&ConfigArgs::parse("TimedUnqueue", "0.5")).unwrap();
        assert_eq!(tu.interval_ns(), 500_000_000);
    }

    #[test]
    fn bad_interval_rejected() {
        assert!(TimedUnqueue::from_args(&ConfigArgs::parse("TimedUnqueue", "0")).is_err());
        assert!(TimedUnqueue::from_args(&ConfigArgs::parse("TimedUnqueue", "")).is_err());
    }
}
