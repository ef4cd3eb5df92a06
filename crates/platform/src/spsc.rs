//! Bounded single-producer single-consumer rings for the parallel runner.
//!
//! The dispatcher thread feeds each worker through one of these rings, the
//! software analogue of an RSS NIC queue: bounded (so a slow worker
//! back-pressures the producer instead of ballooning memory) and strictly
//! FIFO (so per-flow packet order survives the trip). Under
//! `#![forbid(unsafe_code)]` a lock-free ring is off the table; a
//! mutex-plus-condvar queue is plenty for batch-granularity hand-off, where
//! lock traffic is one acquisition per *batch*, not per packet.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    /// Signalled when the queue drains below capacity (producer waits).
    not_full: Condvar,
    /// Signalled when an item arrives or the producer hangs up
    /// (consumer waits).
    not_empty: Condvar,
}

struct Inner<T> {
    queue: VecDeque<T>,
    capacity: usize,
    /// The producer has been dropped; drain and stop.
    closed: bool,
    /// The consumer has been dropped; sends can never succeed again.
    abandoned: bool,
}

/// The producer half of a bounded SPSC ring.
pub struct RingSender<T> {
    shared: Arc<Shared<T>>,
}

/// The consumer half of a bounded SPSC ring.
pub struct RingReceiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded ring with room for `capacity` items.
pub fn ring<T>(capacity: usize) -> (RingSender<T>, RingReceiver<T>) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            closed: false,
            abandoned: false,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
    });
    (
        RingSender {
            shared: Arc::clone(&shared),
        },
        RingReceiver { shared },
    )
}

impl<T> RingSender<T> {
    /// Enqueues `item`, blocking while the ring is full (lossless
    /// backpressure). Returns the item if the receiver is gone.
    pub fn send(&self, item: T) -> Result<(), T> {
        let mut inner = self.shared.inner.lock().expect("ring poisoned");
        loop {
            if inner.abandoned {
                return Err(item);
            }
            if inner.queue.len() < inner.capacity {
                inner.queue.push_back(item);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            inner = self.shared.not_full.wait(inner).expect("ring poisoned");
        }
    }

    /// Items currently queued (for queue-depth gauges).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.shared.inner.lock().expect("ring poisoned").queue.len()
    }
}

impl<T> Drop for RingSender<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().expect("ring poisoned");
        inner.closed = true;
        self.shared.not_empty.notify_one();
    }
}

impl<T> RingReceiver<T> {
    /// Dequeues the next item, blocking while the ring is empty.
    /// Returns `None` once the producer is gone *and* the ring has
    /// drained — every sent item is still delivered.
    pub fn recv(&self) -> Option<T> {
        let mut inner = self.shared.inner.lock().expect("ring poisoned");
        loop {
            if let Some(item) = inner.queue.pop_front() {
                self.shared.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.shared.not_empty.wait(inner).expect("ring poisoned");
        }
    }
}

impl<T> Drop for RingReceiver<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().expect("ring poisoned");
        inner.abandoned = true;
        self.shared.not_full.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let (tx, rx) = ring::<u32>(4);
        assert_eq!(tx.len(), 0);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        assert_eq!(tx.len(), 4);
        for i in 0..4 {
            assert_eq!(rx.recv(), Some(i));
        }
    }

    #[test]
    fn recv_drains_after_sender_drops() {
        let (tx, rx) = ring::<u32>(8);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn send_fails_when_receiver_gone() {
        let (tx, rx) = ring::<u32>(1);
        drop(rx);
        assert_eq!(tx.send(7), Err(7));
    }

    #[test]
    fn blocking_send_wakes_on_recv() {
        let (tx, rx) = ring::<u32>(1);
        tx.send(0).unwrap();
        std::thread::scope(|s| {
            let h = s.spawn(move || tx.send(1));
            // The producer is blocked on a full ring until we consume.
            assert_eq!(rx.recv(), Some(0));
            h.join().unwrap().unwrap();
            assert_eq!(rx.recv(), Some(1));
        });
    }
}
