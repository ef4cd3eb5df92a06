//! The one memoisation primitive of the verification path.
//!
//! A [`Memo`] is an epoch counter plus a string-keyed map behind a single
//! lock. Every verification memo — element models and wired graphs
//! ([`crate::ModelCache`]), and the controller's verdict and lint memos —
//! is an instance of it, so there is exactly one invalidation rule to
//! audit:
//!
//! > [`Memo::bump_epoch`] discards every entry, and a value computed under
//! > an older epoch is refused by [`Memo::insert`].
//!
//! The second half is the safety property: a verdict that was being
//! computed while the operator changed policy must not land in the fresh
//! epoch and be replayed against the new rules.
//!
//! Keys are full canonical strings, never digests: a crafted hash
//! collision must not let one tenant's entry answer for another's.

use std::collections::HashMap;
use std::sync::{RwLock, RwLockReadGuard};

/// No memo method runs caller code while holding the lock, so a panic can
/// never poison it.
const UNPOISONED: &str = "memo lock is never held across caller code";

struct Inner<V> {
    epoch: u64,
    entries: HashMap<String, V>,
}

/// An epoch-invalidated, string-keyed memo shared by reference across
/// requests and verification shards. Values are handed out by clone, so
/// `V` is typically an `Arc` or a small report.
pub struct Memo<V> {
    inner: RwLock<Inner<V>>,
}

impl<V> Default for Memo<V> {
    fn default() -> Self {
        Memo {
            inner: RwLock::new(Inner {
                epoch: 0,
                entries: HashMap::new(),
            }),
        }
    }
}

impl<V> std::fmt::Debug for Memo<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.read();
        f.debug_struct("Memo")
            .field("epoch", &inner.epoch)
            .field("len", &inner.entries.len())
            .finish()
    }
}

impl<V> Memo<V> {
    fn read(&self) -> RwLockReadGuard<'_, Inner<V>> {
        self.inner.read().expect(UNPOISONED)
    }

    /// The current invalidation epoch.
    pub fn epoch(&self) -> u64 {
        self.read().epoch
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.read().entries.len()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a value computed under `epoch` (read with [`Memo::epoch`]
    /// *before* the computation started). Refused — returning `false` —
    /// if the epoch has moved on since.
    pub fn insert(&self, epoch: u64, key: String, value: V) -> bool {
        let mut inner = self.inner.write().expect(UNPOISONED);
        let current = epoch == inner.epoch;
        if current {
            inner.entries.insert(key, value);
        }
        current
    }

    /// Starts a new epoch, discarding every entry; returns how many were
    /// discarded.
    pub fn bump_epoch(&self) -> u64 {
        let mut inner = self.inner.write().expect(UNPOISONED);
        inner.epoch += 1;
        let discarded = inner.entries.len() as u64;
        inner.entries.clear();
        discarded
    }
}

impl<V: Clone> Memo<V> {
    /// Looks up a value by its full key.
    pub fn get(&self, key: &str) -> Option<V> {
        self.read().entries.get(key).cloned()
    }

    /// The memoized value for `key`, computing and storing it on first
    /// sight. `compute` runs outside the lock; its value is returned
    /// either way but only stored if no [`Memo::bump_epoch`] intervened.
    /// An `Err` is returned as-is and never cached. The key is copied
    /// only when an entry is stored.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: &str,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let epoch = {
            let inner = self.read();
            if let Some(hit) = inner.entries.get(key) {
                return Ok(hit.clone());
            }
            inner.epoch
        };
        let value = compute()?;
        self.insert(epoch, key.to_owned(), value.clone());
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let memo = Memo::<u32>::default();
        assert!(memo.is_empty());
        assert!(memo.insert(memo.epoch(), "k".to_string(), 7));
        assert_eq!(memo.get("k"), Some(7));
        assert_eq!(memo.get("other"), None);
        assert_eq!(memo.len(), 1);
        // A hit never runs the closure.
        let hit =
            memo.get_or_try_insert_with("k", || -> Result<u32, ()> { panic!("computed on a hit") });
        assert_eq!(hit, Ok(7));
    }

    #[test]
    fn bump_epoch_returns_the_discarded_count() {
        let memo = Memo::<u32>::default();
        memo.insert(0, "a".to_string(), 1);
        memo.insert(0, "b".to_string(), 2);
        assert_eq!(memo.bump_epoch(), 2);
        assert_eq!(memo.len(), 0);
        assert_eq!(memo.epoch(), 1);
        assert_eq!(memo.bump_epoch(), 0);
    }

    #[test]
    fn stale_insert_is_refused() {
        let memo = Memo::<u32>::default();
        let before = memo.epoch();
        memo.bump_epoch();
        assert!(!memo.insert(before, "k".to_string(), 1));
        assert_eq!(memo.len(), 0);
        assert!(memo.insert(memo.epoch(), "k".to_string(), 1));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn value_computed_across_a_bump_does_not_land() {
        // The invalidation arrives while the value is being computed —
        // forced here by bumping from inside the closure, which also
        // proves the lock is not held across it.
        let memo = Memo::<u32>::default();
        let got = memo.get_or_try_insert_with("k", || -> Result<u32, ()> {
            memo.bump_epoch();
            Ok(9)
        });
        assert_eq!(got, Ok(9), "the caller still gets its value");
        assert_eq!(memo.get("k"), None, "but the stale value was not stored");
        // Computed wholly inside the new epoch, it lands.
        assert_eq!(memo.get_or_try_insert_with("k", || Ok::<_, ()>(9)), Ok(9));
        assert_eq!(memo.get("k"), Some(9));
    }

    #[test]
    fn an_error_is_not_cached() {
        let memo = Memo::<u32>::default();
        assert_eq!(
            memo.get_or_try_insert_with("k", || Err::<u32, _>("boom")),
            Err("boom")
        );
        assert!(memo.is_empty());
        assert_eq!(memo.get_or_try_insert_with("k", || Ok::<_, &str>(3)), Ok(3));
        assert_eq!(memo.len(), 1);
    }
}
