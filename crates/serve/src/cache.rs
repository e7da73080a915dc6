//! The LRU session cache.
//!
//! Keyed by the canonical workspace fingerprint
//! (`rpr_format::workspace_fingerprint`), each entry is a
//! [`SessionSlot`] — a mutable [`DeltaSession`] behind an `RwLock`, so
//! `/check`-style readers share it concurrently while `POST /delta`
//! mutates it in place. Entries are shared out as `Arc`s, so an
//! eviction never invalidates a request that is mid-check on the
//! evicted session; the artifacts are freed when the last in-flight
//! user drops its handle.
//!
//! A successful delta changes the session's content fingerprint, and
//! the cache key must follow it: [`rekey`](SessionCache::rekey) moves
//! the entry under its new fingerprint so subsequent lookups (and
//! deltas) address the mutated state. The slot also carries an
//! approximate byte count (the `rpr_session_cache_bytes` gauge),
//! refreshed after every mutation.
//!
//! Recency is tracked with a monotone touch counter instead of a linked
//! list: lookups bump the entry's stamp under the same mutex, and
//! eviction scans for the minimum. The scan is `O(capacity)`, which is
//! fine for the tens-to-hundreds of instances a repair service
//! realistically keeps warm.
//!
//! Lock order: the cache mutex is never held while a slot lock is
//! taken (lookups clone the `Arc` out first), so a delta holding its
//! slot's write lock may call back into [`rekey`](SessionCache::rekey)
//! without deadlock.

use rpr_core::DeltaSession;
use rpr_data::{fingerprint::Fingerprint, FxHashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Whether a lookup was served from the cache or had to build.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheOutcome {
    /// The session was already prepared.
    Hit,
    /// The session was built (and inserted) by this lookup.
    Miss,
}

/// One cache-resident mutable session: the [`DeltaSession`] behind a
/// readers-writer lock, plus its approximate resident byte count
/// (readable without touching the lock, for the cache-size gauge).
pub struct SessionSlot {
    session: RwLock<DeltaSession>,
    bytes: AtomicUsize,
}

impl SessionSlot {
    /// Wraps a prepared session in a shareable slot.
    pub fn new(session: DeltaSession) -> Arc<SessionSlot> {
        let bytes = session.approx_bytes();
        Arc::new(SessionSlot { session: RwLock::new(session), bytes: AtomicUsize::new(bytes) })
    }

    /// Read access for checking requests (many may share the slot).
    pub fn read(&self) -> RwLockReadGuard<'_, DeltaSession> {
        self.session.read().expect("session lock poisoned")
    }

    /// Exclusive access for `POST /delta` mutation.
    pub fn write(&self) -> RwLockWriteGuard<'_, DeltaSession> {
        self.session.write().expect("session lock poisoned")
    }

    /// Refreshes the byte estimate after a mutation (callers already
    /// hold the write guard, so they pass the session in).
    pub fn sync_bytes(&self, session: &DeltaSession) {
        self.bytes.store(session.approx_bytes(), Ordering::Relaxed);
    }

    /// The slot's approximate resident bytes.
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }
}

struct Entry {
    slot: Arc<SessionSlot>,
    stamp: u64,
}

/// An LRU cache of mutable check sessions keyed by workspace
/// fingerprint.
#[must_use = "a session cache does nothing unless lookups go through it"]
pub struct SessionCache {
    inner: Mutex<Inner>,
}

struct Inner {
    entries: FxHashMap<u128, Entry>,
    capacity: usize,
    tick: u64,
    evictions: u64,
}

impl SessionCache {
    /// Creates a cache holding at most `capacity` sessions
    /// (`capacity == 0` disables caching: every lookup misses).
    pub fn new(capacity: usize) -> Self {
        SessionCache {
            inner: Mutex::new(Inner {
                entries: FxHashMap::default(),
                capacity,
                tick: 0,
                evictions: 0,
            }),
        }
    }

    /// Looks up the slot for `key`, building it with `build` on a
    /// miss. The build runs *outside* the cache lock, so a slow
    /// preparation never blocks hits on other keys; if two requests
    /// race on the same cold key, both build and the second insert
    /// wins (they are content-identical, so either result is correct).
    pub fn get_or_build(
        &self,
        key: Fingerprint,
        build: impl FnOnce() -> Arc<SessionSlot>,
    ) -> (Arc<SessionSlot>, CacheOutcome) {
        {
            let mut inner = self.inner.lock().expect("cache lock poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.entries.get_mut(&key.0) {
                entry.stamp = tick;
                return (Arc::clone(&entry.slot), CacheOutcome::Hit);
            }
        }
        let slot = build();
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if inner.capacity > 0 {
            while inner.entries.len() >= inner.capacity && !inner.entries.contains_key(&key.0) {
                let lru = inner
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.stamp)
                    .map(|(&k, _)| k)
                    .expect("non-empty map has a minimum");
                inner.entries.remove(&lru);
                inner.evictions += 1;
            }
            inner.entries.insert(key.0, Entry { slot: Arc::clone(&slot), stamp: tick });
        }
        (slot, CacheOutcome::Miss)
    }

    /// Looks up the slot for `key` without building on a miss (the
    /// `POST /delta` path: a miss is the client's 404, not a rebuild).
    /// A hit bumps the entry's recency stamp.
    pub fn get(&self, key: Fingerprint) -> Option<Arc<SessionSlot>> {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.get_mut(&key.0)?;
        entry.stamp = tick;
        Some(Arc::clone(&entry.slot))
    }

    /// Moves an entry to its post-delta fingerprint so lookups keep
    /// addressing the mutated session. A no-op when `old` is not
    /// cached (the slot was evicted mid-delta; the caller's `Arc`
    /// stays valid, it is just no longer cached). When `new` is
    /// already occupied — the mutation converged on another cached
    /// workspace's content — the moved entry replaces it: both
    /// describe identical content, and the mover is more recent.
    /// Returns whether an entry moved.
    pub fn rekey(&self, old: Fingerprint, new: Fingerprint) -> bool {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let Some(mut entry) = inner.entries.remove(&old.0) else {
            return false;
        };
        entry.stamp = tick;
        inner.entries.insert(new.0, entry);
        true
    }

    /// Number of cached sessions.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock poisoned").entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total evictions so far.
    pub fn evictions(&self) -> u64 {
        self.inner.lock().expect("cache lock poisoned").evictions
    }

    /// Approximate resident bytes across all cached sessions (reads
    /// each slot's atomic estimate; no slot lock is taken).
    pub fn total_bytes(&self) -> u64 {
        let inner = self.inner.lock().expect("cache lock poisoned");
        inner.entries.values().map(|e| e.slot.bytes() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpr_data::{Instance, Signature, Value};
    use rpr_fd::Schema;
    use rpr_priority::{PrioritizedInstance, PriorityRelation};

    fn dummy_session(tag: i64) -> Arc<SessionSlot> {
        let sig = Signature::new([("R", 2)]).unwrap();
        let schema = Schema::from_named(sig.clone(), [("R", &[1][..], &[2][..])]).unwrap();
        let mut instance = Instance::new(sig);
        instance.insert_named("R", [Value::int(tag), Value::sym("x")]).unwrap();
        let priority = PriorityRelation::empty(instance.len());
        let pi = PrioritizedInstance::conflict_restricted(&schema, instance, priority).unwrap();
        SessionSlot::new(DeltaSession::prepare(Arc::new(schema), pi))
    }

    fn key(n: u128) -> Fingerprint {
        Fingerprint(n)
    }

    #[test]
    fn hit_after_miss() {
        let cache = SessionCache::new(4);
        let (_, o1) = cache.get_or_build(key(1), || dummy_session(1));
        let (_, o2) = cache.get_or_build(key(1), || panic!("must not rebuild"));
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::Hit);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = SessionCache::new(2);
        let _ = cache.get_or_build(key(1), || dummy_session(1));
        let _ = cache.get_or_build(key(2), || dummy_session(2));
        // Touch 1 so 2 becomes the LRU.
        let _ = cache.get_or_build(key(1), || panic!("hit expected"));
        let _ = cache.get_or_build(key(3), || dummy_session(3));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        let (_, o) = cache.get_or_build(key(1), || dummy_session(1));
        assert_eq!(o, CacheOutcome::Hit, "1 survived");
        let (_, o) = cache.get_or_build(key(2), || dummy_session(2));
        assert_eq!(o, CacheOutcome::Miss, "2 was evicted");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = SessionCache::new(0);
        let (_, o1) = cache.get_or_build(key(1), || dummy_session(1));
        let (_, o2) = cache.get_or_build(key(1), || dummy_session(1));
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::Miss);
        assert!(cache.is_empty());
    }

    #[test]
    fn evicted_sessions_stay_usable_through_their_arc() {
        let cache = SessionCache::new(1);
        let (held, _) = cache.get_or_build(key(1), || dummy_session(1));
        let _ = cache.get_or_build(key(2), || dummy_session(2));
        // `held` was evicted but its Arc keeps the artifacts alive.
        let session = held.read();
        let j = session.prioritized().instance().full_set();
        assert!(session.session().check(&j).is_optimal());
    }

    #[test]
    fn rekey_moves_the_entry_and_its_recency() {
        let cache = SessionCache::new(4);
        let (slot, _) = cache.get_or_build(key(1), || dummy_session(1));
        assert!(cache.rekey(key(1), key(9)));
        assert!(cache.get(key(1)).is_none(), "old key must be gone");
        let again = cache.get(key(9)).expect("entry lives under the new key");
        assert!(Arc::ptr_eq(&slot, &again));
        // Rekeying a missing key is a counted no-op.
        assert!(!cache.rekey(key(1), key(2)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn total_bytes_tracks_slots() {
        let cache = SessionCache::new(4);
        assert_eq!(cache.total_bytes(), 0);
        let (slot, _) = cache.get_or_build(key(1), || dummy_session(1));
        assert_eq!(cache.total_bytes(), slot.bytes() as u64);
        assert!(slot.bytes() > 0, "a non-empty session has a size estimate");
        let (slot2, _) = cache.get_or_build(key(2), || dummy_session(2));
        assert_eq!(cache.total_bytes(), (slot.bytes() + slot2.bytes()) as u64);
    }
}
