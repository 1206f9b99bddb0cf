//! Generic sharded memo with single-flight computation.
//!
//! Both memo layers of the workspace — [`SimMemo`](crate::memo::SimMemo)
//! over representative-core simulations and `clover_core`'s `SweepMemo`
//! over analytic scaling points — share the same concurrency problem: many
//! workers look up overlapping keys, a miss triggers an expensive pure
//! computation, and the caches must stay exact (a hit returns the
//! bit-identical value the computation would produce).
//!
//! The first-generation implementation ("simulate outside the lock, first
//! insert wins") was correct on values but wasteful and *inexact on
//! statistics*: two workers racing on the same key both simulated and both
//! counted a miss, so the duplicate simulation burned CPU and the reported
//! hit rate undercounted sharing.  This module replaces it with
//! **single-flight** lookups:
//!
//! * the first worker to miss a key becomes its *leader*: it publishes an
//!   in-flight marker, runs the computation outside every lock and
//!   completes the marker with the value;
//! * every other worker arriving while the computation runs becomes a
//!   *waiter*: it blocks on the marker and is handed the leader's value —
//!   one computation, N waiters, and exactly one `miss` plus N `hits`
//!   counted;
//! * a leader that panics abandons the marker: waiters wake, retry, and
//!   one of them becomes the new leader, so a poisoned key never wedges
//!   the memo.
//!
//! Lookups and inserts lock only the shard a key hashes to; waiting uses a
//! per-flight `Mutex`/`Condvar` pair so a slow computation never blocks
//! the shard.  Exact hit/miss accounting under concurrency is asserted by
//! a tier-1 proptest.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

use parking_lot::Mutex;

/// Number of independent shards; a small power of two keeps the map
/// contention-free for any realistic worker count without wasting memory.
const SHARDS: usize = 16;

/// State of one in-flight computation.
enum FlightState<V> {
    /// The leader is still computing.
    Running,
    /// The leader finished; waiters take a clone.
    Done(V),
    /// The leader panicked; waiters must retry (and may become leaders).
    Abandoned,
}

/// One in-flight computation: a state cell plus the condvar its waiters
/// block on.  `std::sync` primitives are used (not the vendored
/// `parking_lot` subset, which has no condvar); only the leader ever
/// mutates the state, so lock poisoning cannot occur in practice.
struct Flight<V> {
    state: StdMutex<FlightState<V>>,
    cv: Condvar,
}

impl<V: Clone> Flight<V> {
    fn new() -> Self {
        Self {
            state: StdMutex::new(FlightState::Running),
            cv: Condvar::new(),
        }
    }

    /// Block until the leader resolves the flight.  `Some(value)` on
    /// completion, `None` when the leader abandoned (panicked).
    fn wait(&self) -> Option<V> {
        let mut state = self.state.lock().expect("flight state never poisoned");
        loop {
            match &*state {
                FlightState::Done(v) => return Some(v.clone()),
                FlightState::Abandoned => return None,
                FlightState::Running => {
                    state = self.cv.wait(state).expect("flight state never poisoned");
                }
            }
        }
    }

    fn resolve(&self, outcome: FlightState<V>) {
        *self.state.lock().expect("flight state never poisoned") = outcome;
        self.cv.notify_all();
    }
}

/// A key's slot in a shard map.
enum Slot<V> {
    /// Value published; hits clone it.  The `u64` is the entry's access
    /// stamp: the memo-wide clock value of its most recent touch (compute,
    /// hit or `get`).  Preloaded entries start at stamp 0, so entries
    /// warm-loaded from disk and never used again are the first candidates
    /// a capped persistence pass evicts.
    Ready(V, u64),
    /// A leader is computing it right now.
    InFlight(Arc<Flight<V>>),
}

/// Sharded concurrent memo with single-flight computation and exact
/// hit/miss statistics.  See the module docs for the concurrency contract.
pub struct FlightMemo<K, V> {
    shards: [Mutex<HashMap<K, Slot<V>>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    /// Monotonic access clock; every publish or touch of a `Ready` slot
    /// takes the next value.  Purely in-memory (never persisted): it only
    /// orders entries by recency for capped persistence passes.
    clock: AtomicU64,
}

impl<K, V> Default for FlightMemo<K, V> {
    fn default() -> Self {
        Self {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            clock: AtomicU64::new(0),
        }
    }
}

impl<K, V> std::fmt::Debug for FlightMemo<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightMemo")
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Drop guard of a flight leader: on a panic in the computation it removes
/// the in-flight marker and wakes the waiters so one of them can retry as
/// the new leader.
struct LeaderGuard<'a, K: Hash + Eq + Clone, V: Clone> {
    memo: &'a FlightMemo<K, V>,
    key: Option<K>,
    flight: Arc<Flight<V>>,
}

impl<K: Hash + Eq + Clone, V: Clone> Drop for LeaderGuard<'_, K, V> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.memo.shard_of(&key).lock().remove(&key);
            self.flight.resolve(FlightState::Abandoned);
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> FlightMemo<K, V> {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard_of(&self, key: &K) -> &Mutex<HashMap<K, Slot<V>>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    /// Next access-clock value.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Look up `key`, computing it with `compute` on a miss.  The
    /// computation runs outside every lock; concurrent lookups of the same
    /// key wait for the one in-flight computation instead of repeating it,
    /// and are counted as hits (exactly one miss is counted per distinct
    /// key actually computed).
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        // `compute` is called at most once: only a leader consumes it, and
        // a waiter re-enters the loop as leader only after its previous
        // leader abandoned without calling it on this thread.
        let mut compute = Some(compute);
        loop {
            let flight = {
                let mut shard = self.shard_of(&key).lock();
                match shard.get_mut(&key) {
                    Some(Slot::Ready(v, stamp)) => {
                        *stamp = self.tick();
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return v.clone();
                    }
                    Some(Slot::InFlight(flight)) => Arc::clone(flight),
                    None => {
                        let flight = Arc::new(Flight::new());
                        shard.insert(key.clone(), Slot::InFlight(Arc::clone(&flight)));
                        drop(shard);
                        // Leader path: compute outside the shard lock, with
                        // a guard that abandons the flight on panic.
                        let mut guard = LeaderGuard {
                            memo: self,
                            key: Some(key.clone()),
                            flight: Arc::clone(&flight),
                        };
                        let value = (compute.take().expect("leader computes once"))();
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        let guard_key = guard.key.take().expect("guard armed until here");
                        let stamp = self.tick();
                        self.shard_of(&guard_key)
                            .lock()
                            .insert(guard_key, Slot::Ready(value.clone(), stamp));
                        flight.resolve(FlightState::Done(value.clone()));
                        return value;
                    }
                }
            };
            // Waiter path: block on the flight outside the shard lock.  A
            // completed flight is a hit (the memo saved this computation);
            // an abandoned one sends us back to race for leadership.
            if let Some(value) = flight.wait() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return value;
            }
        }
    }

    /// Value of `key`, if already computed and published.  Counts as an
    /// access: the entry's recency stamp is refreshed.
    pub fn get(&self, key: &K) -> Option<V> {
        match self.shard_of(key).lock().get_mut(key) {
            Some(Slot::Ready(v, stamp)) => {
                *stamp = self.tick();
                Some(v.clone())
            }
            _ => None,
        }
    }

    /// Number of published (fully computed) entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .values()
                    .filter(|slot| matches!(slot, Slot::Ready(..)))
                    .count()
            })
            .sum()
    }

    /// True when nothing is published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` since construction.  Waiters of an in-flight
    /// computation count as hits, so `misses` is exactly the number of
    /// computations run.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Snapshot every published entry together with its access stamp (the
    /// memo-wide clock value of its most recent touch; 0 for preloaded
    /// entries never accessed since), for persistence.  Higher stamp ⇒
    /// more recently used; a capped persistence pass keeps the
    /// highest-stamped entries.  In-flight computations are skipped; the
    /// snapshot order is unspecified.
    pub fn entries_stamped(&self) -> Vec<(K, V, u64)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (key, slot) in shard.lock().iter() {
                if let Slot::Ready(v, stamp) = slot {
                    out.push((key.clone(), v.clone(), *stamp));
                }
            }
        }
        out
    }

    /// Publish previously snapshotted entries (warm-loading a persisted
    /// store).  Keys that are already present — published or in flight —
    /// are left untouched, and the hit/miss statistics are not changed:
    /// preloaded entries only show up as hits once something looks them
    /// up.
    pub fn preload(&self, entries: impl IntoIterator<Item = (K, V)>) {
        for (key, value) in entries {
            let mut shard = self.shard_of(&key).lock();
            // Stamp 0: a preloaded entry nothing ever touches again sorts
            // behind every computed or hit entry when a capped save evicts.
            shard.entry(key).or_insert(Slot::Ready(value, 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn sequential_hit_miss_accounting() {
        let memo: FlightMemo<u32, u64> = FlightMemo::new();
        assert_eq!(memo.get_or_insert_with(7, || 70), 70);
        assert_eq!(memo.get_or_insert_with(7, || unreachable!()), 70);
        assert_eq!(memo.get_or_insert_with(8, || 80), 80);
        assert_eq!(memo.stats(), (1, 2));
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.get(&7), Some(70));
        assert_eq!(memo.get(&9), None);
    }

    #[test]
    fn racing_lookups_compute_once_and_count_exactly() {
        // All threads hit the same key at the same time: exactly one
        // computation runs, everyone gets its value, and the stats are
        // exactly (threads - 1) hits + 1 miss.
        const THREADS: usize = 8;
        let memo: FlightMemo<u32, u64> = FlightMemo::new();
        let computed = AtomicUsize::new(0);
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    barrier.wait();
                    let v = memo.get_or_insert_with(42, || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so waiters actually wait.
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        4242
                    });
                    assert_eq!(v, 4242);
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "single flight");
        assert_eq!(memo.stats(), ((THREADS - 1) as u64, 1));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn abandoned_flight_is_retried_by_a_waiter() {
        let memo: FlightMemo<u32, u64> = FlightMemo::new();
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            let leader = scope.spawn(|| {
                let memo = &memo;
                let barrier = &barrier;
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    memo.get_or_insert_with(1, || {
                        barrier.wait();
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        panic!("leader dies mid-flight");
                    })
                }));
                assert!(result.is_err());
            });
            let waiter = scope.spawn(|| {
                barrier.wait(); // the leader is now inside its computation
                memo.get_or_insert_with(1, || 11)
            });
            assert_eq!(waiter.join().unwrap(), 11);
            leader.join().unwrap();
        });
        // The successful retry is the one counted miss; the panicked
        // leader counted nothing.
        assert_eq!(memo.stats().1, 1);
        assert_eq!(memo.get(&1), Some(11));
    }

    #[test]
    fn preload_publishes_without_touching_stats() {
        let memo: FlightMemo<u32, u64> = FlightMemo::new();
        memo.preload([(1, 10), (2, 20)]);
        assert_eq!(memo.stats(), (0, 0));
        assert_eq!(memo.len(), 2);
        assert_eq!(memo.get_or_insert_with(1, || unreachable!()), 10);
        assert_eq!(memo.stats(), (1, 0));
        // Preload never clobbers an existing entry.
        memo.preload([(1, 999)]);
        assert_eq!(memo.get(&1), Some(10));
    }

    #[test]
    fn access_stamps_order_entries_by_recency() {
        let memo: FlightMemo<u32, u64> = FlightMemo::new();
        memo.preload([(1, 10)]);
        memo.get_or_insert_with(2, || 20);
        memo.get_or_insert_with(3, || 30);
        let stamp_of = |memo: &FlightMemo<u32, u64>, key: u32| {
            memo.entries_stamped()
                .into_iter()
                .find(|(k, _, _)| *k == key)
                .map(|(_, _, s)| s)
                .unwrap()
        };
        // Untouched preloads sit at stamp 0; computes take increasing stamps.
        assert_eq!(stamp_of(&memo, 1), 0);
        assert!(stamp_of(&memo, 2) < stamp_of(&memo, 3));
        // A hit refreshes the stamp past every earlier access...
        memo.get_or_insert_with(2, || unreachable!());
        assert!(stamp_of(&memo, 2) > stamp_of(&memo, 3));
        // ...and so does a plain `get`.
        assert_eq!(memo.get(&1), Some(10));
        assert!(stamp_of(&memo, 1) > stamp_of(&memo, 2));
    }

    #[test]
    fn entries_round_trip_through_preload() {
        let memo: FlightMemo<String, u64> = FlightMemo::new();
        for i in 0..50u64 {
            memo.get_or_insert_with(format!("k{i}"), || i * i);
        }
        let sorted = |memo: &FlightMemo<String, u64>| {
            let mut entries: Vec<(String, u64)> = memo
                .entries_stamped()
                .into_iter()
                .map(|(k, v, _)| (k, v))
                .collect();
            entries.sort();
            entries
        };
        let snapshot = sorted(&memo);
        assert_eq!(snapshot.len(), 50);
        let restored: FlightMemo<String, u64> = FlightMemo::new();
        restored.preload(snapshot.clone());
        assert_eq!(snapshot, sorted(&restored));
        assert_eq!(
            restored.get_or_insert_with("k7".into(), || unreachable!()),
            49
        );
    }
}
