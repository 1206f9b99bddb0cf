//! Generic sharded memo with single-flight computation.
//!
//! Both memo layers of the workspace — [`SimMemo`](crate::memo::SimMemo)
//! over representative-core simulations and `clover_core`'s `SweepMemo`
//! over rank curves of analytic scaling points — share the same
//! concurrency problem: many workers look up overlapping keys, a miss
//! triggers a pure computation, and the caches must stay exact (a hit
//! returns the bit-identical value the computation would produce, and the
//! hit/miss statistics count computations, not races).  Lookups are
//! **single-flight**:
//!
//! * the first worker to miss a key becomes its *leader*: it leaves an
//!   in-flight marker in the key's slot, runs the computation outside every
//!   lock and replaces the marker with the value;
//! * every other worker arriving while the computation runs is a *waiter*:
//!   it counts itself on the marker, sleeps, and is handed the leader's
//!   value — one computation, N waiters, exactly one `miss` plus N `hits`;
//! * a leader that panics removes its marker on the way out: its waiters
//!   wake, find the slot empty, and one of them becomes the new leader, so
//!   a poisoned key never wedges the memo.
//!
//! What a lookup costs beyond the computation must stay small beside what
//! one key holds: a co-run pass (milliseconds) for `SimMemo`, and for
//! `SweepMemo` a rank curve, which a run of up to 64 analytic points
//! (≈ 0.25 µs of model each) looks up once — the points themselves sit in
//! the curve's slots, outside this map:
//!
//! * **The marker is a counter, not an object.**  An in-flight slot is
//!   `InFlight { waiters }` in the shard map itself; there is no per-flight
//!   allocation, mutex or condition variable.
//! * **One condition variable per shard.**  Waiters of every key of a shard
//!   sleep on the shard's condvar, under the shard's lock (`std::sync`: the
//!   condvar needs the guard).  A resolving leader signals it only when its
//!   marker counted a waiter, so an uncontended miss makes no system call;
//!   a waiter woken by another key's leader finds its own marker still
//!   there, counts itself again and goes back to sleep.
//! * **One keyed hash per lookup.**  The key is hashed once, with the
//!   memo's own [`RandomState`] (SipHash-1-3 under a per-memo random key).
//!   The hash picks the shard, travels into the shard map inside the stored
//!   key (`Hashed`) and is handed back verbatim by the map's pass-through
//!   hasher, so neither the marker insert, nor the leader's re-find of its
//!   slot, nor a growing map hashes the key again.  The leader keeps the
//!   caller's key to re-find the slot with: a miss clones the key once and
//!   the value once.
//!
//! SipHash stays although it is the largest part of a hit (`SweepMemo`
//! pays it once per curve, not once per point): the keys are request
//! axes, chosen by whoever can reach the daemon's socket.  An unkeyed or
//! non-cryptographic hash would let a client craft keys that collide into
//! one bucket chain of one shard and turn every worker's lookups into a
//! linear scan under one lock — the service-level twin of a shared-cache
//! denial of service.
//!
//! Exact hit/miss accounting under concurrency is asserted by a tier-1
//! proptest (`tests/service_store.rs`).

use std::borrow::Borrow;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, LockResult, Mutex, PoisonError};

/// Number of independent shards; a small power of two keeps the map
/// contention-free for any realistic worker count without wasting memory.
const SHARDS: usize = 16;

/// A key together with its keyed hash: what a shard map stores (`K` owned)
/// and what it is probed with (`K` a reference, through [`Lookup`]).
struct Hashed<K> {
    hash: u64,
    key: K,
}

/// The view a shard map is probed through, so that a lookup borrows the
/// caller's key instead of cloning it into a `Hashed<K>`.
trait Lookup<K> {
    fn hash64(&self) -> u64;
    fn key(&self) -> &K;
}

impl<K> Lookup<K> for Hashed<K> {
    fn hash64(&self) -> u64 {
        self.hash
    }
    fn key(&self) -> &K {
        &self.key
    }
}

impl<K> Lookup<K> for Hashed<&K> {
    fn hash64(&self) -> u64 {
        self.hash
    }
    fn key(&self) -> &K {
        self.key
    }
}

impl<'a, K: 'a> Borrow<dyn Lookup<K> + 'a> for Hashed<K> {
    fn borrow(&self) -> &(dyn Lookup<K> + 'a) {
        self
    }
}

// `Hashed<K>` and its borrowed view hash and compare alike, as `Borrow`
// requires: by the stored hash, then by the key.
impl<K> Hash for dyn Lookup<K> + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash64());
    }
}

impl<K: Eq> PartialEq for dyn Lookup<K> + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.hash64() == other.hash64() && self.key() == other.key()
    }
}

impl<K: Eq> Eq for dyn Lookup<K> + '_ {}

impl<K> Hash for Hashed<K> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl<K: Eq> PartialEq for Hashed<K> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}

impl<K: Eq> Eq for Hashed<K> {}

/// The shard maps' hasher: hands back the hash a [`Hashed`] key carries.
#[derive(Default)]
struct StoredHash(u64);

impl Hasher for StoredHash {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a shard-map key hashes as the one u64 it stores");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A key's slot in a shard map.
enum Slot<V> {
    /// Value published; hits clone it.  The `u64` is the entry's access
    /// stamp: the memo-wide clock value of its most recent touch (compute
    /// or hit).  Preloaded entries start at stamp 0, so entries
    /// warm-loaded from disk and never used again are the first candidates
    /// a capped persistence pass evicts.
    Ready(V, u64),
    /// A leader is computing it right now; `waiters` counts the times a
    /// lookup went to sleep on this marker (zero ⇒ nobody to wake).
    InFlight { waiters: u32 },
}

/// What a shard's lock protects.
struct ShardState<K, V> {
    map: HashMap<Hashed<K>, Slot<V>, BuildHasherDefault<StoredHash>>,
    /// Number of `Ready` slots in `map`.
    ready: usize,
}

struct Shard<K, V> {
    state: Mutex<ShardState<K, V>>,
    /// Where the waiters of every in-flight key of the shard sleep.
    resolved: Condvar,
}

/// The guard of a shard lock or condvar wait, poisoned or not.  Every
/// update of a shard is one insert, replace or remove, valid at every step,
/// so a panic under the lock (a `Clone` impl's) leaves nothing to refuse.
fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Sharded concurrent memo with single-flight computation and exact
/// hit/miss statistics.  See the module docs for the concurrency contract.
pub struct FlightMemo<K, V> {
    shards: [Shard<K, V>; SHARDS],
    /// Keyed hasher of every lookup, random per memo.
    hasher: RandomState,
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
            shards: std::array::from_fn(|_| Shard {
                state: Mutex::new(ShardState {
                    map: HashMap::default(),
                    ready: 0,
                }),
                resolved: Condvar::new(),
            }),
            hasher: RandomState::new(),
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

/// Held by a flight leader while it computes: dropped by a panic in the
/// computation, it removes the in-flight marker and wakes the waiters, one
/// of which retries as the new leader.
struct AbandonOnUnwind<'a, K: Eq, V> {
    shard: &'a Shard<K, V>,
    probe: &'a Hashed<&'a K>,
}

impl<K: Eq, V> Drop for AbandonOnUnwind<'_, K, V> {
    fn drop(&mut self) {
        let marker = recover(self.shard.state.lock())
            .map
            .remove(self.probe as &dyn Lookup<K>);
        if let Some(Slot::InFlight { waiters: 1.. }) = marker {
            self.shard.resolved.notify_all();
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> FlightMemo<K, V> {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// `key` with its one keyed hash of this lookup.
    fn probe<'k>(&self, key: &'k K) -> Hashed<&'k K> {
        Hashed {
            hash: self.hasher.hash_one(key),
            key,
        }
    }

    /// The shard of a hash.  A shard's map buckets by the low bits of the
    /// same hash and tags by the top seven; the shard index takes bits in
    /// between, or every key of a shard would share its low bucket bits.
    fn shard(&self, hash: u64) -> &Shard<K, V> {
        &self.shards[(hash >> 48) as usize % SHARDS]
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
        let probe = self.probe(&key);
        let shard = self.shard(probe.hash);
        let mut state = recover(shard.state.lock());
        loop {
            match state.map.get_mut(&probe as &dyn Lookup<K>) {
                Some(Slot::Ready(v, stamp)) => {
                    // Computed earlier, or by the leader this lookup slept
                    // on: either way the memo saved a computation.
                    *stamp = self.tick();
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return v.clone();
                }
                Some(Slot::InFlight { waiters }) => {
                    *waiters += 1;
                    state = recover(shard.resolved.wait(state));
                }
                // Never computed, or abandoned by a leader that panicked.
                None => break,
            }
        }
        let marker = Hashed {
            hash: probe.hash,
            key: key.clone(),
        };
        state.map.insert(marker, Slot::InFlight { waiters: 0 });
        drop(state);

        let abandon = AbandonOnUnwind {
            shard,
            probe: &probe,
        };
        let value = compute();
        self.misses.fetch_add(1, Ordering::Relaxed);
        let published = Slot::Ready(value.clone(), self.tick());
        let mut state = recover(shard.state.lock());
        let slot = state
            .map
            .get_mut(&probe as &dyn Lookup<K>)
            .expect("only its leader removes an in-flight marker");
        let Slot::InFlight { waiters } = std::mem::replace(slot, published) else {
            unreachable!("only its leader resolves an in-flight marker");
        };
        state.ready += 1;
        drop(state);
        std::mem::forget(abandon);
        if waiters > 0 {
            shard.resolved.notify_all();
        }
        value
    }

    /// Number of published (fully computed) entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| recover(shard.state.lock()).ready)
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
            for (hashed, slot) in recover(shard.state.lock()).map.iter() {
                if let Slot::Ready(v, stamp) = slot {
                    out.push((hashed.key.clone(), v.clone(), *stamp));
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
            let hash = self.hasher.hash_one(&key);
            let mut state = recover(self.shard(hash).state.lock());
            if let Entry::Vacant(slot) = state.map.entry(Hashed { hash, key }) {
                // Stamp 0: a preloaded entry nothing ever touches again sorts
                // behind every computed or hit entry when a capped save evicts.
                slot.insert(Slot::Ready(value, 0));
                state.ready += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    /// The published value of `key`, read off a snapshot: no access, no
    /// stamp, no statistic.
    fn published<K: Hash + Eq + Clone, V: Clone>(memo: &FlightMemo<K, V>, key: &K) -> Option<V> {
        memo.entries_stamped()
            .into_iter()
            .find(|(k, _, _)| k == key)
            .map(|(_, v, _)| v)
    }

    #[test]
    fn sequential_hit_miss_accounting() {
        let memo: FlightMemo<u32, u64> = FlightMemo::new();
        assert_eq!(memo.get_or_insert_with(7, || 70), 70);
        assert_eq!(memo.get_or_insert_with(7, || unreachable!()), 70);
        assert_eq!(memo.get_or_insert_with(8, || 80), 80);
        assert_eq!(memo.stats(), (1, 2));
        assert_eq!(memo.len(), 2);
        assert_eq!(published(&memo, &7), Some(70));
        assert_eq!(published(&memo, &9), None);
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
        assert_eq!(published(&memo, &1), Some(11));
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
        assert_eq!(published(&memo, &1), Some(10));
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
        // A hit refreshes the stamp past every earlier access.
        memo.get_or_insert_with(2, || unreachable!());
        assert!(stamp_of(&memo, 2) > stamp_of(&memo, 3));
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

    thread_local! {
        /// Times a `Counted` key was hashed on this thread.
        static KEY_HASHES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    #[derive(Clone, PartialEq, Eq)]
    struct Counted(u32);

    impl Hash for Counted {
        fn hash<H: Hasher>(&self, state: &mut H) {
            KEY_HASHES.with(|n| n.set(n.get() + 1));
            self.0.hash(state);
        }
    }

    #[test]
    fn every_lookup_hashes_its_key_exactly_once() {
        let memo: FlightMemo<Counted, u64> = FlightMemo::new();
        let hashed_by = |f: &dyn Fn()| {
            let before = KEY_HASHES.with(std::cell::Cell::get);
            f();
            KEY_HASHES.with(std::cell::Cell::get) - before
        };
        // Misses: the marker insert, the leader's re-find and every growth
        // of the shard maps on the way to 2 000 entries reuse the one hash.
        for i in 0..2_000 {
            let miss = hashed_by(&|| {
                memo.get_or_insert_with(Counted(i), || u64::from(i));
            });
            assert_eq!(miss, 1, "miss of key {i}");
        }
        for i in (0..2_000).step_by(7) {
            let hit = hashed_by(&|| {
                assert_eq!(
                    memo.get_or_insert_with(Counted(i), || unreachable!()),
                    u64::from(i)
                );
            });
            assert_eq!(hit, 1, "hit of key {i}");
        }
        assert_eq!(memo.len(), 2_000);
    }

    /// Sleep count of `key`'s in-flight marker; `None` when the key is not
    /// in flight.
    fn waiters_on(memo: &FlightMemo<u32, u64>, key: u32) -> Option<u32> {
        let probe = memo.probe(&key);
        let state = recover(memo.shard(probe.hash).state.lock());
        match state.map.get(&probe as &dyn Lookup<u32>) {
            Some(Slot::InFlight { waiters }) => Some(*waiters),
            _ => None,
        }
    }

    /// Spin until `key`'s in-flight marker counted `n` sleeps: from then on
    /// `n` lookups are blocked in (or about to re-enter) the condvar wait.
    fn until_waiters(memo: &FlightMemo<u32, u64>, key: u32, n: u32) {
        while waiters_on(memo, key).expect("called by the key's leader") < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_panicked_leader_with_two_sleepers_is_replaced_by_exactly_one() {
        let memo: FlightMemo<u32, u64> = FlightMemo::new();
        let computed = AtomicUsize::new(0);
        let in_flight = Barrier::new(3);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    memo.get_or_insert_with(1, || {
                        in_flight.wait();
                        until_waiters(&memo, 1, 2);
                        panic!("leader dies with two sleepers");
                    })
                }));
                assert!(died.is_err());
            });
            let sleepers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        in_flight.wait(); // the first leader's marker is in place
                        memo.get_or_insert_with(1, || {
                            computed.fetch_add(1, Ordering::SeqCst);
                            // The other sleeper, woken by the abandoned
                            // flight, is asleep again on this marker: only
                            // this leader's publish can wake it.
                            until_waiters(&memo, 1, 1);
                            11
                        })
                    })
                })
                .collect();
            for sleeper in sleepers {
                assert_eq!(sleeper.join().unwrap(), 11);
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "one sleeper recomputes");
        assert_eq!(memo.stats(), (1, 1), "the other one is a hit");
        assert_eq!(published(&memo, &1), Some(11));
    }

    #[test]
    fn len_counts_what_a_walk_finds() {
        let memo: FlightMemo<u32, u64> = FlightMemo::new();
        let walked = |memo: &FlightMemo<u32, u64>| -> usize {
            memo.shards
                .iter()
                .map(|shard| {
                    let state = recover(shard.state.lock());
                    state
                        .map
                        .values()
                        .filter(|slot| matches!(slot, Slot::Ready(..)))
                        .count()
                })
                .sum()
        };
        assert!(memo.is_empty());
        for key in 0..100 {
            memo.get_or_insert_with(key, || u64::from(key));
            memo.get_or_insert_with(key / 2, || unreachable!());
        }
        assert_eq!((memo.len(), walked(&memo)), (100, 100));
        // Preload: fifty keys already published, fifty new ones.
        memo.preload((50..150).map(|key| (key, 0)));
        assert_eq!((memo.len(), walked(&memo)), (150, 150));
        // Preload of a key in flight leaves the marker alone; the leader's
        // publish is the one that counts.
        memo.get_or_insert_with(500, || {
            memo.preload([(500, 1), (501, 1)]);
            assert_eq!((memo.len(), walked(&memo)), (151, 151));
            5
        });
        assert_eq!(published(&memo, &500), Some(5));
        assert_eq!((memo.len(), walked(&memo)), (152, 152));
        // An abandoned flight publishes nothing.
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_insert_with(600, || panic!("abandoned"))
        }));
        assert!(died.is_err());
        assert_eq!(waiters_on(&memo, 600), None);
        assert_eq!((memo.len(), walked(&memo)), (152, 152));
        assert!(!memo.is_empty());
    }
}
