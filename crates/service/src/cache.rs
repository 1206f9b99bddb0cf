//! Bounded LRU response cache for the serve daemon.
//!
//! A repeated `sweep` request used to cost a full render even when every
//! point was a memo hit: re-expand the plan, rebuild the engines, walk the
//! memo per point, re-assemble and re-render the artifact text.  The
//! response cache short-circuits all of that for *identical* queries: the
//! canonical identity of a request's output bytes (see
//! `SweepArgs::cache_key` — scenario ids + output format, spelled-out and
//! default flags collapse onto one key, `--jobs` is excluded because the
//! output is jobs-invariant) maps straight to the bytes stored for it.  The
//! cache does not care what those bytes are: `SweepService` stores each
//! reply as it goes on the wire, `ok <len>\n<payload>`, so a repeat query
//! is one write of shared bytes and copies nothing.
//!
//! The cache is bounded by entry count and evicts the least recently used
//! entry (exact LRU via monotonic access stamps; eviction is an O(entries)
//! scan, negligible at the bounded sizes the daemon uses).  Hit, miss and
//! eviction counts are surfaced through the `stats` protocol verb.
//! Correctness is trivial by construction: a payload is stored only under
//! the canonical key of the request that produced it, and the underlying
//! evaluation is deterministic — a cached response is byte-identical to a
//! recomputed one, a property the service tests assert.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Hit/miss/eviction counts of a [`ResponseCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResponseCacheStats {
    /// Requests answered with a cached payload.
    pub hits: u64,
    /// Requests that had to evaluate and render.
    pub misses: u64,
    /// Entries evicted to keep the cache within its capacity.
    pub evictions: u64,
}

/// One cached payload plus its recency stamp.
struct CacheEntry {
    payload: Arc<String>,
    stamp: u64,
}

/// A bounded map from canonical request keys to rendered payloads with
/// exact-LRU eviction.
pub struct ResponseCache {
    entries: Mutex<HashMap<String, CacheEntry>>,
    cap: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResponseCache {
    /// A cache holding at most `cap` payloads (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        Self {
            entries: Mutex::new(HashMap::new()),
            cap: cap.max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Capacity in entries.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Cached payload for `key`, refreshing its recency.  Counts a hit or
    /// a miss.
    pub fn get(&self, key: &str) -> Option<Arc<String>> {
        let mut entries = self.entries.lock();
        match entries.get_mut(key) {
            Some(entry) => {
                entry.stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.payload))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store `payload` under `key`, evicting the least recently used
    /// entry when the cache is full.  Racing inserts of the same key are
    /// harmless: the evaluation is deterministic, so both payloads are
    /// byte-identical and last-write-wins changes nothing observable.
    pub fn insert(&self, key: String, payload: Arc<String>) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut entries = self.entries.lock();
        if !entries.contains_key(&key) && entries.len() >= self.cap {
            if let Some(oldest) = entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                entries.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        entries.insert(key, CacheEntry { payload, stamp });
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hit/miss/eviction counts since construction.
    pub fn stats(&self) -> ResponseCacheStats {
        ResponseCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    #[test]
    fn hits_misses_and_payload_identity() {
        let cache = ResponseCache::new(4);
        assert_eq!(cache.get("a"), None);
        cache.insert("a".into(), payload("AAAA"));
        assert_eq!(cache.get("a").as_deref().map(|s| s.as_str()), Some("AAAA"));
        assert_eq!(
            cache.stats(),
            ResponseCacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn lru_eviction_keeps_recently_used_entries() {
        let cache = ResponseCache::new(2);
        cache.insert("a".into(), payload("A"));
        cache.insert("b".into(), payload("B"));
        // Touch `a`: `b` is now the LRU entry.
        assert!(cache.get("a").is_some());
        cache.insert("c".into(), payload("C"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("a").is_some(), "recently used survives");
        assert!(cache.get("b").is_none(), "LRU entry evicted");
        assert!(cache.get("c").is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let cache = ResponseCache::new(2);
        cache.insert("a".into(), payload("A"));
        cache.insert("b".into(), payload("B"));
        cache.insert("a".into(), payload("A2"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.get("a").as_deref().map(|s| s.as_str()), Some("A2"));
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let cache = ResponseCache::new(0);
        assert_eq!(cache.cap(), 1);
        cache.insert("a".into(), payload("A"));
        cache.insert("b".into(), payload("B"));
        assert_eq!(cache.len(), 1);
    }
}
