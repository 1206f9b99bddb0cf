//! Set-associative cache with pluggable replacement and write-back lines.
//!
//! Storage is a pair of parallel flat lanes (structure-of-arrays): a packed
//! **tag lane** (`Box<[u64]>`, one line index per slot) and a **meta lane**
//! (`Box<[u64]>`, the LRU stamp and dirty bit packed as `stamp << 1 |
//! dirty`), both with a fixed `ways` stride per set and mask-derived set
//! indices.  A probe touches only the tag lane — at most `ways` contiguous
//! `u64`s; the meta lane is read only on the slot the probe resolved to, or
//! by the miss-path victim scan.  Validity is encoded in the tag itself
//! (`tag == INVALID_LINE`).
//!
//! There is one probe: a scalar early-exit loop over the set's tags.  The
//! simulated traffic is streaming stencils, so most probes are hits in the
//! first few ways (L1 hit ratio 0.84 on the paper's figures) and the loop
//! leaves after one or two compares.  A tiered SIMD scan (AVX-512 / AVX2 /
//! portable 8-wide chunks, PRs 9–16) was A/B-measured against it on the
//! two simulator workloads of `benchmark/` (`points_per_s`, median of
//! alternating 12 s runs on a 2-vCPU AVX-512 host):
//!
//! | probe                 | `paper_all`         | `tenancy`     |
//! | --------------------- | ------------------- | ------------- |
//! | AVX-512 tier          | 1 219 (1 050–1 305) | 210 (206–217) |
//! | this scalar loop      | 1 200 (1 037–1 347) | 205 (187–207) |
//! | portable chunked only |   833 (737–867)     | 124 (115–132) |
//!
//! The scalar loop sits inside the AVX-512 tier's own spread, and the
//! "fast" fallback of every host without AVX2 lost a third to it — so the
//! tiers, their feature detection and their `unsafe` went.  Only a
//! full-set miss scan (`cachesim.probe_ns_per_line` of the benchmark, a
//! shape no product path produces) is slower without them, about 2×.
//!
//! The victim-selection strategy is a zero-cost generic parameter
//! ([`ReplacementPolicy`], default [`TrueLru`]).  True LRU derives the
//! victim from the meta lane (stamps are unique, so ordering by the packed
//! word orders by recency regardless of the dirty bit); other policies
//! carry their own per-set state and are consulted through
//! compile-time-guarded hooks, so each of the four policies is fully
//! monomorphised.
//!
//! Three invariants keep the scans short:
//!
//! * **prefix invariant** — within a set, valid entries always form a
//!   prefix ([`invalidate`](SetAssocCache::invalidate) compacts), so a hit
//!   always precedes the first empty slot and every probe stops at
//!   whichever comes first;
//! * **miss memo** — a [`touch`](SetAssocCache::touch) that misses records
//!   the slot a fill of that line would use, so the
//!   [`fill`](SetAssocCache::fill) that typically follows is O(1);
//! * **used-set tracking** — draining operations (and
//!   [`resident_lines`](SetAssocCache::resident_lines)) visit only sets
//!   that ever received a fill, so they cost O(resident), not O(capacity).

use std::collections::HashMap;

use crate::policy::{ReplacementPolicy, TrueLru};

/// Sentinel line index marking an empty arena slot.  Real line indices are
/// `addr / 64 <= 2^58`, so the all-ones value can never collide.
const INVALID_LINE: u64 = u64::MAX;

/// Result of probing or filling a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// Line present.
    Hit,
    /// Line absent.
    Miss,
}

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Evicted line index.
    pub line: u64,
    /// Whether the evicted line was dirty (needs a write-back).
    pub dirty: bool,
}

/// Outcome of scanning one set's tag lane for a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetProbe {
    /// Line resident at this way index.
    Hit(usize),
    /// Line absent; first empty slot at this way index (a fill goes here).
    Empty(usize),
    /// Line absent and the set is full (a fill needs a victim).
    Full,
}

/// The probe: an early-exit scan of one set's tag lane (see the module
/// docs for why there is exactly one).
#[inline(always)]
fn probe_set(tags: &[u64], line: u64) -> SetProbe {
    for (idx, &tag) in tags.iter().enumerate() {
        if tag == line {
            return SetProbe::Hit(idx);
        }
        if tag == INVALID_LINE {
            // Prefix invariant: nothing valid beyond the first hole.
            return SetProbe::Empty(idx);
        }
    }
    SetProbe::Full
}

/// Length of the valid prefix of a set's tag lane (index of the first
/// empty slot, or `ways` if the set is full).
#[inline(always)]
fn valid_prefix_len(tags: &[u64]) -> usize {
    tags.iter()
        .position(|&t| t == INVALID_LINE)
        .unwrap_or(tags.len())
}

/// True-LRU victim of a full set: the way with the minimum packed meta
/// word.  Stamps are unique, so the first strict minimum is the least
/// recently used line regardless of dirty bits — exactly the victim the
/// pre-SoA fused scan produced.
#[inline(always)]
fn min_meta_slot(meta: &[u64]) -> usize {
    let mut victim = 0usize;
    let mut best = meta[0];
    for (idx, &m) in meta.iter().enumerate().skip(1) {
        if m < best {
            victim = idx;
            best = m;
        }
    }
    victim
}

/// Pack a meta word: the dirty flag lives in the low bit of the LRU word
/// (`meta = stamp << 1 | dirty`).  Stamps are unique, so ordering by the
/// packed word orders by stamp regardless of the dirty bit.
#[inline(always)]
fn make_meta(stamp: u64, dirty: bool) -> u64 {
    stamp << 1 | dirty as u64
}

/// Whether a meta word carries the dirty bit.
#[inline(always)]
fn meta_dirty(meta: u64) -> bool {
    meta & 1 == 1
}

/// Refresh a meta word's LRU stamp, keeping (and optionally setting) dirty.
#[inline(always)]
fn refresh_meta(meta: &mut u64, stamp: u64, write: bool) {
    *meta = stamp << 1 | (*meta & 1) | write as u64;
}

/// A single set-associative cache level with a pluggable replacement
/// policy (true LRU by default).
///
/// Lines are identified by their global line index (`addr / 64`); the set
/// index is derived from the line index, the tag is the full line index
/// (simple and unambiguous).
///
/// `SIMD` is read by nothing: it selected a probe implementation until
/// PR 17 and stays only because `benchmark/` (which that PR could not
/// edit) spells the type `SetAssocCache::<TrueLru, true>`.
#[derive(Debug, Clone)]
pub struct SetAssocCache<R: ReplacementPolicy = TrueLru, const SIMD: bool = true> {
    /// Tag lane: at least `sets × ways` line indices, set-major (the
    /// current geometry uses that prefix; [`reshape`](Self::reshape) keeps
    /// a larger arena).  Slot validity is encoded in the tag
    /// (`INVALID_LINE`); valid tags form a prefix of each set.
    tags: Box<[u64]>,
    /// Meta lane, parallel to `tags`: `stamp << 1 | dirty` per slot
    /// (`0` for empty slots).
    meta: Box<[u64]>,
    /// Set indices that received at least one fill since the last
    /// reset/flush, so draining operations touch O(resident) entries
    /// instead of the whole arena (a streaming kernel leaves most of a
    /// large L3 share untouched).
    used_sets: Vec<u32>,
    /// One bit per set: whether it is in `used_sets`.
    used_bitmap: Box<[u64]>,
    /// Insertion slot remembered by the last missing [`touch`]
    /// (see [`Self::fill`]); valid only while `stamp` is unchanged.
    ///
    /// [`touch`]: Self::touch
    miss_memo: Option<MissMemo>,
    /// Replacement-policy state (zero-sized for [`TrueLru`]).
    policy: R,
    ways: usize,
    set_mask: u64,
    hits: u64,
    misses: u64,
    /// Valid lines displaced by a fill since construction/reset.
    evictions: u64,
    stamp: u64,
}

/// See [`SetAssocCache::fill`]: the slot a fill of `line` would use, as
/// determined by the scan of a missing touch at stamp `stamp`.
#[derive(Debug, Clone, Copy)]
struct MissMemo {
    line: u64,
    slot: usize,
    stamp: u64,
}

impl<R: ReplacementPolicy, const SIMD: bool> SetAssocCache<R, SIMD> {
    /// Create a cache with `capacity_bytes` total capacity, `ways`
    /// associativity and 64-byte lines.  The number of sets is rounded down
    /// to the next power of two so the set index is a simple mask; capacity
    /// is preserved by widening the ways accordingly.
    pub fn new(capacity_bytes: usize, ways: usize) -> Self {
        let (sets, effective_ways) = Self::geometry(capacity_bytes, ways);
        Self {
            tags: vec![INVALID_LINE; sets * effective_ways].into_boxed_slice(),
            meta: vec![0u64; sets * effective_ways].into_boxed_slice(),
            used_sets: Vec::new(),
            used_bitmap: vec![0u64; sets.div_ceil(64)].into_boxed_slice(),
            miss_memo: None,
            policy: R::new(sets, effective_ways),
            ways: effective_ways,
            set_mask: (sets - 1) as u64,
            hits: 0,
            misses: 0,
            evictions: 0,
            stamp: 0,
        }
    }

    /// The `(sets, ways)` geometry [`new`] would pick for a capacity and
    /// associativity.
    ///
    /// [`new`]: Self::new
    pub fn geometry(capacity_bytes: usize, ways: usize) -> (usize, usize) {
        assert!(capacity_bytes >= 64 && ways > 0);
        let total_lines = capacity_bytes / 64;
        let ideal_sets = (total_lines / ways).max(1);
        let sets_pow2 = if ideal_sets.is_power_of_two() {
            ideal_sets
        } else {
            (ideal_sets.next_power_of_two()) / 2
        }
        .max(1);
        let effective_ways = (total_lines / sets_pow2).max(1);
        (sets_pow2, effective_ways)
    }

    /// Empty the cache and zero the counters, reusing the lane allocations.
    /// Afterwards the cache is indistinguishable from a freshly constructed
    /// one of the same geometry.  Costs O(sets ever filled), not
    /// O(capacity).
    pub fn reset(&mut self) {
        self.clear_entries();
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
        self.stamp = 0;
    }

    /// [`reset`](Self::reset) into the geometry [`new`]`(capacity_bytes,
    /// ways)` would have, reusing the lanes: emptying leaves every slot of
    /// the arena `INVALID_LINE`, so any geometry that fits is just a new
    /// `ways`/`set_mask` over the same lanes; they are reallocated only to
    /// grow.  Afterwards the cache is indistinguishable from that fresh
    /// construction.
    ///
    /// [`new`]: Self::new
    pub fn reshape(&mut self, capacity_bytes: usize, ways: usize) {
        self.reset();
        let (sets, effective_ways) = Self::geometry(capacity_bytes, ways);
        if self.ways == effective_ways && self.set_mask == (sets - 1) as u64 {
            return;
        }
        if sets * effective_ways > self.tags.len() {
            self.tags = vec![INVALID_LINE; sets * effective_ways].into_boxed_slice();
            self.meta = vec![0u64; sets * effective_ways].into_boxed_slice();
        }
        if sets.div_ceil(64) > self.used_bitmap.len() {
            self.used_bitmap = vec![0u64; sets.div_ceil(64)].into_boxed_slice();
        }
        self.policy = R::new(sets, effective_ways);
        self.ways = effective_ways;
        self.set_mask = (sets - 1) as u64;
    }

    /// Empty every set that ever received a fill and forget the used-set
    /// tracking.
    fn clear_entries(&mut self) {
        for i in 0..self.used_sets.len() {
            let start = self.used_sets[i] as usize * self.ways;
            for slot in start..start + self.ways {
                if self.tags[slot] == INVALID_LINE {
                    // Prefix invariant: everything beyond is already empty.
                    break;
                }
                self.tags[slot] = INVALID_LINE;
                self.meta[slot] = 0;
            }
        }
        self.used_sets.clear();
        self.used_bitmap.fill(0);
        self.miss_memo = None;
        self.policy.reset();
    }

    /// Record that `set_idx` holds (or held) lines, so draining operations
    /// can skip every never-touched set.
    #[inline]
    fn mark_used(&mut self, set_idx: usize) {
        let word = set_idx / 64;
        let bit = 1u64 << (set_idx % 64);
        if self.used_bitmap[word] & bit == 0 {
            self.used_bitmap[word] |= bit;
            self.used_sets.push(set_idx as u32);
        }
    }

    /// Total capacity in cache lines (`sets × ways` of the current
    /// geometry, not the arena a [`reshape`](Self::reshape) may have kept).
    pub fn capacity_lines(&self) -> usize {
        (self.set_mask as usize + 1) * self.ways
    }

    /// Number of lines currently resident.  Costs O(sets ever filled):
    /// only used sets are visited, and the prefix invariant stops each
    /// walk at the first hole — the never-filled bulk of the arena is
    /// never touched.
    pub fn resident_lines(&self) -> usize {
        self.used_sets
            .iter()
            .map(|&set| {
                let start = set as usize * self.ways;
                valid_prefix_len(&self.tags[start..start + self.ways])
            })
            .sum()
    }

    /// Hit count since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Valid lines displaced by a fill since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Start offset of `line`'s set in the flat lanes.
    #[inline]
    fn lane_start(&self, line: u64) -> usize {
        (line & self.set_mask) as usize * self.ways
    }

    /// Tag lane of the set starting at flat offset `start`, without a
    /// per-probe bounds check (measurably visible in probe-bound scans).
    ///
    /// SAFETY: `start` is always `(set index masked to sets - 1) * ways`,
    /// and the lanes hold at least `sets * ways` slots (`new` allocates
    /// exactly that, `reshape` grows them before adopting a larger
    /// geometry), so `start + ways <= tags.len()` holds by construction
    /// (debug-asserted).
    #[inline(always)]
    fn set_tags(&self, start: usize) -> &[u64] {
        debug_assert!(start + self.ways <= self.tags.len());
        unsafe { self.tags.get_unchecked(start..start + self.ways) }
    }

    /// Probe for a line without modifying LRU state or counters.
    /// (`#[inline]` so cross-crate hot loops — the hierarchy, the probe
    /// benchmarks — inline the scan instead of paying a call per probe.)
    #[inline]
    pub fn contains(&self, line: u64) -> bool {
        let start = self.lane_start(line);
        matches!(probe_set(self.set_tags(start), line), SetProbe::Hit(_))
    }

    /// Count how many of `lines` are resident: [`contains`] over a slice,
    /// modifying no LRU state or counters.  No product path calls it; it is
    /// what `benchmark/`'s `cachesim.probe_ns_per_line` times.
    ///
    /// [`contains`]: Self::contains
    pub fn resident_count(&self, lines: &[u64]) -> usize {
        lines.iter().filter(|&&line| self.contains(line)).count()
    }

    /// Write `line` into `slot` of `set_idx` with a fresh meta word,
    /// returning the eviction if the slot held a valid line.
    #[inline]
    fn replace_slot(
        &mut self,
        set_idx: usize,
        slot: usize,
        line: u64,
        stamp: u64,
        dirty: bool,
    ) -> Option<Eviction> {
        let i = set_idx * self.ways + slot;
        let old = self.tags[i];
        let evicted = (old != INVALID_LINE).then(|| Eviction {
            line: old,
            dirty: meta_dirty(self.meta[i]),
        });
        self.evictions += evicted.is_some() as u64;
        self.tags[i] = line;
        self.meta[i] = make_meta(stamp, dirty);
        if !R::LRU_SCAN {
            self.policy.on_fill(set_idx, slot);
        }
        evicted
    }

    /// Access (touch) a line: returns `Hit` and refreshes LRU if present,
    /// `Miss` otherwise (the line is *not* filled — call [`fill`] or use the
    /// combined [`probe_fill`]).  On a miss the insertion slot found by the
    /// scan is remembered, making the [`fill`] that typically follows O(1).
    ///
    /// `write` marks the line dirty on a hit.
    ///
    /// [`fill`]: Self::fill
    /// [`probe_fill`]: Self::probe_fill
    #[inline]
    pub fn touch(&mut self, line: u64, write: bool) -> LookupResult {
        let stamp = self.next_stamp();
        let set_idx = (line & self.set_mask) as usize;
        let start = set_idx * self.ways;
        match probe_set(self.set_tags(start), line) {
            SetProbe::Hit(idx) => {
                refresh_meta(&mut self.meta[start + idx], stamp, write);
                if !R::LRU_SCAN {
                    self.policy.on_hit(set_idx, idx);
                }
                self.hits += 1;
                LookupResult::Hit
            }
            probe => {
                self.misses += 1;
                // For non-LRU policies a full set has no victim yet (the
                // policy is consulted — and possibly aged — only by the fill
                // itself), so only an empty slot can be remembered.
                let slot = match probe {
                    SetProbe::Empty(idx) => Some(idx),
                    _ if R::LRU_SCAN => Some(min_meta_slot(&self.meta[start..start + self.ways])),
                    _ => None,
                };
                if let Some(slot) = slot {
                    self.miss_memo = Some(MissMemo { line, slot, stamp });
                }
                LookupResult::Miss
            }
        }
    }

    /// Account `n` additional guaranteed hits on a line that is known to be
    /// resident, refreshing its LRU position once.  This is the batched
    /// equivalent of calling [`touch`] `n` times in a row on a resident line
    /// — the hit counter advances by `n` while the set is scanned only once.
    /// Returns `false` (and changes nothing) if the line is not resident;
    /// callers fall back to the scalar path in that case.
    ///
    /// This is a **load-only** fast path: the refresh deliberately passes
    /// `write = false`, so an already-dirty line stays dirty and a clean
    /// line stays clean.  Repeated *stores* must go through the regular
    /// store path ([`touch`] with `write = true`, or the write-policy
    /// handler above this level) — which is how every in-tree caller uses
    /// it (`PrivateCore::load_run` and the pattern drivers' bulk-load
    /// phases).  The dirty-bit semantics are regression-tested.
    ///
    /// [`touch`]: Self::touch
    #[inline]
    pub fn touch_repeat(&mut self, line: u64, n: u64) -> bool {
        if n == 0 {
            return true;
        }
        let stamp = self.next_stamp();
        let set_idx = (line & self.set_mask) as usize;
        let start = set_idx * self.ways;
        match probe_set(self.set_tags(start), line) {
            SetProbe::Hit(idx) => {
                refresh_meta(&mut self.meta[start + idx], stamp, false);
                if !R::LRU_SCAN {
                    self.policy.on_hit(set_idx, idx);
                }
                self.hits += n;
                true
            }
            _ => false,
        }
    }

    /// Combined touch-or-fill in a single set scan: counts a hit or a miss
    /// like [`touch`], and on a miss inserts the line (dirty if `write`)
    /// like [`fill`], returning the eviction if one was needed.
    ///
    /// Equivalent to `touch(line, write)` followed by `fill(line, write)` on
    /// a miss, but probes the set once instead of twice.
    ///
    /// [`touch`]: Self::touch
    /// [`fill`]: Self::fill
    #[inline]
    pub fn probe_fill(&mut self, line: u64, write: bool) -> (LookupResult, Option<Eviction>) {
        let stamp = self.next_stamp();
        let set_idx = (line & self.set_mask) as usize;
        let start = set_idx * self.ways;
        match probe_set(self.set_tags(start), line) {
            SetProbe::Hit(idx) => {
                refresh_meta(&mut self.meta[start + idx], stamp, write);
                if !R::LRU_SCAN {
                    self.policy.on_hit(set_idx, idx);
                }
                self.hits += 1;
                (LookupResult::Hit, None)
            }
            probe => {
                let victim = match probe {
                    SetProbe::Empty(idx) => idx,
                    _ if R::LRU_SCAN => min_meta_slot(&self.meta[start..start + self.ways]),
                    _ => self.policy.pick_victim(set_idx, self.ways),
                };
                let evicted = self.replace_slot(set_idx, victim, line, stamp, write);
                self.misses += 1;
                self.mark_used(set_idx);
                (LookupResult::Miss, evicted)
            }
        }
    }

    /// Insert a line (after a miss), possibly evicting the LRU line of its
    /// set.  Returns the eviction, if any.  `dirty` marks the new line dirty
    /// immediately (used for stores and for ITOM-claimed lines).
    #[inline]
    pub fn fill(&mut self, line: u64, dirty: bool) -> Option<Eviction> {
        // Fast path: the scan of a missing `touch` already determined the
        // slot, and nothing has changed since (same stamp).  The full scan
        // below would reproduce exactly that slot.
        if let Some(memo) = self.miss_memo {
            if memo.line == line && memo.stamp == self.stamp {
                let stamp = self.next_stamp();
                self.miss_memo = None;
                let set_idx = (line & self.set_mask) as usize;
                let evicted = self.replace_slot(set_idx, memo.slot, line, stamp, dirty);
                self.mark_used(set_idx);
                return evicted;
            }
        }
        let stamp = self.next_stamp();
        let set_idx = (line & self.set_mask) as usize;
        let start = set_idx * self.ways;
        match probe_set(self.set_tags(start), line) {
            SetProbe::Hit(idx) => {
                // Already present (e.g. racing prefetch): refresh.
                refresh_meta(&mut self.meta[start + idx], stamp, dirty);
                if !R::LRU_SCAN {
                    self.policy.on_hit(set_idx, idx);
                }
                None
            }
            probe => {
                let victim = match probe {
                    SetProbe::Empty(idx) => idx,
                    _ if R::LRU_SCAN => min_meta_slot(&self.meta[start..start + self.ways]),
                    _ => self.policy.pick_victim(set_idx, self.ways),
                };
                let evicted = self.replace_slot(set_idx, victim, line, stamp, dirty);
                self.mark_used(set_idx);
                evicted
            }
        }
    }

    /// Remove a specific line (e.g. when an NT store invalidates it).
    /// Returns whether the removed line was dirty.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        // The removal moves entries around; a remembered slot may go stale.
        self.miss_memo = None;
        let set_idx = (line & self.set_mask) as usize;
        let start = set_idx * self.ways;
        let tags = &self.tags[start..start + self.ways];
        let idx = match probe_set(tags, line) {
            SetProbe::Hit(idx) => idx,
            _ => return None,
        };
        // The hit sits inside the valid prefix; find where that prefix ends.
        let valid = idx + 1 + valid_prefix_len(&tags[idx + 1..]);
        let dirty = meta_dirty(self.meta[start + idx]);
        // Preserve the prefix invariant by moving the last valid entry into
        // the hole (the same reordering the old `Vec::swap_remove` did).
        self.tags[start + idx] = self.tags[start + valid - 1];
        self.meta[start + idx] = self.meta[start + valid - 1];
        self.tags[start + valid - 1] = INVALID_LINE;
        self.meta[start + valid - 1] = 0;
        if !R::LRU_SCAN {
            self.policy.on_invalidate(set_idx, idx, valid - 1);
        }
        Some(dirty)
    }

    /// Drain every resident line, returning the dirty ones in no
    /// particular order (used to flush write-backs at the end of a
    /// measurement region).  Costs O(sets ever filled), not O(capacity).
    pub fn flush_dirty(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        // Single pass: collect the dirty lines and clear each set while its
        // lanes are still in the host cache.
        for i in 0..self.used_sets.len() {
            let start = self.used_sets[i] as usize * self.ways;
            for slot in start..start + self.ways {
                if self.tags[slot] == INVALID_LINE {
                    // Prefix invariant: everything beyond is already empty.
                    break;
                }
                if meta_dirty(self.meta[slot]) {
                    dirty.push(self.tags[slot]);
                }
                self.tags[slot] = INVALID_LINE;
                self.meta[slot] = 0;
            }
        }
        self.used_sets.clear();
        self.used_bitmap.fill(0);
        self.miss_memo = None;
        self.policy.reset();
        dirty
    }

    /// Visit every resident line without draining it, in `used_sets`
    /// order (the same order [`flush_dirty`](Self::flush_dirty) drains).
    /// Used by the co-run engine to attribute shared-level occupancy to
    /// tenants at the end of a run.  Costs O(sets ever filled).
    pub fn for_each_resident(&self, mut f: impl FnMut(u64, bool)) {
        for &set in &self.used_sets {
            let start = set as usize * self.ways;
            for slot in start..start + self.ways {
                if self.tags[slot] == INVALID_LINE {
                    // Prefix invariant: everything beyond is already empty.
                    break;
                }
                f(self.tags[slot], meta_dirty(self.meta[slot]));
            }
        }
    }

    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }
}

/// A simple fully-associative helper cache used for small structures
/// (e.g. the streamer prefetcher's stream table).  Maps a key to a value
/// with LRU eviction.
#[derive(Debug, Clone)]
pub struct LruTable<V> {
    capacity: usize,
    stamp: u64,
    entries: HashMap<u64, (V, u64)>,
}

impl<V> LruTable<V> {
    /// Create a table holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            capacity,
            stamp: 0,
            entries: HashMap::new(),
        }
    }

    /// Get a mutable reference to the value for `key`, refreshing its LRU
    /// position.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.stamp += 1;
        let stamp = self.stamp;
        self.entries.get_mut(&key).map(|(v, s)| {
            *s = stamp;
            v
        })
    }

    /// Insert a value, evicting the least recently used entry if full.
    pub fn insert(&mut self, key: u64, value: V) {
        self.stamp += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some((&lru_key, _)) = self.entries.iter().min_by_key(|(_, (_, s))| *s) {
                self.entries.remove(&lru_key);
            }
        }
        self.entries.insert(key, (value, self.stamp));
    }

    /// Drop every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.stamp = 0;
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over values.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.values().map(|(v, _)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{RandomEvict, Srrip, TreePlru};

    /// Default-policy cache (the bare `SetAssocCache::new` call would leave
    /// the replacement parameter unconstrained in a `let`).
    fn lru(capacity_bytes: usize, ways: usize) -> SetAssocCache {
        SetAssocCache::new(capacity_bytes, ways)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = lru(4096, 8);
        assert_eq!(c.touch(42, false), LookupResult::Miss);
        assert!(c.fill(42, false).is_none());
        assert_eq!(c.touch(42, false), LookupResult::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn capacity_and_eviction() {
        // 8 lines total, fully associative in one set is unlikely; use a
        // direct check of capacity.
        let mut c = lru(8 * 64, 8);
        assert_eq!(c.capacity_lines(), 8);
        for line in 0..8 {
            c.touch(line, false);
            assert!(c.fill(line, false).is_none());
        }
        assert_eq!(c.resident_lines(), 8);
        // A ninth distinct line must evict something.
        c.touch(100, false);
        let ev = c.fill(100, false);
        assert!(ev.is_some() || c.resident_lines() <= 8);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Single-set cache with 2 ways.
        let mut c = lru(2 * 64, 2);
        c.touch(0, false);
        c.fill(0, false);
        c.touch(1, false);
        c.fill(1, false);
        // Touch 0 again so 1 becomes LRU (both map to the same set because
        // there is a single set).
        c.touch(0, false);
        c.touch(2, false);
        let ev = c.fill(2, false).expect("eviction expected");
        assert_eq!(ev.line, 1);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = lru(2 * 64, 2);
        c.fill(0, true);
        c.fill(1, false);
        let ev = c.fill(2, false).expect("eviction");
        // Line 0 was LRU and dirty.
        assert_eq!(ev.line, 0);
        assert!(ev.dirty);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = lru(4 * 64, 4);
        c.fill(7, false);
        c.touch(7, true);
        let dirty = c.flush_dirty();
        assert_eq!(dirty, vec![7]);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = lru(4 * 64, 4);
        c.fill(3, true);
        assert_eq!(c.invalidate(3), Some(true));
        assert_eq!(c.invalidate(3), None);
        assert!(!c.contains(3));
    }

    #[test]
    fn fill_existing_line_is_idempotent() {
        let mut c = lru(4 * 64, 4);
        c.fill(5, false);
        assert!(c.fill(5, true).is_none());
        assert_eq!(c.resident_lines(), 1);
        // The second fill marked it dirty.
        assert_eq!(c.flush_dirty(), vec![5]);
    }

    #[test]
    fn geometry_rounded_to_power_of_two_sets_preserves_capacity() {
        // 48 KiB, 12-way: 768 lines, 64 sets (power of two already).
        let c = lru(48 * 1024, 12);
        assert_eq!(c.capacity_lines(), 768);
        // 54 MiB, 12-way: 884736 lines; sets rounded to power of two.
        let c = lru(54 * 1024 * 1024, 12);
        let lines = c.capacity_lines();
        assert!(
            lines >= 800_000,
            "capacity must be preserved approximately, got {lines}"
        );
    }

    #[test]
    fn probe_fill_matches_touch_then_fill() {
        // Drive two caches with the same line stream, one through the
        // combined probe and one through the two-step path; every counter
        // and the final eviction behaviour must agree.
        let mut combined = lru(4 * 64, 2);
        let mut twostep = lru(4 * 64, 2);
        let stream = [0u64, 2, 4, 0, 6, 2, 8, 10, 0, 4, 6];
        for (n, &line) in stream.iter().enumerate() {
            let write = n % 3 == 0;
            let (r1, ev1) = combined.probe_fill(line, write);
            let r2 = twostep.touch(line, write);
            let ev2 = if r2 == LookupResult::Miss {
                twostep.fill(line, write)
            } else {
                None
            };
            assert_eq!(r1, r2, "access {n}");
            assert_eq!(ev1, ev2, "access {n}");
        }
        assert_eq!(combined.hits(), twostep.hits());
        assert_eq!(combined.misses(), twostep.misses());
        let mut d1 = combined.flush_dirty();
        let mut d2 = twostep.flush_dirty();
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
    }

    #[test]
    fn touch_repeat_counts_bulk_hits() {
        let mut c = lru(4 * 64, 4);
        c.fill(9, false);
        assert!(c.touch_repeat(9, 7));
        assert_eq!(c.hits(), 7);
        assert_eq!(c.misses(), 0);
        // Non-resident lines are refused without touching the counters.
        assert!(!c.touch_repeat(13, 3));
        assert_eq!(c.hits(), 7);
        assert_eq!(c.misses(), 0);
        // n == 0 is a no-op that reports success.
        assert!(c.touch_repeat(13, 0));
    }

    #[test]
    fn touch_repeat_preserves_the_dirty_bit() {
        // The batched path is load-only: it must neither clear an existing
        // dirty bit nor set one — repeated resident *stores* go through the
        // regular write path instead.
        let mut c = lru(4 * 64, 4);
        c.fill(5, true); // resident and dirty
        assert!(c.touch_repeat(5, 4));
        assert_eq!(c.flush_dirty(), vec![5], "dirty bit must survive repeats");
        c.fill(6, false); // resident and clean
        assert!(c.touch_repeat(6, 3));
        assert!(
            c.flush_dirty().is_empty(),
            "repeats must never dirty a clean line"
        );
    }

    #[test]
    fn resident_lines_tracks_fills_invalidates_and_flushes() {
        // A large cache where a full-arena scan would visit ~16k slots:
        // the used-set walk must still report exact counts through every
        // mutation that changes residency.
        let mut c = lru(1 << 20, 16);
        assert_eq!(c.resident_lines(), 0);
        for line in 0..48u64 {
            c.fill(line, line % 5 == 0);
        }
        assert_eq!(c.resident_lines(), 48);
        c.invalidate(7);
        c.invalidate(31);
        assert_eq!(c.resident_lines(), 46);
        c.flush_dirty();
        assert_eq!(c.resident_lines(), 0);
        c.fill(3, false);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut c = lru(8 * 64, 4);
        for line in 0..12u64 {
            c.probe_fill(line, line % 2 == 0);
        }
        assert!(c.resident_lines() > 0 && c.misses() > 0);
        c.reset();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!((c.hits(), c.misses()), (0, 0));
        // Behaves exactly like a fresh cache afterwards.
        let mut fresh = lru(8 * 64, 4);
        for line in [3u64, 7, 3, 11, 3] {
            assert_eq!(c.probe_fill(line, false), fresh.probe_fill(line, false));
        }
    }

    #[test]
    fn reshape_adopts_another_geometry_in_place() {
        fn check<R: ReplacementPolicy>() {
            let mut c: SetAssocCache<R> = SetAssocCache::new(64 * 64, 4);
            // Shrink, grow past the first arena, return: each time with
            // lines still resident, each time like a fresh cache.
            for (lines, ways) in [(8usize, 4usize), (256, 8), (64, 4), (12, 3)] {
                for line in 0..100u64 {
                    c.probe_fill(line * 3, line % 2 == 0);
                }
                c.reshape(lines * 64, ways);
                let mut fresh: SetAssocCache<R> = SetAssocCache::new(lines * 64, ways);
                assert_eq!(c.capacity_lines(), lines, "{}", R::KIND);
                assert_eq!(c.capacity_lines(), fresh.capacity_lines());
                assert_eq!(c.resident_lines(), 0);
                assert_eq!((c.hits(), c.misses(), c.evictions()), (0, 0, 0));
                for n in 0..400u64 {
                    let line = (n * 7) % 61;
                    assert_eq!(
                        c.probe_fill(line, n % 3 == 0),
                        fresh.probe_fill(line, n % 3 == 0),
                        "{}: {lines} lines, access {n}",
                        R::KIND
                    );
                }
                assert_eq!(c.evictions(), fresh.evictions());
                assert!(lines >= 61 || c.evictions() > 0);
            }
        }
        check::<TrueLru>();
        check::<TreePlru>();
        check::<Srrip>();
        check::<RandomEvict>();
    }

    #[test]
    fn flush_drains_and_tracking_restarts() {
        let mut c = lru(64 * 64, 4);
        c.fill(1, true);
        c.fill(2, false);
        c.fill(65, true); // second set
        let mut d = c.flush_dirty();
        d.sort_unstable();
        assert_eq!(d, vec![1, 65]);
        assert_eq!(c.resident_lines(), 0);
        // Used-set tracking restarts cleanly: a second flush is empty, new
        // fills are drained again.
        assert!(c.flush_dirty().is_empty());
        c.fill(130, true);
        assert_eq!(c.flush_dirty(), vec![130]);
    }

    /// Mirror of `probe_fill_matches_touch_then_fill` for every non-LRU
    /// policy: the combined scan and the two-step path must stay equivalent
    /// when the victim comes from policy state instead of the probe scan.
    fn probe_fill_equivalence_generic<R: ReplacementPolicy>() {
        let mut combined: SetAssocCache<R> = SetAssocCache::new(4 * 64, 2);
        let mut twostep: SetAssocCache<R> = SetAssocCache::new(4 * 64, 2);
        let stream = [0u64, 2, 4, 0, 6, 2, 8, 10, 0, 4, 6, 12, 2, 14, 0];
        for (n, &line) in stream.iter().enumerate() {
            let write = n % 3 == 0;
            let (r1, ev1) = combined.probe_fill(line, write);
            let r2 = twostep.touch(line, write);
            let ev2 = if r2 == LookupResult::Miss {
                twostep.fill(line, write)
            } else {
                None
            };
            assert_eq!(r1, r2, "{}: access {n}", R::KIND);
            assert_eq!(ev1, ev2, "{}: access {n}", R::KIND);
        }
        assert_eq!(combined.hits(), twostep.hits());
        assert_eq!(combined.misses(), twostep.misses());
        let mut d1 = combined.flush_dirty();
        let mut d2 = twostep.flush_dirty();
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2, "{}", R::KIND);
    }

    #[test]
    fn probe_fill_equivalence_holds_for_every_policy() {
        probe_fill_equivalence_generic::<TrueLru>();
        probe_fill_equivalence_generic::<TreePlru>();
        probe_fill_equivalence_generic::<Srrip>();
        probe_fill_equivalence_generic::<RandomEvict>();
    }

    #[test]
    fn resident_count_matches_contains() {
        let mut cache = lru(64 * 64, 8);
        // Mixed population: some sets full, some partial, some empty.
        for line in 0..40u64 {
            cache.probe_fill(line * 3, line % 2 == 0);
        }
        // Resident lines, absent lines aliasing populated sets, and
        // lines mapping to never-filled sets, interleaved.
        let probes: Vec<u64> = (0..200u64).collect();
        let expected = probes.iter().filter(|&&l| cache.contains(l)).count();
        assert!(expected > 0 && expected < probes.len());
        assert_eq!(cache.resident_count(&probes), expected);
        assert_eq!(cache.resident_count(&[]), 0);
        // Bulk probing must not touch counters or LRU state.
        let (hits, misses) = (cache.hits(), cache.misses());
        cache.resident_count(&probes);
        assert_eq!((cache.hits(), cache.misses()), (hits, misses));
    }

    #[test]
    fn non_lru_policies_reset_to_fresh_state() {
        fn check<R: ReplacementPolicy>() {
            let mut c: SetAssocCache<R> = SetAssocCache::new(8 * 64, 4);
            for line in 0..32u64 {
                c.probe_fill(line, line % 2 == 0);
            }
            c.reset();
            let mut fresh: SetAssocCache<R> = SetAssocCache::new(8 * 64, 4);
            for line in [3u64, 7, 3, 11, 3, 19, 27, 3, 35, 43, 7] {
                assert_eq!(
                    c.probe_fill(line, false),
                    fresh.probe_fill(line, false),
                    "{}: reset must replay like a fresh cache",
                    R::KIND
                );
            }
        }
        check::<TreePlru>();
        check::<Srrip>();
        check::<RandomEvict>();
    }

    #[test]
    fn non_lru_victims_diverge_from_lru_under_pressure() {
        // Sanity check that the policies actually differ: overflow one set
        // and compare eviction orders against true LRU.
        fn victims<R: ReplacementPolicy>() -> Vec<u64> {
            let mut c: SetAssocCache<R> = SetAssocCache::new(2 * 64, 2);
            let mut out = Vec::new();
            // Re-reference both resident lines in opposite order before the
            // next insertion: LRU tracks the exact recency, SRRIP collapses
            // both to "recent" and falls back to way order.
            for line in [0u64, 1, 1, 0, 2, 3, 4, 4, 3, 5, 6, 7] {
                if let (_, Some(ev)) = c.probe_fill(line, false) {
                    out.push(ev.line);
                }
            }
            out
        }
        let lru_order = victims::<TrueLru>();
        assert!(!lru_order.is_empty());
        // SRRIP inserts at distant-future, so its order deviates from LRU.
        assert_ne!(victims::<Srrip>(), lru_order);
        // Tree-PLRU with 2 ways degenerates to true LRU on this pattern —
        // only assert it produced the same number of evictions.
        assert_eq!(victims::<TreePlru>().len(), lru_order.len());
        // A different victim choice changes which later accesses hit, so
        // the deterministic-random policy may evict more lines than LRU —
        // only its sequence must deviate.
        assert_ne!(victims::<RandomEvict>(), lru_order);
    }

    #[test]
    fn lru_table_evicts() {
        let mut t: LruTable<u32> = LruTable::new(2);
        t.insert(1, 10);
        t.insert(2, 20);
        assert_eq!(t.get_mut(1).copied(), Some(10));
        t.insert(3, 30); // evicts key 2 (LRU)
        assert_eq!(t.len(), 2);
        assert!(t.get_mut(2).is_none());
        assert!(t.get_mut(1).is_some());
        assert!(t.get_mut(3).is_some());
    }
}
