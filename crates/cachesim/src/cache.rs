//! Set-associative true-LRU cache with write-back lines.
//!
//! Storage is one flat **tag lane** (`Box<[u64]>`, one word per slot) with
//! a fixed `ways` stride per set and mask-derived set indices.  A word is
//! the line index with the **dirty flag in bit 63** (line indices are
//! `addr / 64 <= 2^58`, so the bit is free); an empty slot is the all-ones
//! `INVALID_LINE`, which matches no line once the flag is masked off.
//! There is no lane of per-slot metadata, no LRU stamps and no clock.
//!
//! A set is a **ring in recency order**: its entries run from the set's
//! *head* slot (one `u16` per set, a second small lane) round to the slot
//! before it, most recently used first.  A fill writes the slot before the
//! head and moves the head there: what it overwrites is the end of the ring
//! — the least recently used line, or a hole if the set was not full — so a
//! fill moves nothing and there is no victim search.  A hit at ring
//! distance *k* moves the *k* entries ahead of it one step back and takes
//! the head slot; the re-hit of the line touched last (the common case of a
//! streaming stencil) is one compare and no move.  The order *is* exact
//! LRU, the replacement policy of every cache the paper measures and the
//! only one simulated; the analytic model's `--replacement` axis does not
//! reach here.
//!
//! There is one probe: a scalar early-exit loop over a set's tags, from the
//! head round.  The simulated traffic is streaming stencils, so most hits
//! are in the first few entries (L1 hit ratio 0.84 on the paper's figures)
//! and the loop leaves after one or two compares.  A
//! tiered SIMD scan (AVX-512 / AVX2 / portable chunks, PRs 9–16) measured
//! inside this loop's spread on both simulator workloads of `benchmark/`
//! at PR 17 — `points_per_s` 1 219 against 1 200 on `paper_all`, 210
//! against 205 on `tenancy` — and its portable fallback lost a third, so
//! the tiers, their feature detection and their `unsafe` went (table in
//! EXPERIMENTS "Simulator type surface").
//!
//! There is no presence filter.  What streams do most is *miss*, and
//! caches of up to 64 Ki lines once carried `u8` counters whose zero proved
//! a line absent without a scan.  But every simulation a paper figure runs
//! is on a core that `KernelSpec::never_hits_private` marks: it never
//! drives its L1 or L2, and its *load* and *store frontiers*
//! (`PrivateCore`) prove its first touches of the last level absent, so
//! `miss_proved` counts such a miss and `insert_absent` puts the line in,
//! neither scanning the set; only reloads, re-stored lines and unmarked
//! cores' lines are looked up.  The filter then answered almost nothing,
//! while its counter updates on every insert were 12 % of fig. 8's samples
//! against 1.8 % for the probe.  Without it `paper_all` reads 6 736 → 7 675
//! points/s (ten-pair medians on 2 vCPUs, every byte unchanged).  An
//! unmarked core, which no benchmarked workload runs, pays with a full
//! scan of every miss: the 22 hotspot loops through `loop_kernel` at 71 +
//! 72 ranks take ≈ 7 % longer, and `benchmark/`'s
//! `cachesim.probe_ns_per_line` (full-set miss scans of a 160 KiB cache)
//! reads 18–31 ns where the filter answered in 1–2 (EXPERIMENTS, "The
//! presence filter after marked cores").  The co-run LLC never had one:
//! there its counters missed the host's cache and measured slower than the
//! scan they spared.
//!
//! Three invariants keep the rest of the work per line short:
//!
//! * **prefix invariant** — a set's valid entries are contiguous from its
//!   head in ring order, so a hit precedes the first hole and every probe
//!   stops at whichever comes first.  The ring keeps it by construction — a
//!   fill extends the run at its head, a hit permutes inside it,
//!   [`invalidate`] moves its line to the head as a hit would and steps the
//!   head past it;
//! * **known-absent memo** — a [`touch`](SetAssocCache::touch) that misses
//!   remembers its line as absent, so the [`fill`](SetAssocCache::fill)
//!   that typically follows does not probe;
//! * **used-set tracking** — draining operations (and
//!   [`resident_lines`](SetAssocCache::resident_lines)) visit only sets
//!   that ever received a fill, so they cost O(resident), not O(capacity).
//!
//! A cache whose `WINDOW` parameter is set also counts its resident lines
//! of one **window**, a range of line indices fixed at construction: the
//! co-run engine asks its shared LLC how many lines of one tenant's address
//! window it holds, at any moment, in O(1).  The count is kept wherever
//! residency changes — an insert and the line it displaces, an
//! invalidation, a drain.  Every other cache — each level of a solo run,
//! the private levels of a co-run — is compiled without the count.
//!
//! [`invalidate`]: SetAssocCache::invalidate

use std::marker::PhantomData;

/// True least-recently-used replacement, the only policy of
/// [`SetAssocCache`]: the type parameter it defaults, read by nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrueLru;

/// Sentinel word marking an empty arena slot.  Real line indices are
/// `addr / 64 <= 2^58`, so the all-ones value can never collide — with or
/// without the dirty flag masked off.
const INVALID_LINE: u64 = u64::MAX;

/// The dirty flag of a tag word.
const DIRTY: u64 = 1 << 63;

/// [`DIRTY`] if `dirty`, else no bit.
#[inline(always)]
fn dirty_bit(dirty: bool) -> u64 {
    if dirty {
        DIRTY
    } else {
        0
    }
}

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
    /// Line resident at this ring distance (0 = the head).
    Hit(usize),
    /// Line absent; an empty slot ended the scan.
    Empty,
    /// Line absent and no empty slot seen: every way scanned.
    Full,
}

/// The probe: an early-exit scan of one set's tag lane (see the module
/// docs for why there is exactly one).
#[inline(always)]
fn probe_set(tags: &[u64], line: u64) -> SetProbe {
    for (idx, &tag) in tags.iter().enumerate() {
        if tag & !DIRTY == line {
            return SetProbe::Hit(idx);
        }
        if tag == INVALID_LINE {
            // Prefix invariant: nothing valid beyond the first hole.
            return SetProbe::Empty;
        }
    }
    SetProbe::Full
}

/// The most ways a set may have: its head is a `u16` below `ways`.
const MAX_WAYS: usize = 1 << u16::BITS;

/// The resident lines of the range `lo..=lo + extent` (see the module
/// docs); read only by a [`WindowedCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Window {
    lo: u64,
    extent: u64,
    lines: u64,
}

impl Window {
    /// 1 if `line` is inside the window, else 0.
    #[inline(always)]
    fn holds(&self, line: u64) -> u64 {
        u64::from(line.wrapping_sub(self.lo) <= self.extent)
    }
}

/// A single set-associative true-LRU cache level.
///
/// Lines are identified by their global line index (`addr / 64`); the set
/// index is derived from the line index, the tag is the full line index
/// (simple and unambiguous).
///
/// `R` and `SIMD` are read by nothing: they once chose a replacement
/// policy and a probe implementation.  They stay because `benchmark/`
/// spells the type `SetAssocCache::<TrueLru, true>`, and a type alias,
/// which could keep that spelling working, may not have a parameter it
/// does not use (rustc E0091).  `WINDOW` says whether the cache counts
/// its resident lines of a window (the co-run's shared LLC does); [`new`]
/// builds one that does not, and every other method is on any `WINDOW`.
///
/// [`new`]: Self::new
#[derive(Debug, Clone)]
pub struct SetAssocCache<R = TrueLru, const SIMD: bool = true, const WINDOW: bool = false> {
    /// Tag lane: at least `sets × ways` words, set-major (the current
    /// geometry uses that prefix; [`reshape`](Self::reshape) keeps a larger
    /// arena).  A word is `line | dirty << 63`, or `INVALID_LINE` for an
    /// empty slot; valid words form a prefix of each set in ring order from
    /// the set's head.
    tags: Box<[u64]>,
    /// Each set's head: the slot of its most recently used entry (`<
    /// ways`; zero in an empty set).
    heads: Box<[u16]>,
    /// Set indices that received at least one fill since the last
    /// reset/flush, so draining operations touch O(resident) entries
    /// instead of the whole arena (a streaming kernel leaves most of a
    /// large L3 share untouched).
    used_sets: Vec<u32>,
    /// One bit per set: whether it is in `used_sets`.
    used_bitmap: Box<[u64]>,
    /// The line the last missing [`touch`](Self::touch) found absent, until
    /// something is inserted (`INVALID_LINE`: none); see [`Self::fill`].
    known_absent: u64,
    ways: usize,
    set_mask: u64,
    hits: u64,
    misses: u64,
    /// Valid lines displaced by a fill since construction/reset.
    evictions: u64,
    /// Changes of recency order since construction/reset: inserts, and
    /// hits that moved a line (not the re-hit of a set's head).
    reorders: u64,
    /// Lines removed by [`invalidate`](Self::invalidate) since
    /// construction/reset.
    invalidations: u64,
    /// The counted window, if `WINDOW`.
    window: Window,
    unread: PhantomData<R>,
}

/// A last level cache that counts its resident lines of one window, the
/// co-run's shared LLC.
pub(crate) type WindowedCache = SetAssocCache<TrueLru, true, true>;

/// The last level a core misses into: a plain [`SetAssocCache`] or a
/// [`WindowedCache`].
pub(crate) type LastLevel<const WINDOW: bool> = SetAssocCache<TrueLru, true, WINDOW>;

impl SetAssocCache {
    /// Create a cache with `capacity_bytes` total capacity, `ways`
    /// associativity and 64-byte lines.  The number of sets is rounded down
    /// to the next power of two so the set index is a simple mask; capacity
    /// is preserved by widening the ways accordingly (to less than twice
    /// `ways`; a head is a `u16`, so at most 65 536 of them, asserted).
    pub fn new(capacity_bytes: usize, ways: usize) -> Self {
        Self::build(capacity_bytes, ways, Window::default())
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
}

impl WindowedCache {
    /// A cache of [`SetAssocCache::new`]'s geometry that counts its
    /// resident lines of `lo..=hi`.
    pub(crate) fn with_window(capacity_bytes: usize, ways: usize, lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "an empty window");
        Self::build(
            capacity_bytes,
            ways,
            Window {
                lo,
                extent: hi - lo,
                lines: 0,
            },
        )
    }

    /// Resident lines of the window.  O(1).
    pub(crate) fn window_lines(&self) -> u64 {
        self.window.lines
    }
}

impl<const WINDOW: bool> LastLevel<WINDOW> {
    /// An empty cache of [`SetAssocCache::new`]'s geometry holding
    /// `window` (read only if `WINDOW`).
    fn build(capacity_bytes: usize, ways: usize, window: Window) -> Self {
        let (sets, effective_ways) = SetAssocCache::geometry(capacity_bytes, ways);
        assert!(effective_ways <= MAX_WAYS, "a head is a u16 below `ways`");
        Self {
            tags: vec![INVALID_LINE; sets * effective_ways].into_boxed_slice(),
            heads: vec![0u16; sets].into_boxed_slice(),
            used_sets: Vec::new(),
            used_bitmap: vec![0u64; sets.div_ceil(64)].into_boxed_slice(),
            known_absent: INVALID_LINE,
            ways: effective_ways,
            set_mask: (sets - 1) as u64,
            hits: 0,
            misses: 0,
            evictions: 0,
            reorders: 0,
            invalidations: 0,
            window,
            unread: PhantomData,
        }
    }

    /// Empty the cache and zero the counters, reusing the lane allocations.
    /// Afterwards the cache is indistinguishable from a freshly constructed
    /// one of the same geometry.  Costs O(sets ever filled), not
    /// O(capacity).
    pub fn reset(&mut self) {
        self.drain_entries(|_| ());
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
        self.reorders = 0;
        self.invalidations = 0;
    }

    /// [`reset`](Self::reset) into the geometry [`new`]`(capacity_bytes,
    /// ways)` would have, reusing the lanes: emptying leaves every slot of
    /// the arena `INVALID_LINE` and every head zero, so any geometry that
    /// fits is just a new `ways`/`set_mask` over the same lanes; each is
    /// reallocated only to grow.  Afterwards the cache is indistinguishable
    /// from that fresh construction.
    ///
    /// [`new`]: Self::new
    pub fn reshape(&mut self, capacity_bytes: usize, ways: usize) {
        self.reset();
        let (sets, effective_ways) = SetAssocCache::geometry(capacity_bytes, ways);
        if self.ways == effective_ways && self.set_mask == (sets - 1) as u64 {
            return;
        }
        if sets * effective_ways > self.tags.len() {
            self.tags = vec![INVALID_LINE; sets * effective_ways].into_boxed_slice();
        }
        if sets.div_ceil(64) > self.used_bitmap.len() {
            self.used_bitmap = vec![0u64; sets.div_ceil(64)].into_boxed_slice();
        }
        assert!(effective_ways <= MAX_WAYS, "a head is a u16 below `ways`");
        if sets > self.heads.len() {
            self.heads = vec![0u16; sets].into_boxed_slice();
        }
        self.ways = effective_ways;
        self.set_mask = (sets - 1) as u64;
    }

    /// Empty every set that ever received a fill, handing each valid tag
    /// word to `drained` on the way, and forget the used-set tracking.
    fn drain_entries(&mut self, mut drained: impl FnMut(u64)) {
        for &set in &self.used_sets {
            let start = set as usize * self.ways;
            // Every slot: a ring's valid entries need not start at slot 0.
            for tag in &mut self.tags[start..start + self.ways] {
                if *tag != INVALID_LINE {
                    drained(*tag);
                    *tag = INVALID_LINE;
                }
            }
            self.heads[set as usize] = 0;
        }
        self.used_sets.clear();
        self.used_bitmap.fill(0);
        self.known_absent = INVALID_LINE;
        self.window.lines = 0;
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
    /// only used sets are visited — the never-filled bulk of the arena is
    /// never touched.
    pub fn resident_lines(&self) -> usize {
        let mut resident = 0;
        self.for_each_resident(|_, _| resident += 1);
        resident
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

    /// Associativity of the current geometry (what [`geometry`] widened
    /// it to).
    ///
    /// [`geometry`]: Self::geometry
    pub(crate) fn ways(&self) -> usize {
        self.ways
    }

    /// Sets of the current geometry, a power of two: a line's set is its
    /// index modulo this.
    pub(crate) fn sets(&self) -> usize {
        self.set_mask as usize + 1
    }

    /// Changes of recency order since construction: inserts and hits that
    /// moved a line.  A line made the most recent of its set leaves only
    /// after `ways` more of them (one of which is an insert into its set)
    /// or an invalidation.
    pub(crate) fn reorders(&self) -> u64 {
        self.reorders
    }

    /// Lines removed by [`invalidate`](Self::invalidate) since
    /// construction.
    pub(crate) fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Tag lane of the set starting at flat offset `start`, without a
    /// per-probe bounds check (measurably visible in probe-bound scans).
    ///
    /// SAFETY: `start` is always `(set index masked to sets - 1) * ways`,
    /// and the lane holds at least `sets * ways` slots (`new` allocates
    /// exactly that, `reshape` grows it before adopting a larger
    /// geometry), so `start + ways <= tags.len()` holds by construction
    /// (debug-asserted).
    #[inline(always)]
    fn set_tags(&self, start: usize) -> &[u64] {
        debug_assert!(start + self.ways <= self.tags.len());
        unsafe { self.tags.get_unchecked(start..start + self.ways) }
    }

    /// Index of `line`'s set and what a probe of it finds: a scan of the
    /// set from its head round, which stops at the line or the first hole.
    #[inline(always)]
    fn probe(&self, line: u64) -> (usize, SetProbe) {
        debug_assert!(line <= 1 << 58, "line indices are addr / 64");
        let set_idx = (line & self.set_mask) as usize;
        let tags = self.set_tags(set_idx * self.ways);
        let (wrapped, first) = tags.split_at(usize::from(self.heads[set_idx]));
        let found = match probe_set(first, line) {
            SetProbe::Full => match probe_set(wrapped, line) {
                SetProbe::Hit(idx) => SetProbe::Hit(first.len() + idx),
                absent => absent,
            },
            found => found,
        };
        (set_idx, found)
    }

    /// Probe for a line without modifying LRU state or counters.
    /// (`#[inline]` so cross-crate hot loops — the hierarchy, the probe
    /// benchmarks — inline the scan instead of paying a call per probe.)
    #[inline]
    pub fn contains(&self, line: u64) -> bool {
        matches!(self.probe(line).1, SetProbe::Hit(_))
    }

    /// Count how many of `lines` are resident: [`contains`] over a slice,
    /// modifying no LRU state or counters.  No product path calls it; it is
    /// what `benchmark/`'s `cachesim.probe_ns_per_line` times: a scan of
    /// each line's set, every way of a full set for an absent line.
    ///
    /// [`contains`]: Self::contains
    pub fn resident_count(&self, lines: &[u64]) -> usize {
        lines.iter().filter(|&&line| self.contains(line)).count()
    }

    /// A hit at ring distance `idx` of `set_idx`: make the entry the most
    /// recently used of its set, dirty if `write` (or already).  The one
    /// move of recency order: the entry takes the head slot, every more
    /// recently used one steps a slot back round the ring — none for
    /// distance 0, the streaming re-hit.
    #[inline(always)]
    fn refresh(&mut self, set_idx: usize, idx: usize, write: bool) {
        self.reorders += (idx != 0) as u64;
        let set = &mut self.tags[set_idx * self.ways..][..self.ways];
        let head = usize::from(self.heads[set_idx]);
        let mut slot = head + idx;
        if slot >= set.len() {
            slot -= set.len();
        }
        let tag = set[slot] | dirty_bit(write);
        while slot != head {
            let previous = if slot == 0 { set.len() } else { slot } - 1;
            set[slot] = set[previous];
            slot = previous;
        }
        set[head] = tag;
    }

    /// Insert `line`, absent from `set_idx`, as the most recently used
    /// entry; the eviction if a valid line had to go.
    #[inline(always)]
    fn insert(&mut self, set_idx: usize, line: u64, dirty: bool) -> Option<Eviction> {
        // The slot before the head is the end of the ring: it holds the
        // least recently used line, or a hole if the set is not full.
        let head = match self.heads[set_idx] {
            0 => self.ways - 1,
            head => usize::from(head) - 1,
        };
        self.heads[set_idx] = head as u16;
        self.reorders += 1;
        let slot = &mut self.tags[set_idx * self.ways + head];
        let old = std::mem::replace(slot, line | dirty_bit(dirty));
        self.known_absent = INVALID_LINE;
        self.mark_used(set_idx);
        let evicted = (old != INVALID_LINE).then_some(Eviction {
            line: old & !DIRTY,
            dirty: old & DIRTY != 0,
        });
        self.evictions += evicted.is_some() as u64;
        self.window_count(line, true);
        if let Some(evicted) = evicted {
            self.window_count(evicted.line, false);
        }
        evicted
    }

    /// `line` became resident (`arrived`) or stopped being: count it in or
    /// out of the window, if the cache counts one.
    #[inline(always)]
    fn window_count(&mut self, line: u64, arrived: bool) {
        if WINDOW {
            let inside = self.window.holds(line);
            if arrived {
                self.window.lines += inside;
            } else {
                self.window.lines -= inside;
            }
        }
    }

    /// Access (touch) a line: returns `Hit` and refreshes LRU if present,
    /// `Miss` otherwise (the line is *not* filled — call [`fill`] or use the
    /// combined [`probe_fill`]).  A miss remembers the line as absent, which
    /// spares the [`fill`] that typically follows its probe.
    ///
    /// `write` marks the line dirty on a hit.
    ///
    /// [`fill`]: Self::fill
    /// [`probe_fill`]: Self::probe_fill
    #[inline]
    pub fn touch(&mut self, line: u64, write: bool) -> LookupResult {
        match self.probe(line) {
            (set_idx, SetProbe::Hit(idx)) => {
                self.refresh(set_idx, idx, write);
                self.hits += 1;
                LookupResult::Hit
            }
            _ => {
                self.misses += 1;
                self.known_absent = line;
                LookupResult::Miss
            }
        }
    }

    /// Account `n` additional guaranteed hits on a line that is known to be
    /// resident, refreshing its LRU position once.  This is the batched
    /// equivalent of calling [`touch`] `n` times in a row on a resident line
    /// — the hit counter advances by `n` while the set is scanned only once.
    /// Returns `false` (and changes nothing) if the line is not resident;
    /// callers fall back to the scalar path in that case.  A line at its
    /// set's head — the re-hit of a streaming stencil — is one compare: no
    /// scan, no move.  Zero repeats are
    /// vacuously accounted: `n == 0` returns `true` and changes nothing —
    /// no counter, no recency — whether or not the line is resident (the
    /// in-tree caller asks only with `n > 0`).
    ///
    /// This is a **load-only** fast path: the refresh deliberately passes
    /// `write = false`, so an already-dirty line stays dirty and a clean
    /// line stays clean.  Repeated *stores* must go through the regular
    /// store path ([`touch`] with `write = true`, or the write-policy
    /// handler above this level) — which is how the in-tree caller, the
    /// sweep cursor's bulk-load phase, uses it.  The dirty-bit semantics
    /// are regression-tested.
    ///
    /// [`touch`]: Self::touch
    #[inline]
    pub fn touch_repeat(&mut self, line: u64, n: u64) -> bool {
        if n == 0 {
            return true;
        }
        let set_idx = (line & self.set_mask) as usize;
        if self.set_tags(set_idx * self.ways)[usize::from(self.heads[set_idx])] & !DIRTY == line {
            self.hits += n;
            return true;
        }
        self.touch_repeat_behind_head(line, n)
    }

    /// [`touch_repeat`](Self::touch_repeat) of a line not at its set's
    /// head: a probe and, if resident, a move.  Out of line, so that the
    /// head compare inlines into the callers' loops.
    #[inline(never)]
    fn touch_repeat_behind_head(&mut self, line: u64, n: u64) -> bool {
        match self.probe(line) {
            (set_idx, SetProbe::Hit(idx)) => {
                self.refresh(set_idx, idx, false);
                self.hits += n;
                true
            }
            _ => false,
        }
    }

    /// Count `n` hits on resident lines that a touch would leave where they
    /// are — each already the most recent of its set in the order the
    /// touches would repeat — without looking at them.
    #[inline]
    pub(crate) fn settled_hits(&mut self, n: u64) {
        self.hits += n;
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
        match self.probe(line) {
            (set_idx, SetProbe::Hit(idx)) => {
                self.refresh(set_idx, idx, write);
                self.hits += 1;
                (LookupResult::Hit, None)
            }
            (set_idx, _) => {
                self.misses += 1;
                (LookupResult::Miss, self.insert(set_idx, line, write))
            }
        }
    }

    /// Insert a line (after a miss), possibly evicting the LRU line of its
    /// set.  Returns the eviction, if any.  `dirty` marks the new line dirty
    /// immediately (used for stores and for ITOM-claimed lines).
    #[inline]
    pub fn fill(&mut self, line: u64, dirty: bool) -> Option<Eviction> {
        // Fast path: a missing `touch` found the line absent and nothing
        // was inserted since, so there is nothing to look for — the line
        // takes the slot before its set's head.
        if self.known_absent == line {
            return self.insert_absent(line, dirty);
        }
        match self.probe(line) {
            (set_idx, SetProbe::Hit(idx)) => {
                // Already present (e.g. racing prefetch): refresh.
                self.refresh(set_idx, idx, dirty);
                None
            }
            (set_idx, _) => self.insert(set_idx, line, dirty),
        }
    }

    /// Insert a clean line unless it is resident, in a single set scan.  A
    /// resident line is left exactly as it was — recency, dirty flag and
    /// every counter, as [`contains`] leaves it — and reported `Hit`; an
    /// absent one is inserted like [`fill`]`(line, false)` does and
    /// reported `Miss` with the eviction, if any.  Neither outcome counts
    /// as a hit or a miss: this is a prefetch's fill, not a demand access.
    ///
    /// [`contains`]: Self::contains
    /// [`fill`]: Self::fill
    #[inline]
    pub fn fill_if_absent(&mut self, line: u64) -> (LookupResult, Option<Eviction>) {
        match self.probe(line) {
            (_, SetProbe::Hit(_)) => (LookupResult::Hit, None),
            (set_idx, _) => (LookupResult::Miss, self.insert(set_idx, line, false)),
        }
    }

    /// A [`touch`](Self::touch) of `line` that the caller has proved to
    /// miss, without a probe: the miss is counted and remembered, so the
    /// [`fill`](Self::fill) that follows does not probe either.  A debug
    /// build looks and asserts the line absent.
    #[inline]
    pub(crate) fn miss_proved(&mut self, line: u64) {
        debug_assert!(
            !self.contains(line),
            "line {line:#x} proved absent is resident"
        );
        self.misses += 1;
        self.known_absent = line;
    }

    /// Insert `line`, which the caller has proved absent, as the most
    /// recently used entry of its set, without a probe: what
    /// [`fill`](Self::fill) and [`fill_if_absent`](Self::fill_if_absent)
    /// do with an absent line.  A debug build looks and asserts the line
    /// absent.
    #[inline]
    pub(crate) fn insert_absent(&mut self, line: u64, dirty: bool) -> Option<Eviction> {
        debug_assert!(
            !self.contains(line),
            "line {line:#x} proved absent is resident"
        );
        self.insert((line & self.set_mask) as usize, line, dirty)
    }

    /// Remove a specific line (e.g. when an NT store invalidates it).
    /// Returns whether the removed line was dirty.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let (set_idx, SetProbe::Hit(idx)) = self.probe(line) else {
            return None;
        };
        // Close the hole in ring order: the line becomes the head, as on a
        // hit, and the head steps past it.  The entries behind keep their
        // order and stay contiguous from the new head.
        self.refresh(set_idx, idx, false);
        let slot = set_idx * self.ways + usize::from(self.heads[set_idx]);
        let tag = std::mem::replace(&mut self.tags[slot], INVALID_LINE);
        let head = usize::from(self.heads[set_idx]) + 1;
        self.heads[set_idx] = if head == self.ways { 0 } else { head as u16 };
        self.invalidations += 1;
        self.window_count(line, false);
        Some(tag & DIRTY != 0)
    }

    /// Drain every resident line, returning the dirty ones in no
    /// particular order (used to flush write-backs at the end of a
    /// measurement region).  Costs O(sets ever filled), not O(capacity).
    pub fn flush_dirty(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        // Single pass: collect the dirty lines and clear each set while its
        // lane is still in the host cache.
        self.drain_entries(|tag| {
            if tag & DIRTY != 0 {
                dirty.push(tag & !DIRTY);
            }
        });
        dirty
    }

    /// Visit every resident line without draining it, in no particular
    /// order.  Used by the co-run engine to attribute shared-level
    /// occupancy to tenants at the end of a run.  Costs O(sets ever
    /// filled).
    pub fn for_each_resident(&self, mut f: impl FnMut(u64, bool)) {
        for &set in &self.used_sets {
            let start = set as usize * self.ways;
            // Every slot: a ring's valid entries need not start at slot 0.
            for &tag in &self.tags[start..start + self.ways] {
                if tag != INVALID_LINE {
                    f(tag & !DIRTY, tag & DIRTY != 0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `emptied` — a cache after `reset`, `reshape` or `flush_dirty` — is a
    /// `fresh`ly constructed one: the same geometry, and every tag, head
    /// and tracking bit of its (possibly larger) lanes as construction
    /// leaves them.
    fn assert_like_fresh(emptied: &SetAssocCache, fresh: &SetAssocCache) {
        let geometry = |c: &SetAssocCache| (c.ways, c.set_mask);
        assert_eq!(geometry(emptied), geometry(fresh));
        assert!(emptied.tags.iter().all(|&tag| tag == INVALID_LINE));
        assert!(emptied.heads.iter().all(|&head| head == 0));
        assert!(emptied.used_sets.is_empty());
        assert!(emptied.used_bitmap.iter().all(|&word| word == 0));
        assert_eq!(emptied.known_absent, INVALID_LINE);
        assert_eq!(emptied.window.lines, 0);
        assert!(emptied.tags.len() >= fresh.tags.len());
        assert!(emptied.heads.len() >= fresh.heads.len());
    }

    /// The naive model of recency-ordered sets: per set the resident lines,
    /// most recently used first.
    struct RecencyLists {
        sets: Vec<Vec<u64>>,
        ways: usize,
    }

    impl RecencyLists {
        fn like(cache: &SetAssocCache) -> Self {
            Self {
                sets: vec![Vec::new(); cache.set_mask as usize + 1],
                ways: cache.ways,
            }
        }

        fn set(&mut self, line: u64) -> &mut Vec<u64> {
            let sets = self.sets.len() as u64;
            &mut self.sets[(line % sets) as usize]
        }

        /// Move a resident line to the front; whether it was resident.
        fn touch(&mut self, line: u64) -> bool {
            let set = self.set(line);
            let Some(at) = set.iter().position(|&l| l == line) else {
                return false;
            };
            set[..=at].rotate_right(1);
            true
        }

        /// Insert an absent line at the front; the line that falls off.
        fn fill(&mut self, line: u64) -> Option<u64> {
            let ways = self.ways;
            let set = self.set(line);
            set.insert(0, line);
            (set.len() > ways).then(|| set.pop().expect("non-empty"))
        }

        fn invalidate(&mut self, line: u64) {
            self.set(line).retain(|&l| l != line);
        }

        /// The ring invariant, slot by slot: from each set's head the
        /// model's lines in the model's order, then holes to the end.
        fn assert_is(&self, cache: &SetAssocCache, at: &str) {
            for (set, lines) in self.sets.iter().enumerate() {
                let head = usize::from(cache.heads[set]);
                assert!(head < self.ways, "{at}");
                let slots = &cache.tags[set * self.ways..][..self.ways];
                let ring: Vec<u64> = (slots[head..].iter().chain(&slots[..head]))
                    .map(|&tag| {
                        if tag == INVALID_LINE {
                            tag
                        } else {
                            tag & !DIRTY
                        }
                    })
                    .collect();
                let mut expected = lines.clone();
                expected.resize(self.ways, INVALID_LINE);
                assert_eq!(ring, expected, "{at}: set {set}, head {head}");
            }
        }
    }

    /// A 1-set and a 4-set cache of 5 ways with every set full and every
    /// head at `head`, and their model; `(cache, model, next unused line)`.
    fn rings_with_heads_at(head: usize) -> Vec<(SetAssocCache, RecencyLists, u64)> {
        [1usize, 4]
            .into_iter()
            .map(|sets| {
                let mut cache = SetAssocCache::new(sets * 5 * 64, 5);
                assert_eq!((cache.set_mask as usize + 1, cache.ways), (sets, 5));
                let mut model = RecencyLists::like(&cache);
                // Each fill steps its set's head back one slot, from 0.
                let fills = (sets * (10 - head)) as u64;
                for line in 0..fills {
                    assert_eq!(
                        cache.fill(line, line % 3 == 0).map(|e| e.line),
                        model.fill(line)
                    );
                }
                assert!(cache.heads.iter().all(|&h| usize::from(h) == head));
                model.assert_is(&cache, "set up");
                (cache, model, fills)
            })
            .collect()
    }

    #[test]
    fn ring_hit_at_every_distance_with_the_head_at_every_slot() {
        for head in 0..5 {
            for distance in 0..5 {
                for (mut cache, mut model, next) in rings_with_heads_at(head) {
                    let at = format!("head {head}, distance {distance}");
                    // In every set, hit the line `distance` behind the
                    // head: with the head at `head`, distances of `5 - head`
                    // and more shift across the wrap.
                    for set in 0..model.sets.len() {
                        let line = model.sets[set][distance];
                        assert_eq!(cache.touch(line, false), LookupResult::Hit, "{at}");
                        assert!(model.touch(line));
                        assert_eq!(usize::from(cache.heads[set]), head, "a hit moves no head");
                    }
                    model.assert_is(&cache, &at);
                    // Every victim from here on is the model's.
                    for line in next..next + 6 * model.sets.len() as u64 {
                        assert_eq!(
                            cache.fill(line, false).map(|e| e.line),
                            model.fill(line),
                            "{at}"
                        );
                    }
                    model.assert_is(&cache, &at);
                }
            }
        }
    }

    #[test]
    fn ring_invalidate_at_every_distance_leaves_holes_that_fills_take_first() {
        for head in 0..5 {
            for distance in 0..5 {
                for (mut cache, mut model, next) in rings_with_heads_at(head) {
                    let at = format!("head {head}, distance {distance}");
                    let sets = model.sets.len() as u64;
                    // Two holes a set: at `distance`, then at what is now
                    // the front (the wrap is crossed for every `head`).
                    for set in 0..sets as usize {
                        for distance in [distance, 0] {
                            let line = model.sets[set][distance];
                            let dirty = line % 3 == 0;
                            assert_eq!(cache.invalidate(line), Some(dirty), "{at}");
                            assert_eq!(cache.invalidate(line), None, "{at}");
                            model.invalidate(line);
                            model.assert_is(&cache, &at);
                        }
                    }
                    assert_eq!(cache.resident_lines(), 3 * sets as usize);
                    // The draining reads see both sides of a wrapped head.
                    let mut seen = Vec::new();
                    cache.for_each_resident(|line, dirty| {
                        assert_eq!(dirty, line % 3 == 0, "{at}");
                        seen.push(line);
                    });
                    seen.sort_unstable();
                    let mut resident: Vec<u64> = model.sets.concat();
                    resident.sort_unstable();
                    assert_eq!(seen, resident, "{at}");
                    // Two fills a set land in the holes; the third evicts
                    // the model's victim.
                    for line in next..next + 3 * sets {
                        let evicted = cache.fill(line, false).map(|e| e.line);
                        assert_eq!(evicted, model.fill(line), "{at}");
                        assert_eq!(evicted.is_some(), line >= next + 2 * sets, "{at}");
                    }
                    model.assert_is(&cache, &at);
                    let mut dirty = cache.flush_dirty();
                    dirty.sort_unstable();
                    let mut expected: Vec<u64> = model.sets.concat();
                    expected.retain(|&line| line < next && line % 3 == 0);
                    expected.sort_unstable();
                    assert_eq!(dirty, expected, "{at}");
                    assert_like_fresh(&cache, &SetAssocCache::new(sets as usize * 5 * 64, 5));
                }
            }
        }
    }

    #[test]
    fn ring_heads_wrap_under_a_miss_stream_and_evict_first_in_first_out() {
        let mut cache = SetAssocCache::new(4 * 5 * 64, 5);
        let mut wraps = 0;
        for line in 0..4 * 5 * 4u64 {
            let evicted = cache.probe_fill(line, false).1.map(|e| e.line);
            assert_eq!(evicted, line.checked_sub(20), "line {line}");
            let head = cache.heads[(line % 4) as usize];
            assert_eq!(u64::from(head), (20 - 1 - line / 4 % 5) % 5, "line {line}");
            wraps += usize::from(line % 4 == 0 && head == 4);
        }
        assert!(wraps >= 3, "set 0's head wrapped {wraps} times");
        assert_eq!((cache.misses(), cache.evictions()), (80, 60));
    }

    #[test]
    fn miss_then_hit() {
        let mut c = SetAssocCache::new(4096, 8);
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
        let mut c = SetAssocCache::new(8 * 64, 8);
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
        let mut c = SetAssocCache::new(2 * 64, 2);
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
        let mut c = SetAssocCache::new(2 * 64, 2);
        c.fill(0, true);
        c.fill(1, false);
        let ev = c.fill(2, false).expect("eviction");
        // Line 0 was LRU and dirty.
        assert_eq!(ev.line, 0);
        assert!(ev.dirty);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = SetAssocCache::new(4 * 64, 4);
        c.fill(7, false);
        c.touch(7, true);
        let dirty = c.flush_dirty();
        assert_eq!(dirty, vec![7]);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = SetAssocCache::new(4 * 64, 4);
        c.fill(3, true);
        assert_eq!(c.invalidate(3), Some(true));
        assert_eq!(c.invalidate(3), None);
        assert!(!c.contains(3));
    }

    #[test]
    fn fill_existing_line_is_idempotent() {
        let mut c = SetAssocCache::new(4 * 64, 4);
        c.fill(5, false);
        assert!(c.fill(5, true).is_none());
        assert_eq!(c.resident_lines(), 1);
        // The second fill marked it dirty.
        assert_eq!(c.flush_dirty(), vec![5]);
    }

    #[test]
    fn geometry_rounded_to_power_of_two_sets_preserves_capacity() {
        // 48 KiB, 12-way: 768 lines, 64 sets (power of two already).
        let c = SetAssocCache::new(48 * 1024, 12);
        assert_eq!(c.capacity_lines(), 768);
        // 54 MiB, 12-way: 884736 lines; sets rounded to power of two.
        let c = SetAssocCache::new(54 * 1024 * 1024, 12);
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
        let mut combined = SetAssocCache::new(4 * 64, 2);
        let mut twostep = SetAssocCache::new(4 * 64, 2);
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
    fn a_probe_fill_hit_makes_its_line_the_most_recent() {
        // One set of two ways: 0 then 1, so 0 is the least recently used.
        let mut c = SetAssocCache::new(2 * 64, 2);
        c.fill(0, false);
        c.fill(1, false);
        // A hit on 0, by either kind of access, makes 1 the one to go.
        for (write, next) in [(false, 2), (true, 3)] {
            assert_eq!(c.probe_fill(0, write), (LookupResult::Hit, None));
            let evicted = c.fill(next, false).expect("a full set evicts");
            assert_ne!(evicted.line, 0, "a probe_fill hit left its line behind");
        }
        // And the write hit left it dirty.
        assert_eq!(c.flush_dirty(), vec![0]);
    }

    #[test]
    fn touch_repeat_counts_bulk_hits() {
        let mut c = SetAssocCache::new(4 * 64, 4);
        c.fill(9, false);
        assert!(c.touch_repeat(9, 7));
        assert_eq!(c.hits(), 7);
        assert_eq!(c.misses(), 0);
        // Non-resident lines are refused without touching the counters.
        assert!(!c.touch_repeat(13, 3));
        assert_eq!(c.hits(), 7);
        assert_eq!(c.misses(), 0);
        // Zero repeats are vacuously accounted — resident line or not —
        // and refresh nothing: 9 stays the least recently used of its set.
        assert!(c.touch_repeat(13, 0));
        for line in [17, 21, 25] {
            c.fill(line, false);
        }
        assert!(c.touch_repeat(9, 0));
        assert_eq!((c.hits(), c.misses()), (7, 0));
        assert_eq!(c.fill(29, false).map(|e| e.line), Some(9));
    }

    #[test]
    fn touch_repeat_preserves_the_dirty_bit() {
        // The batched path is load-only: it must neither clear an existing
        // dirty bit nor set one — repeated resident *stores* go through the
        // regular write path instead.
        let mut c = SetAssocCache::new(4 * 64, 4);
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
        let mut c = SetAssocCache::new(1 << 20, 16);
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
        let mut c = SetAssocCache::new(8 * 64, 4);
        for line in 0..12u64 {
            c.probe_fill(line, line % 2 == 0);
        }
        assert!(c.resident_lines() > 0 && c.misses() > 0);
        c.invalidate(9);
        assert!(c.heads.iter().any(|&h| h != 0));
        c.reset();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!((c.hits(), c.misses()), (0, 0));
        // Behaves exactly like a fresh cache afterwards, and is one: every
        // head is zero again.
        let mut fresh = SetAssocCache::new(8 * 64, 4);
        assert_like_fresh(&c, &fresh);
        for line in [3u64, 7, 3, 11, 3] {
            assert_eq!(c.probe_fill(line, false), fresh.probe_fill(line, false));
        }
    }

    #[test]
    fn reshape_adopts_another_geometry_in_place() {
        let mut c = SetAssocCache::new(64 * 64, 4);
        // Shrink, grow past the first arena, return: each time with lines
        // still resident, each time like a fresh cache.  The last four are
        // an unshared 54 MiB L3 and its 1.5 MiB share, which a pooled
        // `CoreSim` alternates between sharer counts.
        let l3 = [(13 << 16, 13), (24576, 12)];
        let small = [(8usize, 4usize), (256, 8), (64, 4), (12, 3)];
        for (lines, ways) in small.into_iter().chain(l3).chain(l3) {
            for line in 0..100u64 {
                c.probe_fill(line * 3, line % 2 == 0);
            }
            c.reshape(lines * 64, ways);
            let mut fresh = SetAssocCache::new(lines * 64, ways);
            assert_eq!(c.capacity_lines(), lines);
            assert_eq!(c.capacity_lines(), fresh.capacity_lines());
            assert_eq!(c.resident_lines(), 0);
            assert_eq!((c.hits(), c.misses(), c.evictions()), (0, 0, 0));
            assert_like_fresh(&c, &fresh);
            for n in 0..400u64 {
                let line = (n * 7) % 61;
                assert_eq!(
                    c.probe_fill(line, n % 3 == 0),
                    fresh.probe_fill(line, n % 3 == 0),
                    "{lines} lines, access {n}"
                );
            }
            assert_eq!(c.evictions(), fresh.evictions());
            assert!(lines >= 61 || c.evictions() > 0);
        }
    }

    #[test]
    fn flush_drains_and_tracking_restarts() {
        let mut c = SetAssocCache::new(64 * 64, 4);
        c.fill(1, true);
        c.fill(2, false);
        c.fill(65, true); // second set
        let mut d = c.flush_dirty();
        d.sort_unstable();
        assert_eq!(d, vec![1, 65]);
        assert_eq!(c.resident_lines(), 0);
        assert_like_fresh(&c, &SetAssocCache::new(64 * 64, 4));
        // Used-set tracking restarts cleanly: a second flush is empty, new
        // fills are drained again.
        assert!(c.flush_dirty().is_empty());
        c.fill(130, true);
        assert_eq!(c.flush_dirty(), vec![130]);
        // After any mix of operations a drain leaves every head zero.
        for n in 0..2000u64 {
            let line = (n * n) % 331;
            match n % 7 {
                0 | 1 => drop(c.fill(line, n % 2 == 0)),
                2 | 3 => drop(c.probe_fill(line, n % 2 == 0)),
                4 => drop(c.fill_if_absent(line)),
                5 => drop(c.invalidate(line)),
                _ => drop(c.touch(line, true)),
            }
        }
        let resident = c.resident_lines();
        assert!(resident > 40 && c.evictions() > 0);
        c.flush_dirty();
        assert_like_fresh(&c, &SetAssocCache::new(64 * 64, 4));
    }

    #[test]
    fn resident_count_matches_contains() {
        let mut cache = SetAssocCache::new(64 * 64, 8);
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
    fn fill_if_absent_fills_an_absent_line_and_leaves_a_resident_one_as_it_was() {
        // Two caches see the same accesses; `prefetched` also gets a
        // `fill_if_absent` of a resident line after each of them.  Were that
        // to refresh the line, the full sets would pick other victims from
        // then on.
        let mut plain = SetAssocCache::new(8 * 64, 4);
        let mut prefetched = SetAssocCache::new(8 * 64, 4);
        for n in 0..200u64 {
            let line = (n * 7) % 23;
            let write = n % 3 == 0;
            let at = format!("access {n}");
            assert_eq!(
                plain.probe_fill(line, write),
                prefetched.probe_fill(line, write),
                "{at}"
            );
            let resident = (0..23u64)
                .map(|k| (n + k) % 23)
                .find(|&l| prefetched.contains(l))
                .expect("the cache is not empty");
            assert_eq!(
                prefetched.fill_if_absent(resident),
                (LookupResult::Hit, None),
                "{at}"
            );
        }
        let stats = |c: &SetAssocCache| (c.hits(), c.misses(), c.evictions());
        assert_eq!(stats(&plain), stats(&prefetched));
        // An absent line is `fill(line, false)` — here into full sets — and
        // no demand access either.
        for line in 100..110u64 {
            let (result, evicted) = prefetched.fill_if_absent(line);
            assert_eq!(result, LookupResult::Miss);
            assert_eq!(evicted, plain.fill(line, false));
            assert!(evicted.is_some() && prefetched.contains(line));
        }
        assert_eq!(stats(&plain), stats(&prefetched));
        let (mut d1, mut d2) = (plain.flush_dirty(), prefetched.flush_dirty());
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
    }

    #[test]
    fn the_window_count_is_the_resident_lines_of_the_window() {
        // Fills, hits, prefetch fills and invalidations of lines in and
        // around the window, in a cache small enough that most fills
        // evict and in one of 128 Ki lines; after every step the O(1)
        // count equals a scan.
        for (capacity_lines, ways) in [(64usize, 4usize), (1 << 17, 16)] {
            let span = capacity_lines as u64 * 3;
            let (lo, hi) = (span / 3, span / 3 * 2);
            let mut cache = WindowedCache::with_window(capacity_lines * 64, ways, lo, hi);
            assert_eq!(cache.window_lines(), 0);
            let scan = |cache: &WindowedCache| {
                let mut inside = 0;
                cache.for_each_resident(|line, _| inside += u64::from((lo..=hi).contains(&line)));
                inside
            };
            let mut draw = 0x2545_f491_4f6c_dd1du64;
            for step in 0..20_000u64 {
                draw = draw
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let line = (draw >> 33) % span;
                match step % 4 {
                    0 => _ = cache.probe_fill(line, draw & 1 == 0),
                    1 => _ = cache.fill_if_absent(line),
                    2 => _ = cache.invalidate(line),
                    _ => _ = cache.fill(line, false),
                }
                if step % 97 == 0 || capacity_lines == 64 {
                    assert_eq!(cache.window_lines(), scan(&cache), "step {step}");
                }
            }
            assert!(cache.window_lines() > 0);
            // A drain or a reset empties the window and keeps counting it.
            cache.flush_dirty();
            assert_eq!(cache.window_lines(), 0);
            cache.fill(lo, true);
            assert_eq!(cache.window_lines(), 1);
            cache.reset();
            assert_eq!(cache.window_lines(), 0);
            cache.fill(hi, false);
            assert_eq!(cache.window_lines(), 1);
            // A plain cache counts nothing.
            let mut plain = SetAssocCache::new(capacity_lines * 64, ways);
            plain.fill(lo, false);
            assert_eq!(plain.window, Window::default());
        }
    }
}
