//! An oracle for `SetAssocCache<TrueLru>` that shares none of its code: a
//! deliberately naive set-associative cache in the shape of a pin-tool
//! model — one `Way { valid, lru, tag, dirty }` per slot in a
//! `Vec<Vec<Way>>`, linear scans, a global access clock.  No packed tag
//! words, no sets kept as rings in recency order behind a head index, no
//! presence filter answering for an absent line, no remembered miss, no
//! used-set tracking: every shortcut the real cache takes is absent here,
//! so a misconception built into those shortcuts cannot pass.
//!
//! Both are driven with the same operation sequences — adversarial
//! (congruent lines of a few sets, more of them than ways) and streaming —
//! and must agree on every hit, every victim and every dirty write-back,
//! across `reshape`s of the real cache to smaller and larger geometries.
//!
//! That model speaks true LRU only.  What every policy shares — which
//! lines are resident and which of them are dirty — has a second, smaller
//! model below ([`Membership`]): a map from line to dirty flag that learns
//! the victims from the cache's own returned evictions, so it needs no
//! knowledge of how a victim is chosen, and holds all four policies to it.
//!
//! Last, eviction sets (Snippet 1's construction over `L2_CACHE_WAYS`) as
//! invariants at the paper machine's three geometries: how many congruent
//! lines it takes to evict a victim, and which line goes.

use cloverleaf_wa::cachesim::cache::LookupResult;
use cloverleaf_wa::cachesim::{SetAssocCache, TrueLru};
use proptest::prelude::*;

use cloverleaf_wa::cachesim::cache::Eviction;
use cloverleaf_wa::cachesim::{RandomEvict, ReplacementPolicy, Srrip, TreePlru};
use std::collections::HashMap;

#[derive(Clone, Copy, Default)]
struct Way {
    valid: bool,
    lru: u64,
    tag: u64,
    dirty: bool,
}

struct NaiveCache {
    sets: Vec<Vec<Way>>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl NaiveCache {
    /// 64-byte lines; the largest power-of-two set count that leaves at
    /// least `ways` ways, the ways widened to keep the capacity (what the
    /// documentation of `SetAssocCache::new` promises).
    fn new(capacity_bytes: usize, ways: usize) -> Self {
        let lines = capacity_bytes / 64;
        let mut sets = 1;
        while sets * 2 * ways <= lines {
            sets *= 2;
        }
        Self {
            sets: vec![vec![Way::default(); (lines / sets).max(1)]; sets],
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn capacity_lines(&self) -> usize {
        self.sets.len() * self.sets[0].len()
    }

    fn locate(&self, line: u64) -> (usize, u64) {
        let sets = self.sets.len() as u64;
        ((line % sets) as usize, line / sets)
    }

    fn find(&mut self, line: u64) -> Option<&mut Way> {
        let (set, tag) = self.locate(line);
        self.sets[set].iter_mut().find(|w| w.valid && w.tag == tag)
    }

    fn touch(&mut self, line: u64, write: bool) -> bool {
        self.clock += 1;
        let clock = self.clock;
        match self.find(line) {
            Some(way) => {
                way.lru = clock;
                way.dirty |= write;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Insert or refresh; the displaced `(line, dirty)` if a valid way had
    /// to go.
    fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        self.clock += 1;
        let clock = self.clock;
        if let Some(way) = self.find(line) {
            way.lru = clock;
            way.dirty |= dirty;
            return None;
        }
        let (set, tag) = self.locate(line);
        let sets = self.sets.len() as u64;
        let ways = &mut self.sets[set];
        let slot = match ways.iter().position(|w| !w.valid) {
            Some(free) => free,
            None => {
                let oldest = ways.iter().map(|w| w.lru).min().expect("a set has ways");
                ways.iter()
                    .position(|w| w.lru == oldest)
                    .expect("found above")
            }
        };
        let old = ways[slot];
        ways[slot] = Way {
            valid: true,
            lru: clock,
            tag,
            dirty,
        };
        self.evictions += old.valid as u64;
        old.valid
            .then_some((old.tag * sets + set as u64, old.dirty))
    }

    fn probe_fill(&mut self, line: u64, write: bool) -> (bool, Option<(u64, bool)>) {
        if self.touch(line, write) {
            (true, None)
        } else {
            (false, self.fill(line, write))
        }
    }

    fn invalidate(&mut self, line: u64) -> Option<bool> {
        let way = self.find(line)?;
        way.valid = false;
        Some(way.dirty)
    }

    fn resident(&self) -> Vec<u64> {
        let sets = self.sets.len() as u64;
        let mut lines: Vec<u64> = (0..)
            .zip(&self.sets)
            .flat_map(|(set, ways)| {
                ways.iter()
                    .filter(|w| w.valid)
                    .map(move |w| w.tag * sets + set)
            })
            .collect();
        lines.sort_unstable();
        lines
    }

    fn flush_dirty(&mut self) -> Vec<u64> {
        let sets = self.sets.len() as u64;
        let mut dirty = Vec::new();
        for (set, ways) in (0..).zip(&mut self.sets) {
            for way in ways.iter_mut().filter(|w| w.valid) {
                if way.dirty {
                    dirty.push(way.tag * sets + set);
                }
                way.valid = false;
            }
        }
        dirty.sort_unstable();
        dirty
    }
}

/// `(capacity in lines, nominal ways)`: one and many sets, power-of-two
/// and widened associativities, the paper machines' L1/L2/L3 ratios.
const GEOMETRIES: [(usize, usize); 10] = [
    (8, 8),
    (2, 2),
    (64, 4),
    (96, 12),
    (768, 12),
    (2560, 20),
    (3 * 4096, 12),
    (13824, 12),
    (30720, 15),
    (1 << 16, 16),
];

fn hit(result: LookupResult) -> bool {
    result == LookupResult::Hit
}

proptest! {
    #[test]
    fn set_assoc_cache_agrees_with_a_naive_reference_cache(
        seed in 0u64..u64::MAX,
        first in 0usize..GEOMETRIES.len(),
    ) {
        let mut state = seed;
        let mut draw = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let (lines, ways) = GEOMETRIES[first];
        let mut cache: SetAssocCache<TrueLru> = SetAssocCache::new(lines * 64, ways);
        let mut geometry = first;
        for episode in 0..6 {
            let (lines, ways) = GEOMETRIES[geometry];
            let mut naive = NaiveCache::new(lines * 64, ways);
            prop_assert_eq!(cache.capacity_lines(), naive.capacity_lines(), "{:?}", (lines, ways));
            let sets = naive.sets.len() as u64;
            let assoc = naive.sets[0].len() as u64;
            // Adversarial episodes pick among `assoc + 3` congruent lines
            // of three sets; streaming ones walk forward with re-references.
            let adversarial = episode % 2 == 0;
            let base = (1 << 20) + draw(1 << 40);
            let mut cursor = base;
            for step in 0..1500 {
                let line = if adversarial {
                    base + draw(3) + draw(assoc + 3) * sets
                } else {
                    cursor += draw(3);
                    cursor - draw(2) * draw(4 * assoc)
                };
                let flag = draw(2) == 1;
                let at = (episode, step, line);
                match draw(16) {
                    0..=4 => prop_assert_eq!(hit(cache.touch(line, flag)), naive.touch(line, flag), "{:?}", at),
                    5..=8 => {
                        let evicted = cache.fill(line, flag).map(|e| (e.line, e.dirty));
                        prop_assert_eq!(evicted, naive.fill(line, flag), "{:?}", at);
                    }
                    9..=13 => {
                        let (result, evicted) = cache.probe_fill(line, flag);
                        let got = (hit(result), evicted.map(|e| (e.line, e.dirty)));
                        prop_assert_eq!(got, naive.probe_fill(line, flag), "{:?}", at);
                    }
                    14 => prop_assert_eq!(cache.invalidate(line), naive.invalidate(line), "{:?}", at),
                    _ if draw(8) == 0 => {
                        let mut dirty = cache.flush_dirty();
                        dirty.sort_unstable();
                        prop_assert_eq!(dirty, naive.flush_dirty(), "{:?}", at);
                    }
                    _ => prop_assert_eq!(cache.contains(line), naive.find(line).is_some(), "{:?}", at),
                }
            }
            prop_assert_eq!(
                (cache.hits(), cache.misses(), cache.evictions()),
                (naive.hits, naive.misses, naive.evictions)
            );
            let mut resident = Vec::new();
            cache.for_each_resident(|line, _| resident.push(line));
            resident.sort_unstable();
            prop_assert_eq!(resident, naive.resident());
            if draw(2) == 0 {
                let mut dirty = cache.flush_dirty();
                dirty.sort_unstable();
                prop_assert_eq!(dirty, naive.flush_dirty());
            }
            // On to a random other geometry, smaller or larger, in place —
            // half the time with the lines of this episode still resident.
            geometry = draw(GEOMETRIES.len() as u64) as usize;
            let (lines, ways) = GEOMETRIES[geometry];
            cache.reshape(lines * 64, ways);
        }
    }
}

/// What is resident, and dirty, whatever the replacement policy: the lines
/// inserted and not yet evicted, invalidated or flushed.  Which line a full
/// set gives up is the cache's word — checked to name a resident line of
/// that set with the dirty flag the model holds for it, and to come exactly
/// when the set is full.
struct Membership {
    lines: HashMap<u64, bool>,
    /// Resident lines per set index.
    per_set: HashMap<u64, usize>,
    sets: u64,
    ways: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Membership {
    fn new(capacity_bytes: usize, ways: usize) -> Self {
        let geometry = NaiveCache::new(capacity_bytes, ways);
        Self {
            lines: HashMap::new(),
            per_set: HashMap::new(),
            sets: geometry.sets.len() as u64,
            ways: geometry.sets[0].len(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// A demand access: whether it must hit.
    fn touch(&mut self, line: u64, write: bool) -> bool {
        match self.lines.get_mut(&line) {
            Some(dirty) => {
                *dirty |= write;
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// The absent `line` goes in, and the cache reports `evicted`.
    fn insert(&mut self, line: u64, dirty: bool, evicted: Option<(u64, bool)>, at: &str) {
        let set = line % self.sets;
        let full = self.per_set.get(&set).copied().unwrap_or(0) == self.ways;
        prop_assert_eq!(
            evicted.is_some(),
            full,
            "{}: evicts iff the set is full",
            at
        );
        if let Some((victim, victim_dirty)) = evicted {
            prop_assert_eq!(victim >> 63, 0, "{}: the flag bit leaked into a line", at);
            prop_assert_eq!(victim % self.sets, set, "{}: victim of another set", at);
            let held = self.lines.remove(&victim);
            prop_assert_eq!(held, Some(victim_dirty), "{}: victim {}", at, victim);
            self.evictions += 1;
        } else {
            *self.per_set.entry(set).or_insert(0) += 1;
        }
        self.lines.insert(line, dirty);
    }

    /// `fill`: refresh a resident line (never an eviction), else insert.
    fn fill(&mut self, line: u64, dirty: bool, evicted: Option<(u64, bool)>, at: &str) {
        match self.lines.get_mut(&line) {
            Some(held) => {
                *held |= dirty;
                prop_assert_eq!(evicted, None, "{}: a refresh evicts nothing", at);
            }
            None => self.insert(line, dirty, evicted, at),
        }
    }

    fn invalidate(&mut self, line: u64) -> Option<bool> {
        let dirty = self.lines.remove(&line)?;
        *self.per_set.get_mut(&(line % self.sets)).expect("counted") -= 1;
        Some(dirty)
    }

    fn sorted(&self, only_dirty: bool) -> Vec<(u64, bool)> {
        let mut lines: Vec<(u64, bool)> = (self.lines.iter())
            .filter(|(_, &dirty)| dirty || !only_dirty)
            .map(|(&line, &dirty)| (line, dirty))
            .collect();
        lines.sort_unstable();
        lines
    }

    fn clear(&mut self) {
        self.lines.clear();
        self.per_set.clear();
    }
}

/// Drive one policy through the op mix of the LRU oracle above — plus
/// `touch_repeat`, `fill_if_absent` and the draining reads — against the
/// membership model.
fn check_membership<R: ReplacementPolicy>(seed: u64, first: usize) {
    let mut state = seed;
    let mut draw = |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    let pair = |e: Option<Eviction>| e.map(|e| (e.line, e.dirty));
    let (lines, ways) = GEOMETRIES[first];
    let mut cache: SetAssocCache<R> = SetAssocCache::new(lines * 64, ways);
    let mut geometry = first;
    for episode in 0..6 {
        let (lines, ways) = GEOMETRIES[geometry];
        let mut model = Membership::new(lines * 64, ways);
        prop_assert_eq!(cache.capacity_lines(), model.sets as usize * model.ways);
        let (sets, assoc) = (model.sets, model.ways as u64);
        let adversarial = episode % 2 == 0;
        let base = (1 << 20) + draw(1 << 40);
        let mut cursor = base;
        // Every third episode half the accesses go to lines that collide
        // in the cache's presence filter (`cache.rs`: four counters a line
        // of capacity, rounded up to a power of two, indexed by the top
        // bits of `line × 0x9E37_79B9_7F4A_7C15`): preimages of one counter
        // through the multiplier's inverse modulo 2^64, the first of them
        // that are line indices.  A counter shared by lines that come and
        // go must still never call a resident one absent.
        let colliding: Vec<u64> = if episode % 3 == 2 {
            let bits = (4 * lines).next_power_of_two().trailing_zeros();
            let counter = draw(1 << bits) << (64 - bits);
            (0u64..)
                .map(|low| (counter | low).wrapping_mul(0xF1DE_83E1_9937_733D))
                .filter(|&line| line < 1 << 58)
                .take(2 * ways + 6)
                .collect()
        } else {
            Vec::new()
        };
        for step in 0..1500 {
            let line = if !colliding.is_empty() && draw(2) == 0 {
                colliding[draw(colliding.len() as u64) as usize]
            } else if adversarial {
                base + draw(3) + draw(assoc + 3) * sets
            } else {
                cursor += draw(3);
                cursor - draw(2) * draw(4 * assoc)
            };
            let flag = draw(2) == 1;
            let at = format!("{} {:?}", R::KIND, (episode, step, line));
            match draw(20) {
                0..=3 => prop_assert_eq!(
                    hit(cache.touch(line, flag)),
                    model.touch(line, flag),
                    "{}",
                    at
                ),
                4..=6 => model.fill(line, flag, pair(cache.fill(line, flag)), &at),
                7..=10 => {
                    let (result, evicted) = cache.probe_fill(line, flag);
                    prop_assert_eq!(hit(result), model.touch(line, flag), "{}", at);
                    if hit(result) {
                        prop_assert_eq!(evicted, None, "{}", at);
                    } else {
                        model.insert(line, flag, pair(evicted), &at);
                    }
                }
                11..=12 => {
                    // Load-only bulk hits: counted, never dirtying.
                    let n = draw(9);
                    let resident = model.lines.contains_key(&line);
                    prop_assert_eq!(cache.touch_repeat(line, n), resident || n == 0, "{}", at);
                    model.hits += if resident { n } else { 0 };
                }
                13..=15 => {
                    // A prefetch's fill: no demand access, and nothing at
                    // all for a resident line.
                    let (result, evicted) = cache.fill_if_absent(line);
                    prop_assert_eq!(hit(result), model.lines.contains_key(&line), "{}", at);
                    if hit(result) {
                        prop_assert_eq!(evicted, None, "{}", at);
                    } else {
                        model.insert(line, false, pair(evicted), &at);
                    }
                }
                16..=17 => {
                    prop_assert_eq!(cache.invalidate(line), model.invalidate(line), "{}", at)
                }
                18 if draw(8) == 0 => {
                    let mut dirty = cache.flush_dirty();
                    dirty.sort_unstable();
                    let held: Vec<u64> = model.sorted(true).iter().map(|&(l, _)| l).collect();
                    prop_assert_eq!(dirty, held, "{}", at);
                    model.clear();
                }
                _ => prop_assert_eq!(
                    cache.contains(line),
                    model.lines.contains_key(&line),
                    "{}",
                    at
                ),
            }
        }
        prop_assert_eq!(
            (cache.hits(), cache.misses(), cache.evictions()),
            (model.hits, model.misses, model.evictions),
            "{}",
            R::KIND
        );
        let mut resident = Vec::new();
        cache.for_each_resident(|line, dirty| resident.push((line, dirty)));
        resident.sort_unstable();
        prop_assert_eq!(cache.resident_lines(), resident.len());
        prop_assert_eq!(resident, model.sorted(false), "{}", R::KIND);
        // On to a random other geometry, smaller or larger, in place, with
        // the lines of this episode still resident.
        geometry = draw(GEOMETRIES.len() as u64) as usize;
        let (lines, ways) = GEOMETRIES[geometry];
        cache.reshape(lines * 64, ways);
    }
}

proptest! {
    #[test]
    fn every_policy_keeps_the_lines_and_dirty_flags_a_membership_model_holds(
        seed in 0u64..u64::MAX,
        first in 0usize..GEOMETRIES.len(),
    ) {
        check_membership::<TrueLru>(seed, first);
        check_membership::<TreePlru>(seed, first);
        check_membership::<Srrip>(seed, first);
        check_membership::<RandomEvict>(seed, first);
    }
}

/// What it takes to evict `victim` from a set of `ways`: it survives
/// `ways - 1` congruent lines (same set index, a set-span apart), the
/// `ways`-th evicts one line of that set — under true LRU exactly the
/// victim, or the oldest congruent line if the victim was touched again
/// first; under the other policies some line of the set, which is all the
/// membership model can say — and lines of other sets never do, however
/// many.
fn check_eviction_set<R: ReplacementPolicy>(capacity_bytes: usize, nominal_ways: usize) {
    let shape = NaiveCache::new(capacity_bytes, nominal_ways);
    let (sets, ways) = (shape.sets.len() as u64, shape.sets[0].len() as u64);
    let lru = R::KIND == TrueLru::KIND;
    let at = format!("{} {}x{}", R::KIND, sets, ways);
    let victim = (1 << 32) + 5 % sets;
    let congruent = |n: u64| victim + n * sets;
    for retouch in [false, true] {
        let mut cache: SetAssocCache<R> = SetAssocCache::new(capacity_bytes, nominal_ways);
        assert_eq!(cache.capacity_lines() as u64, sets * ways, "{at}");
        assert_eq!(cache.fill(victim, true), None, "{at}");
        // Non-congruent lines, four times the capacity of them: they evict
        // each other and never the victim.
        for line in (0..4 * sets * ways).filter(|line| line % sets != victim % sets) {
            if let Some(evicted) = cache.fill(line, false) {
                assert_ne!(evicted.line % sets, victim % sets, "{at}");
            }
        }
        assert!(cache.contains(victim), "{at}");
        for n in 1..ways {
            assert_eq!(cache.fill(congruent(n), false), None, "{at}: line {n}");
        }
        assert!(cache.contains(victim), "{at}: {} congruent lines", ways - 1);
        if retouch {
            assert!(hit(cache.touch(victim, false)), "{at}");
        }
        let evicted = cache
            .fill(congruent(ways), false)
            .expect("the set was full");
        let set: Vec<u64> = (0..ways).map(congruent).collect();
        assert!(set.contains(&evicted.line), "{at}: evicted {evicted:?}");
        assert_eq!(evicted.dirty, evicted.line == victim, "{at}");
        if lru {
            assert_eq!(evicted.line, congruent(retouch as u64), "{at}");
        }
        // Exactly that line and nothing else.
        for &line in &set {
            assert_eq!(cache.contains(line), line != evicted.line, "{at}");
        }
        assert!(cache.contains(congruent(ways)), "{at}");
        assert_eq!(cache.resident_lines() as u64, sets * ways, "{at}");
    }
}

/// Eviction sets at the paper machine's geometries (Ice Lake SP 8360Y: the
/// L1, the L2, and one core's share of the L3 at 36 sharers).
#[test]
fn an_eviction_set_is_exactly_as_many_congruent_lines_as_the_set_has_ways() {
    for (capacity_bytes, ways) in [(48 << 10, 12), (1280 << 10, 20), (1536 << 10, 12)] {
        check_eviction_set::<TrueLru>(capacity_bytes, ways);
        check_eviction_set::<TreePlru>(capacity_bytes, ways);
        check_eviction_set::<Srrip>(capacity_bytes, ways);
        check_eviction_set::<RandomEvict>(capacity_bytes, ways);
    }
}
