//! An oracle for `SetAssocCache<TrueLru>` that shares none of its code: a
//! deliberately naive set-associative cache in the shape of a pin-tool
//! model — one `Way { valid, lru, tag, dirty }` per slot in a
//! `Vec<Vec<Way>>`, linear scans, a global access clock.  No packed lanes,
//! no SIMD probe, no valid-prefix invariant, no remembered miss slot, no
//! used-set tracking: every shortcut the real cache takes is absent here,
//! so a misconception built into those shortcuts cannot pass.
//!
//! Both are driven with the same operation sequences — adversarial
//! (congruent lines of a few sets, more of them than ways) and streaming —
//! and must agree on every hit, every victim and every dirty write-back,
//! across `reshape`s of the real cache to smaller and larger geometries.

use cloverleaf_wa::cachesim::cache::LookupResult;
use cloverleaf_wa::cachesim::{SetAssocCache, TrueLru};
use proptest::prelude::*;

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
