//! A deliberately naive set-associative cache in the shape of a pin-tool
//! model — one `Way { valid, lru, tag, dirty }` per slot in a
//! `Vec<Vec<Way>>`, linear scans, a global access clock per cache — shared
//! by the two oracles that must not share code with the simulator:
//! `reference_cache` (one `SetAssocCache` in isolation) and
//! `reference_hierarchy` (the composed L1 → L2 → L3-share hierarchy).
//!
//! It lives apart from `tests/common`, which installs a counting global
//! allocator, and each binary that includes it uses a different part of
//! it.
#![allow(dead_code)]

#[derive(Clone, Copy, Default)]
pub struct Way {
    pub valid: bool,
    pub lru: u64,
    pub tag: u64,
    pub dirty: bool,
}

pub struct NaiveCache {
    /// The ways of each set, allocated by the set's first fill.
    pub sets: Vec<Vec<Way>>,
    pub ways: usize,
    clock: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl NaiveCache {
    /// 64-byte lines; the largest power-of-two set count that leaves at
    /// least `ways` ways, the ways widened to keep the capacity (what the
    /// documentation of `SetAssocCache::new` promises).
    pub fn new(capacity_bytes: usize, ways: usize) -> Self {
        let lines = capacity_bytes / 64;
        let mut sets = 1;
        while sets * 2 * ways <= lines {
            sets *= 2;
        }
        Self {
            sets: vec![Vec::new(); sets],
            ways: (lines / sets).max(1),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    pub fn capacity_lines(&self) -> usize {
        self.sets.len() * self.ways
    }

    fn locate(&self, line: u64) -> (usize, u64) {
        let sets = self.sets.len() as u64;
        ((line % sets) as usize, line / sets)
    }

    /// Whether `line` is resident (no clock tick, no count).
    pub fn contains(&self, line: u64) -> bool {
        let (set, tag) = self.locate(line);
        self.sets[set].iter().any(|w| w.valid && w.tag == tag)
    }

    pub fn find(&mut self, line: u64) -> Option<&mut Way> {
        let (set, tag) = self.locate(line);
        self.sets[set].iter_mut().find(|w| w.valid && w.tag == tag)
    }

    pub fn touch(&mut self, line: u64, write: bool) -> bool {
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
    pub fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
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
        ways.resize(self.ways, Way::default());
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

    pub fn probe_fill(&mut self, line: u64, write: bool) -> (bool, Option<(u64, bool)>) {
        if self.touch(line, write) {
            (true, None)
        } else {
            (false, self.fill(line, write))
        }
    }

    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let way = self.find(line)?;
        way.valid = false;
        Some(way.dirty)
    }

    pub fn resident(&self) -> Vec<u64> {
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

    pub fn flush_dirty(&mut self) -> Vec<u64> {
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
