//! The replacement policy: the one generic parameter of the hierarchy.
//!
//! The paper's machines are modelled as true-LRU, write-back +
//! write-allocate caches whose only deviation is the SpecI2M
//! write-allocate evasion.  Who gets evicted is decided on every probe
//! that misses a full set, so it is a type: [`ReplacementPolicy`], with
//! [`TrueLru`] (the default), [`TreePlru`], [`Srrip`] and a deterministic
//! [`RandomEvict`] whose xorshift seed lives in the policy state, so runs
//! are reproducible.  What a store miss does is consulted once per
//! finalized 64-byte store line, so it is data:
//! [`CoreSimOptions::write_policy`].
//!
//! The trait is a generic parameter of [`SetAssocCache`] and [`CoreSim`],
//! defaulted to the paper's configuration.  [`TrueLru`] sets the
//! `RECENCY_ORDER` constant: the cache then keeps each set as a ring in
//! recency order behind a head index — a fill overwrites the end of the
//! ring, which is the victim — so the default monomorphisation has no
//! victim search and calls none of the hooks below; the other policies
//! keep every line in the way it was filled into and are consulted
//! through them.
//!
//! [`SetAssocCache`]: crate::cache::SetAssocCache
//! [`CoreSim`]: crate::hierarchy::CoreSim
//! [`CoreSimOptions::write_policy`]: crate::hierarchy::CoreSimOptions::write_policy

use clover_machine::ReplacementPolicyKind;

/// Victim selection strategy of one [`SetAssocCache`] level.
///
/// Implementations own whatever per-set state they need (tree bits, RRPV
/// counters, an RNG seed); [`TrueLru`] owns nothing because the order of a
/// set's entries is itself the perfect recency.  All hooks receive the set
/// index and way index; `pick_victim` is only consulted when every way of
/// the set is valid (empty slots always win first).
///
/// [`SetAssocCache`]: crate::cache::SetAssocCache
pub trait ReplacementPolicy: std::fmt::Debug + Clone + Send + 'static {
    /// Selector this implementation corresponds to (used in memo keys and
    /// dispatch tables).
    const KIND: ReplacementPolicyKind;

    /// True when the victim is always the least recently used line.  The
    /// cache then keeps each set as a ring in recency order from a per-set
    /// head — a hit moves its entry to the head, a fill takes the slot
    /// before the head and with it the ring's last entry, the victim — may
    /// answer a miss from its presence filter, and calls none of the hooks
    /// below.  False (the default) keeps storage slot-stable: a line stays
    /// in the way it was filled into, which is what way-indexed policy
    /// state needs.
    const RECENCY_ORDER: bool = false;

    /// Construct state for a cache of `sets` sets with `ways` ways each.
    fn new(sets: usize, ways: usize) -> Self;

    /// Restore the freshly-constructed state (cache reset/flush).
    fn reset(&mut self);

    /// A resident way of `set` was accessed (hit or refresh).
    fn on_hit(&mut self, set: usize, way: usize);

    /// A line was inserted into `way` of `set`.
    fn on_fill(&mut self, set: usize, way: usize);

    /// Choose the victim among the `ways` (all valid) ways of `set`.
    /// May mutate state (SRRIP ages, the RNG advances).
    fn pick_victim(&mut self, set: usize, ways: usize) -> usize;

    /// `hole` of `set` was invalidated and the entry from `last` compacted
    /// into it (the cache keeps valid entries as a prefix).
    fn on_invalidate(&mut self, set: usize, hole: usize, last: usize);
}

/// True least-recently-used replacement — the paper's baseline and the
/// default. Stateless: the cache keeps each set as a ring in recency order
/// (`RECENCY_ORDER`), so the victim is whatever sits at its end.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrueLru;

impl ReplacementPolicy for TrueLru {
    const KIND: ReplacementPolicyKind = ReplacementPolicyKind::Lru;
    const RECENCY_ORDER: bool = true;

    #[inline]
    fn new(_sets: usize, _ways: usize) -> Self {
        TrueLru
    }

    #[inline]
    fn reset(&mut self) {}

    #[inline]
    fn on_hit(&mut self, _set: usize, _way: usize) {}

    #[inline]
    fn on_fill(&mut self, _set: usize, _way: usize) {}

    #[inline]
    fn pick_victim(&mut self, _set: usize, _ways: usize) -> usize {
        debug_assert!(false, "the LRU victim is the end of its set's ring");
        0
    }

    #[inline]
    fn on_invalidate(&mut self, _set: usize, _hole: usize, _last: usize) {}
}

/// Tree pseudo-LRU: one decision bit per internal node of a binary tree
/// over the (power-of-two padded) ways of each set, packed into one `u64`
/// per set.  An access flips the path bits away from the touched way; the
/// victim walk follows the bits, never descending into padding.
#[derive(Debug, Clone)]
pub struct TreePlru {
    /// Padded leaf count (`ways.next_power_of_two()`).
    leaves: usize,
    /// Decision bits, one word per set (node `i`'s bit is bit `i`; set bit
    /// means "the right subtree was less recently used").
    bits: Vec<u64>,
}

impl TreePlru {
    #[inline]
    fn walk_access(word: &mut u64, leaves: usize, way: usize) {
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = leaves;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                // Went left: point the bit right (away from the access).
                *word |= 1 << node;
                node = 2 * node + 1;
                hi = mid;
            } else {
                *word &= !(1 << node);
                node = 2 * node + 2;
                lo = mid;
            }
        }
    }
}

impl ReplacementPolicy for TreePlru {
    const KIND: ReplacementPolicyKind = ReplacementPolicyKind::Plru;

    fn new(sets: usize, ways: usize) -> Self {
        assert!(ways <= 64, "tree-PLRU state is packed into 64-bit words");
        Self {
            leaves: ways.next_power_of_two(),
            bits: vec![0u64; sets],
        }
    }

    fn reset(&mut self) {
        self.bits.fill(0);
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize) {
        let leaves = self.leaves;
        Self::walk_access(&mut self.bits[set], leaves, way);
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize) {
        let leaves = self.leaves;
        Self::walk_access(&mut self.bits[set], leaves, way);
    }

    fn pick_victim(&mut self, set: usize, ways: usize) -> usize {
        let word = self.bits[set];
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.leaves;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            // Follow the bit, but never descend into padding leaves beyond
            // the real associativity.
            if (word >> node) & 1 == 1 && mid < ways {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
        lo.min(ways - 1)
    }

    #[inline]
    fn on_invalidate(&mut self, _set: usize, _hole: usize, _last: usize) {
        // PLRU bits are heuristic; compaction leaves them as-is (stale bits
        // only bias, never break, victim selection).
    }
}

/// 2-bit static re-reference interval prediction (SRRIP-HP): lines are
/// inserted with a long predicted re-reference interval, promoted to the
/// shortest on a hit, and the first way predicted "distant" is evicted,
/// ageing the whole set until one qualifies.
#[derive(Debug, Clone)]
pub struct Srrip {
    ways: usize,
    /// Per-way re-reference prediction values, set-major (`sets × ways`).
    rrpv: Vec<u8>,
}

/// Distant-future RRPV (the eviction threshold of 2-bit SRRIP).
const RRPV_MAX: u8 = 3;
/// Insertion RRPV (long re-reference interval, SRRIP-HP).
const RRPV_INSERT: u8 = 2;

impl ReplacementPolicy for Srrip {
    const KIND: ReplacementPolicyKind = ReplacementPolicyKind::Srrip;

    fn new(sets: usize, ways: usize) -> Self {
        Self {
            ways,
            rrpv: vec![RRPV_MAX; sets * ways],
        }
    }

    fn reset(&mut self) {
        self.rrpv.fill(RRPV_MAX);
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = 0;
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = RRPV_INSERT;
    }

    fn pick_victim(&mut self, set: usize, ways: usize) -> usize {
        let base = set * self.ways;
        loop {
            for way in 0..ways {
                if self.rrpv[base + way] >= RRPV_MAX {
                    return way;
                }
            }
            for way in 0..ways {
                self.rrpv[base + way] += 1;
            }
        }
    }

    #[inline]
    fn on_invalidate(&mut self, set: usize, hole: usize, last: usize) {
        let base = set * self.ways;
        self.rrpv[base + hole] = self.rrpv[base + last];
        self.rrpv[base + last] = RRPV_MAX;
    }
}

/// Deterministic "random" eviction: a fixed-seed xorshift64 generator in
/// the policy state picks the victim way.  Reset restores the seed, so a
/// reset cache replays exactly like a fresh one and sweeps are
/// reproducible.
#[derive(Debug, Clone)]
pub struct RandomEvict {
    state: u64,
}

/// Fixed xorshift64 seed (the 64-bit golden-ratio constant).
const RANDOM_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

impl ReplacementPolicy for RandomEvict {
    const KIND: ReplacementPolicyKind = ReplacementPolicyKind::Random;

    fn new(_sets: usize, _ways: usize) -> Self {
        Self { state: RANDOM_SEED }
    }

    fn reset(&mut self) {
        self.state = RANDOM_SEED;
    }

    #[inline]
    fn on_hit(&mut self, _set: usize, _way: usize) {}

    #[inline]
    fn on_fill(&mut self, _set: usize, _way: usize) {}

    #[inline]
    fn pick_victim(&mut self, _set: usize, ways: usize) -> usize {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        (x % ways as u64) as usize
    }

    #[inline]
    fn on_invalidate(&mut self, _set: usize, _hole: usize, _last: usize) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_plru_cycles_through_all_ways() {
        // Accessing ways round-robin must never evict the just-accessed way.
        let ways = 8;
        let mut p = TreePlru::new(4, ways);
        let mut seen = vec![false; ways];
        let mut last = usize::MAX;
        for i in 0..4 * ways {
            let v = p.pick_victim(1, ways);
            assert!(v < ways);
            assert_ne!(v, last, "victim {v} was just accessed (step {i})");
            p.on_fill(1, v);
            seen[v] = true;
            last = v;
        }
        assert!(seen.iter().all(|&s| s), "every way must eventually cycle");
    }

    #[test]
    fn tree_plru_handles_non_power_of_two_ways() {
        let ways = 12; // padded to 16 leaves
        let mut p = TreePlru::new(2, ways);
        for _ in 0..64 {
            let v = p.pick_victim(0, ways);
            assert!(v < ways, "victim must be a real way, got {v}");
            p.on_hit(0, v);
        }
    }

    #[test]
    fn srrip_prefers_distant_lines_and_ages() {
        let ways = 4;
        let mut p = Srrip::new(1, ways);
        for way in 0..ways {
            p.on_fill(0, way);
        }
        p.on_hit(0, 2); // way 2 is re-referenced: protected
        let v = p.pick_victim(0, ways);
        assert_ne!(v, 2, "recently re-referenced way must survive ageing");
        // After enough rounds even the protected way becomes evictable.
        p.on_fill(0, v);
        let mut victims = std::collections::HashSet::new();
        for _ in 0..8 {
            let v = p.pick_victim(0, ways);
            victims.insert(v);
            p.on_fill(0, v);
        }
        assert!(victims.len() > 1);
    }

    #[test]
    fn srrip_invalidate_moves_state() {
        let mut p = Srrip::new(1, 4);
        p.on_fill(0, 0);
        p.on_fill(0, 1);
        p.on_fill(0, 2);
        p.on_hit(0, 2); // rrpv[2] = 0
                        // Invalidate way 0; way 2 (last valid) compacts into the hole.
        p.on_invalidate(0, 0, 2);
        assert_eq!(p.rrpv[0], 0, "compacted way keeps its RRPV");
        assert_eq!(p.rrpv[2], RRPV_MAX, "vacated slot is distant again");
    }

    #[test]
    fn random_is_deterministic_and_reset_replays() {
        let mut a = RandomEvict::new(16, 8);
        let mut b = RandomEvict::new(16, 8);
        let seq_a: Vec<usize> = (0..32).map(|_| a.pick_victim(0, 8)).collect();
        let seq_b: Vec<usize> = (0..32).map(|_| b.pick_victim(0, 8)).collect();
        assert_eq!(seq_a, seq_b);
        a.reset();
        let replay: Vec<usize> = (0..32).map(|_| a.pick_victim(0, 8)).collect();
        assert_eq!(seq_a, replay);
        assert!(seq_a.iter().any(|&v| v != seq_a[0]), "must vary victims");
        assert!(seq_a.iter().all(|&v| v < 8));
    }

    #[test]
    fn kinds_match_the_machine_registry() {
        assert_eq!(TrueLru::KIND, ReplacementPolicyKind::Lru);
        assert_eq!(TreePlru::KIND, ReplacementPolicyKind::Plru);
        assert_eq!(Srrip::KIND, ReplacementPolicyKind::Srrip);
        assert_eq!(RandomEvict::KIND, ReplacementPolicyKind::Random);
        assert!(TrueLru::RECENCY_ORDER && !TreePlru::RECENCY_ORDER);
    }
}
