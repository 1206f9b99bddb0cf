//! Cache hierarchy specifications.
//!
//! The cache specs only describe *capacity, organisation and policy
//! selectors*; the actual simulation of hits/misses/write-allocates lives
//! in `clover-cachesim`.

use crate::policy::WritePolicyKind;

/// Cache line size in bytes on every evaluated platform.
pub const CACHE_LINE_BYTES: usize = 64;

/// Identifies a level in the cache hierarchy.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum CacheLevel {
    /// Private level-1 data cache.
    L1,
    /// Private level-2 cache.
    L2,
    /// Shared last-level cache (per socket on ICX/SPR).
    L3,
}

impl CacheLevel {
    /// All levels, nearest to the core first.
    pub const ALL: [CacheLevel; 3] = [CacheLevel::L1, CacheLevel::L2, CacheLevel::L3];
}

impl std::fmt::Display for CacheLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheLevel::L1 => write!(f, "L1"),
            CacheLevel::L2 => write!(f, "L2"),
            CacheLevel::L3 => write!(f, "L3"),
        }
    }
}

/// Organisation of a single cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheSpec {
    /// Which level this spec describes.
    pub level: CacheLevel,
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Line size in bytes (64 on all evaluated machines).
    pub line_bytes: usize,
    /// Whether the cache is shared between cores (`true` for L3).
    pub shared: bool,
}

impl CacheSpec {
    /// Construct a new spec, validating that the geometry is consistent.
    ///
    /// # Panics
    /// Panics if the capacity is not divisible into an integral number of
    /// sets of `associativity` lines.
    pub fn new(
        level: CacheLevel,
        capacity_bytes: usize,
        associativity: usize,
        line_bytes: usize,
        shared: bool,
    ) -> Self {
        assert!(capacity_bytes > 0 && associativity > 0 && line_bytes > 0);
        assert_eq!(
            capacity_bytes % (associativity * line_bytes),
            0,
            "cache capacity must be an integral number of sets"
        );
        Self {
            level,
            capacity_bytes,
            associativity,
            line_bytes,
            shared,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity_bytes / (self.associativity * self.line_bytes)
    }

    /// Number of cache lines that fit in this cache.
    pub fn lines(&self) -> usize {
        self.capacity_bytes / self.line_bytes
    }
}

/// The full cache hierarchy of one machine.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MemoryHierarchySpec {
    /// Private L1 data cache (per core).
    pub l1: CacheSpec,
    /// Private L2 cache (per core).
    pub l2: CacheSpec,
    /// Shared L3 cache (per socket).
    pub l3: CacheSpec,
    /// Number of cores sharing the L3.
    pub l3_sharers: usize,
    /// What a store miss does (write-allocate on every paper machine).
    pub write_policy: WritePolicyKind,
}

impl MemoryHierarchySpec {
    /// Same hierarchy with a different store-miss policy.
    pub fn with_write_policy(mut self, write_policy: WritePolicyKind) -> Self {
        self.write_policy = write_policy;
        self
    }

    /// Look up a level's spec.
    pub fn level(&self, level: CacheLevel) -> &CacheSpec {
        match level {
            CacheLevel::L1 => &self.l1,
            CacheLevel::L2 => &self.l2,
            CacheLevel::L3 => &self.l3,
        }
    }

    /// Aggregate private + shared cache capacity available to one core when
    /// all `l3_sharers` cores are active, in bytes.
    ///
    /// The paper uses this quantity (≈ 2.75 MiB on ICX) to argue that the
    /// layer condition of the CloverLeaf loops cannot be broken by the
    /// one-dimensional decomposition.
    pub fn per_core_capacity(&self) -> usize {
        self.l2.capacity_bytes + self.l3.capacity_bytes / self.l3_sharers.max(1)
    }

    /// Effective cache capacity available for layer-condition reuse.
    ///
    /// Following the paper's rule of thumb, only half the available cache is
    /// assumed to be usable for holding stencil rows (the rest is shared
    /// with other arrays and incoming streams).
    pub fn layer_condition_capacity(&self) -> usize {
        self.per_core_capacity() / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::icelake_sp_8360y;

    #[test]
    fn icx_cache_geometry() {
        let m = icelake_sp_8360y();
        assert_eq!(m.caches.l1.capacity_bytes, 48 * 1024);
        assert_eq!(m.caches.l2.capacity_bytes, 1280 * 1024);
        assert_eq!(m.caches.l3.capacity_bytes, 54 * 1024 * 1024);
        assert_eq!(m.caches.l1.line_bytes, CACHE_LINE_BYTES);
    }

    #[test]
    fn sets_and_lines_consistent() {
        let spec = CacheSpec::new(CacheLevel::L1, 48 * 1024, 12, 64, false);
        assert_eq!(spec.lines(), 768);
        assert_eq!(spec.sets(), 64);
        assert_eq!(spec.sets() * spec.associativity, spec.lines());
    }

    #[test]
    #[should_panic(expected = "integral number of sets")]
    fn invalid_geometry_panics() {
        let _ = CacheSpec::new(CacheLevel::L1, 48 * 1024 + 1, 12, 64, false);
    }

    #[test]
    fn per_core_capacity_icx_is_about_2_75_mib() {
        let m = icelake_sp_8360y();
        let per_core = m.caches.per_core_capacity() as f64 / (1024.0 * 1024.0);
        assert!((per_core - 2.78).abs() < 0.1, "got {per_core} MiB");
    }

    #[test]
    fn level_lookup_roundtrip() {
        let m = icelake_sp_8360y();
        for lvl in CacheLevel::ALL {
            assert_eq!(m.caches.level(lvl).level, lvl);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(CacheLevel::L1.to_string(), "L1");
        assert_eq!(CacheLevel::L3.to_string(), "L3");
    }

    #[test]
    fn policy_fields_default_to_the_papers_configuration() {
        let m = icelake_sp_8360y();
        assert_eq!(m.caches.write_policy, WritePolicyKind::Allocate);
    }
}
