//! Cache policy selectors.
//!
//! The paper's machines all use (approximately) true-LRU replacement with
//! write-back + write-allocate caches, and the write-allocate-evasion story
//! is about one hardware mechanism (SpecI2M) punching a hole into that
//! write-allocate default.  Related designs sit elsewhere in the policy
//! space — the CVA6 d-cache is write-back + *no-write-allocate*, embedded
//! cores often ship pseudo-random replacement — so the machine model names
//! the policy corners here.
//!
//! These enums are *selectors*: pure data with a stable name registry for
//! the command line, serialisation and memo keys.  A replacement policy is
//! an analytic-model factor only ([`ReplacementPolicyKind::reuse_efficiency`]);
//! the cache simulator (`clover-cachesim`) is true LRU throughout.  A write
//! policy is honoured by both.

/// Which replacement policy the analytic traffic model assumes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum ReplacementPolicyKind {
    /// True least-recently-used (the paper's baseline assumption).
    #[default]
    Lru,
    /// Tree pseudo-LRU (one decision bit per internal node).
    Plru,
    /// Static re-reference interval prediction (2-bit SRRIP).
    Srrip,
    /// Random eviction.
    Random,
}

impl ReplacementPolicyKind {
    /// Every replacement policy, in canonical order.
    pub fn all() -> Vec<ReplacementPolicyKind> {
        vec![
            ReplacementPolicyKind::Lru,
            ReplacementPolicyKind::Plru,
            ReplacementPolicyKind::Srrip,
            ReplacementPolicyKind::Random,
        ]
    }

    /// Stable name used in ids, memo keys and on the command line.
    pub fn name(&self) -> &'static str {
        match self {
            ReplacementPolicyKind::Lru => "lru",
            ReplacementPolicyKind::Plru => "plru",
            ReplacementPolicyKind::Srrip => "srrip",
            ReplacementPolicyKind::Random => "random",
        }
    }

    /// Parse a policy name (the inverse of [`name`](Self::name)).
    pub fn parse(s: &str) -> Option<ReplacementPolicyKind> {
        ReplacementPolicyKind::all()
            .into_iter()
            .find(|k| k.name() == s)
    }

    /// How efficiently the policy retains stencil rows for layer-condition
    /// reuse, relative to true LRU (1.0).  The analytic traffic model blends
    /// the layer-condition-fulfilled and -broken read volumes with this
    /// factor; the default is exactly 1.0 so the paper's numbers are
    /// untouched.
    pub fn reuse_efficiency(&self) -> f64 {
        match self {
            ReplacementPolicyKind::Lru => 1.0,
            ReplacementPolicyKind::Plru => 0.98,
            ReplacementPolicyKind::Srrip => 0.95,
            ReplacementPolicyKind::Random => 0.85,
        }
    }
}

impl std::fmt::Display for ReplacementPolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a cache does with a store that misses.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum WritePolicyKind {
    /// Write-allocate with the machine's SpecI2M evasion parameters — the
    /// paper's default behaviour on every evaluated Xeon.
    #[default]
    Allocate,
    /// Write-back + no-write-allocate (CVA6-style): store misses are
    /// written through to memory without fetching the line.
    NoAllocate,
    /// Every evadable store stream is handled as a non-temporal store
    /// (models software NT stores independent of SpecI2M).
    NonTemporal,
}

impl WritePolicyKind {
    /// Every write policy, in canonical order.
    pub fn all() -> Vec<WritePolicyKind> {
        vec![
            WritePolicyKind::Allocate,
            WritePolicyKind::NoAllocate,
            WritePolicyKind::NonTemporal,
        ]
    }

    /// Stable name used in ids, memo keys and on the command line.
    pub fn name(&self) -> &'static str {
        match self {
            WritePolicyKind::Allocate => "allocate",
            WritePolicyKind::NoAllocate => "no-allocate",
            WritePolicyKind::NonTemporal => "non-temporal",
        }
    }

    /// Parse a policy name (the inverse of [`name`](Self::name)).
    pub fn parse(s: &str) -> Option<WritePolicyKind> {
        WritePolicyKind::all().into_iter().find(|k| k.name() == s)
    }
}

impl std::fmt::Display for WritePolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Names of every replacement policy, for usage/error messages.
pub fn replacement_names() -> Vec<&'static str> {
    ReplacementPolicyKind::all()
        .iter()
        .map(|k| k.name())
        .collect()
}

/// Names of every write policy, for usage/error messages.
pub fn write_policy_names() -> Vec<&'static str> {
    WritePolicyKind::all().iter().map(|k| k.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for k in ReplacementPolicyKind::all() {
            assert_eq!(ReplacementPolicyKind::parse(k.name()), Some(k));
        }
        for k in WritePolicyKind::all() {
            assert_eq!(WritePolicyKind::parse(k.name()), Some(k));
        }
        assert_eq!(ReplacementPolicyKind::parse("fifo"), None);
        assert_eq!(WritePolicyKind::parse("write-through"), None);
    }

    #[test]
    fn defaults_are_the_papers_configuration() {
        assert_eq!(ReplacementPolicyKind::default(), ReplacementPolicyKind::Lru);
        assert_eq!(WritePolicyKind::default(), WritePolicyKind::Allocate);
        assert_eq!(ReplacementPolicyKind::default().reuse_efficiency(), 1.0);
    }

    #[test]
    fn reuse_efficiency_orders_policies() {
        let effs: Vec<f64> = ReplacementPolicyKind::all()
            .iter()
            .map(|k| k.reuse_efficiency())
            .collect();
        for pair in effs.windows(2) {
            assert!(pair[1] < pair[0], "weaker policies must retain less");
        }
        for e in effs {
            assert!((0.0..=1.0).contains(&e));
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(ReplacementPolicyKind::Plru.to_string(), "plru");
        assert_eq!(WritePolicyKind::NoAllocate.to_string(), "no-allocate");
    }
}
