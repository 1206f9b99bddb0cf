//! Memory access primitives.

/// Cache-line size in bytes (64 on every evaluated platform).
pub const LINE_BYTES: u64 = 64;

/// Kind of memory access issued by a core.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum AccessKind {
    /// Ordinary load.
    Load,
    /// Ordinary (temporal) store; misses trigger a write-allocate unless the
    /// hardware evades it.
    Store,
    /// Non-temporal (streaming) store; bypasses the cache hierarchy through
    /// a write-combine buffer.
    StoreNT,
}

/// Cache-line index of a byte address.
pub fn line_of(addr: u64) -> u64 {
    addr / LINE_BYTES
}

/// Size of a double-precision element in bytes.
pub const ELEM_BYTES: u64 = 8;

/// A contiguous run of double-precision elements accessed in ascending
/// address order.
///
/// [`CoreSim::drive_run`](crate::CoreSim::drive_run) drives a run as a
/// one-operand, one-row stencil sweep, through the same
/// [`SweepCursor`](crate::SweepCursor) as every other kernel: one
/// hierarchy operation per 64-byte cache line instead of one per 8-byte
/// element, with the counters of the per-element sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRun {
    /// First byte address of the run.
    pub base: u64,
    /// Number of contiguous 8-byte elements.
    pub elements: u64,
    /// Load / store / non-temporal store.
    pub kind: AccessKind,
}

impl AccessRun {
    /// A contiguous run of loads.
    pub fn load(base: u64, elements: u64) -> Self {
        Self {
            base,
            elements,
            kind: AccessKind::Load,
        }
    }

    /// A contiguous run of stores.
    pub fn store(base: u64, elements: u64) -> Self {
        Self {
            base,
            elements,
            kind: AccessKind::Store,
        }
    }

    /// A contiguous run of non-temporal stores.
    pub fn store_nt(base: u64, elements: u64) -> Self {
        Self {
            base,
            elements,
            kind: AccessKind::StoreNT,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{CoreSim, CoreSimOptions, OccupancyContext};
    use clover_machine::icelake_sp_8360y;

    fn fresh_core() -> CoreSim {
        let m = icelake_sp_8360y();
        CoreSim::new(&m, OccupancyContext::serial(&m), CoreSimOptions::default())
    }

    /// `(hits, misses)` of the core's L1.
    fn l1(core: &CoreSim) -> (u64, u64) {
        core.cache_stats()[0]
    }

    #[test]
    fn line_mapping() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 1);
        assert_eq!(line_of(130), 2);
    }

    #[test]
    fn access_within_one_line() {
        let mut core = fresh_core();
        core.drive_run(AccessRun::load(16, 1));
        assert_eq!(l1(&core), (0, 1), "one L1 lookup");
        // It was line 0: line 0 now hits, line 1 still misses.
        core.drive_run(AccessRun::load(0, 1));
        assert_eq!(l1(&core), (1, 1));
        core.drive_run(AccessRun::load(64, 1));
        assert_eq!(l1(&core), (1, 2));
    }

    #[test]
    fn access_straddling_lines() {
        let mut core = fresh_core();
        core.drive_run(AccessRun::load(60, 1));
        assert_eq!(l1(&core), (0, 2), "two L1 lookups");
        // They were lines 0 and 1: both now hit.
        core.drive_run(AccessRun::load(0, 1));
        core.drive_run(AccessRun::load(64, 1));
        assert_eq!(l1(&core), (2, 2));
    }

    #[test]
    fn store_kinds() {
        assert_eq!(AccessRun::load(0, 1).kind, AccessKind::Load);
        assert_eq!(AccessRun::store(0, 1).kind, AccessKind::Store);
        assert_eq!(AccessRun::store_nt(0, 1).kind, AccessKind::StoreNT);
    }
}
