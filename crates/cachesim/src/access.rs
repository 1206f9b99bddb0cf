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

/// One memory access: a byte range `[addr, addr + bytes)` of a given kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Starting byte address (virtual, arbitrary origin).
    pub addr: u64,
    /// Length in bytes (typically 8 for a double).
    pub bytes: u32,
    /// Load / store / non-temporal store.
    pub kind: AccessKind,
}

impl Access {
    /// First cache line touched by this access.
    pub fn first_line(&self) -> u64 {
        line_of(self.addr)
    }

    /// Last cache line touched by this access (inclusive).
    pub fn last_line(&self) -> u64 {
        line_of(self.addr + self.bytes.max(1) as u64 - 1)
    }

    /// Iterator over all cache-line indices touched by this access.
    pub fn lines(&self) -> impl Iterator<Item = u64> {
        self.first_line()..=self.last_line()
    }
}

/// Cache-line index of a byte address.
pub fn line_of(addr: u64) -> u64 {
    addr / LINE_BYTES
}

/// Size of a double-precision element in bytes.
pub const ELEM_BYTES: u64 = 8;

/// A contiguous run of double-precision elements accessed in ascending
/// address order — the unit of the batched fast path.
///
/// `CoreSim::drive_run` expands a run into one hierarchy operation per
/// 64-byte cache line (plus exact bookkeeping for the repeated touches of a
/// line and for partially covered head/tail lines) instead of one operation
/// per 8-byte element, producing the counters of the per-element sequence
/// at a fraction of the cost.
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

    /// Total bytes covered by the run.
    pub fn bytes(&self) -> u64 {
        self.elements * ELEM_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_mapping() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 1);
        assert_eq!(line_of(130), 2);
    }

    #[test]
    fn access_within_one_line() {
        let a = Access {
            addr: 16,
            bytes: 8,
            kind: AccessKind::Load,
        };
        assert_eq!(a.first_line(), 0);
        assert_eq!(a.last_line(), 0);
        assert_eq!(a.lines().count(), 1);
    }

    #[test]
    fn access_straddling_lines() {
        let a = Access {
            addr: 60,
            bytes: 8,
            kind: AccessKind::Load,
        };
        assert_eq!(a.first_line(), 0);
        assert_eq!(a.last_line(), 1);
        assert_eq!(a.lines().count(), 2);
    }

    #[test]
    fn store_kinds() {
        assert_eq!(AccessRun::load(0, 1).kind, AccessKind::Load);
        assert_eq!(AccessRun::store(0, 1).kind, AccessKind::Store);
        assert_eq!(AccessRun::store_nt(0, 1).kind, AccessKind::StoreNT);
        assert_eq!(AccessRun::store(8, 2).bytes(), 16);
    }

    #[test]
    fn zero_length_access_touches_one_line() {
        let a = Access {
            addr: 100,
            bytes: 0,
            kind: AccessKind::Load,
        };
        assert_eq!(a.lines().count(), 1);
    }
}
