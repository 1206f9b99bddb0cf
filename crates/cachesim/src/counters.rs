//! Memory-controller and SpecI2M event counters.
//!
//! Counters are kept in *cache lines* as `f64` because the simulator uses
//! deterministic fractional accounting for probabilistic events (a 70 %
//! evasion probability contributes 0.3 read lines).  Volumes in bytes are
//! derived by multiplying with the 64-byte line size.

use crate::access::LINE_BYTES;

/// Aggregated traffic counters, mirroring the LIKWID events used in the
/// paper (`CAS_COUNT_RD`, `CAS_COUNT_WR`, `TOR_INSERTS.IA_ITOM`).
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MemCounters {
    /// Cache lines read from main memory (demand misses, write-allocates,
    /// prefetches, speculative reads).
    pub read_lines: f64,
    /// Cache lines written back / streamed to main memory.
    pub write_lines: f64,
    /// Cache lines claimed via SpecI2M (ITOM) without a read-for-ownership.
    pub itom_lines: f64,
    /// Write-allocate transfers that were *not* evaded (subset of
    /// `read_lines`), kept separately for model validation.
    pub write_allocate_lines: f64,
    /// Reads issued by hardware prefetchers (subset of `read_lines`).
    pub prefetch_lines: f64,
    /// Reads caused by failed SpecI2M speculation (subset of `read_lines`).
    pub speculative_read_lines: f64,
}

impl MemCounters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every field's bits, in declaration order: equal counters by bits.
    pub(crate) fn bits(&self) -> [u64; 6] {
        [
            self.read_lines,
            self.write_lines,
            self.itom_lines,
            self.write_allocate_lines,
            self.prefetch_lines,
            self.speculative_read_lines,
        ]
        .map(f64::to_bits)
    }

    /// Read data volume in bytes.
    pub fn read_bytes(&self) -> f64 {
        self.read_lines * LINE_BYTES as f64
    }

    /// Write data volume in bytes.
    pub fn write_bytes(&self) -> f64 {
        self.write_lines * LINE_BYTES as f64
    }

    /// SpecI2M (ITOM) data volume in bytes.
    pub fn itom_bytes(&self) -> f64 {
        self.itom_lines * LINE_BYTES as f64
    }

    /// Total memory data volume (read + write) in bytes — the quantity
    /// LIKWID's `MEM` group reports.
    pub fn total_bytes(&self) -> f64 {
        self.read_bytes() + self.write_bytes()
    }

    /// Ratio of read to write volume (used for the copy-kernel figures).
    /// Returns `f64::INFINITY` when nothing was written.
    pub fn read_write_ratio(&self) -> f64 {
        if self.write_lines <= 0.0 {
            f64::INFINITY
        } else {
            self.read_lines / self.write_lines
        }
    }

    /// Accumulate another counter set into this one.
    pub fn merge(&mut self, other: &MemCounters) {
        self.read_lines += other.read_lines;
        self.write_lines += other.write_lines;
        self.itom_lines += other.itom_lines;
        self.write_allocate_lines += other.write_allocate_lines;
        self.prefetch_lines += other.prefetch_lines;
        self.speculative_read_lines += other.speculative_read_lines;
    }

    /// Scale every counter by a factor (used to extrapolate row-sampled
    /// measurements to the full iteration space).
    pub fn scaled(&self, factor: f64) -> MemCounters {
        MemCounters {
            read_lines: self.read_lines * factor,
            write_lines: self.write_lines * factor,
            itom_lines: self.itom_lines * factor,
            write_allocate_lines: self.write_allocate_lines * factor,
            prefetch_lines: self.prefetch_lines * factor,
            speculative_read_lines: self.speculative_read_lines * factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_conversions() {
        let c = MemCounters {
            read_lines: 2.0,
            write_lines: 1.0,
            ..Default::default()
        };
        assert_eq!(c.read_bytes(), 128.0);
        assert_eq!(c.write_bytes(), 64.0);
        assert_eq!(c.total_bytes(), 192.0);
    }

    #[test]
    fn ratio_handles_zero_writes() {
        let c = MemCounters {
            read_lines: 5.0,
            ..Default::default()
        };
        assert!(c.read_write_ratio().is_infinite());
        let c2 = MemCounters {
            read_lines: 3.0,
            write_lines: 2.0,
            ..Default::default()
        };
        assert!((c2.read_write_ratio() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn merge_and_scale() {
        let mut a = MemCounters {
            read_lines: 1.0,
            write_lines: 2.0,
            itom_lines: 0.5,
            ..Default::default()
        };
        let b = MemCounters {
            read_lines: 3.0,
            write_lines: 1.0,
            itom_lines: 0.5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.read_lines, 4.0);
        assert_eq!(a.itom_lines, 1.0);
        let s = a.scaled(2.0);
        assert_eq!(s.write_lines, 6.0);
    }
}
