//! Loop descriptors: arrays, stencil offsets and access modes.

use serde::{Deserialize, Serialize};

/// How a loop body accesses one array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessMode {
    /// The array is only read.
    Read,
    /// The array is only written (write-allocate candidate).
    Write,
    /// The array is read and then written (update; the write hits in cache).
    ReadWrite,
}

/// One array operand of a loop with the stencil offsets it is accessed at.
///
/// Offsets are `(di, dk)` pairs: `di` along the contiguous inner dimension,
/// `dk` along the outer (row) dimension.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayAccess {
    /// Array name as it appears in the Fortran source (e.g. `mass_flux_x`).
    pub name: String,
    /// Access mode.
    pub mode: AccessMode,
    /// Distinct stencil offsets at which the array is accessed.
    pub offsets: Vec<(i32, i32)>,
}

impl ArrayAccess {
    /// A read-only operand.
    pub fn read(name: &str, offsets: &[(i32, i32)]) -> Self {
        Self {
            name: name.to_string(),
            mode: AccessMode::Read,
            offsets: offsets.to_vec(),
        }
    }

    /// A write-only operand accessed at the centre point.
    pub fn write(name: &str) -> Self {
        Self {
            name: name.to_string(),
            mode: AccessMode::Write,
            offsets: vec![(0, 0)],
        }
    }

    /// A read-modify-write operand accessed at the centre point.
    pub fn read_write(name: &str) -> Self {
        Self {
            name: name.to_string(),
            mode: AccessMode::ReadWrite,
            offsets: vec![(0, 0)],
        }
    }

    /// Number of distinct grid rows (`dk` values) touched by the reads of
    /// this operand.
    pub fn distinct_rows(&self) -> usize {
        let mut rows: Vec<i32> = self.offsets.iter().map(|&(_, dk)| dk).collect();
        rows.sort_unstable();
        rows.dedup();
        rows.len()
    }

    /// True if this operand is read (in either mode).
    pub fn is_read(&self) -> bool {
        matches!(self.mode, AccessMode::Read | AccessMode::ReadWrite)
    }

    /// True if this operand is written (in either mode).
    pub fn is_written(&self) -> bool {
        matches!(self.mode, AccessMode::Write | AccessMode::ReadWrite)
    }
}

/// A complete description of one hotspot loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopSpec {
    /// Loop label used in the paper (`am04`, `ac01`, `pdv00`, ...).
    pub name: String,
    /// The hotspot function the loop belongs to (`advec_mom`, ...).
    pub function: String,
    /// Array operands.
    pub arrays: Vec<ArrayAccess>,
    /// Floating-point operations per iteration.
    pub flops: u32,
    /// True if the loop body contains conditional branches, which the paper
    /// identifies as an obstacle for SpecI2M eligibility (ac02, ac06).
    pub has_branches: bool,
    /// True if the loop (in the original code) defeats SpecI2M although it
    /// is structurally simple (ac01, ac05); fixed by the paper's manual
    /// reorganisation.
    pub speci2m_blocked: bool,
}

impl LoopSpec {
    /// Number of distinct arrays accessed (`#arrays` column of Table I).
    pub fn array_count(&self) -> usize {
        self.arrays.len()
    }

    /// Elements read per iteration with the layer condition fulfilled
    /// (`RD_LCF`): one leading element per read operand.
    pub fn rd_lcf(&self) -> usize {
        self.arrays.iter().filter(|a| a.is_read()).count()
    }

    /// Elements read per iteration with the layer condition broken
    /// (`RD_LCB`): one element per distinct row of every read operand.
    pub fn rd_lcb(&self) -> usize {
        self.arrays
            .iter()
            .filter(|a| a.is_read())
            .map(|a| a.distinct_rows())
            .sum()
    }

    /// Elements written per iteration (`WR`).
    pub fn wr(&self) -> usize {
        self.arrays.iter().filter(|a| a.is_written()).count()
    }

    /// Written elements that are also read beforehand (`RD&WR`).
    pub fn rd_and_wr(&self) -> usize {
        self.arrays
            .iter()
            .filter(|a| a.mode == AccessMode::ReadWrite)
            .count()
    }

    /// Write streams whose write-allocate could be evaded (written but not
    /// read beforehand).
    pub fn evadable_write_streams(&self) -> usize {
        self.wr() - self.rd_and_wr()
    }

    /// Number of grid rows that must stay cached for the layer condition:
    /// the maximum row extent over all read operands.
    pub fn rows_for_layer_condition(&self) -> usize {
        self.arrays
            .iter()
            .filter(|a| a.is_read())
            .map(|a| a.distinct_rows())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The am04 loop from Listing 3 of the paper.
    fn am04() -> LoopSpec {
        LoopSpec {
            name: "am04".into(),
            function: "advec_mom".into(),
            arrays: vec![
                ArrayAccess::read("mass_flux_x", &[(0, -1), (0, 0), (1, -1), (1, 0)]),
                ArrayAccess::write("node_flux"),
            ],
            flops: 4,
            has_branches: false,
            speci2m_blocked: false,
        }
    }

    #[test]
    fn am04_model_inputs_match_table_one() {
        let l = am04();
        assert_eq!(l.array_count(), 2);
        assert_eq!(l.rd_lcf(), 1);
        assert_eq!(l.rd_lcb(), 2);
        assert_eq!(l.wr(), 1);
        assert_eq!(l.rd_and_wr(), 0);
        assert_eq!(l.evadable_write_streams(), 1);
        assert_eq!(l.rows_for_layer_condition(), 2);
    }

    #[test]
    fn read_write_operand_counts_in_both() {
        let l = LoopSpec {
            name: "x".into(),
            function: "f".into(),
            arrays: vec![
                ArrayAccess::read("a", &[(0, 0), (0, 1)]),
                ArrayAccess::read_write("b"),
                ArrayAccess::write("c"),
            ],
            flops: 1,
            has_branches: false,
            speci2m_blocked: false,
        };
        assert_eq!(l.rd_lcf(), 2);
        assert_eq!(l.rd_lcb(), 3);
        assert_eq!(l.wr(), 2);
        assert_eq!(l.rd_and_wr(), 1);
        assert_eq!(l.evadable_write_streams(), 1);
    }

    #[test]
    fn distinct_rows_deduplicates() {
        let a = ArrayAccess::read("a", &[(-1, 0), (1, 0), (0, 1), (0, -1)]);
        assert_eq!(a.distinct_rows(), 3);
        let b = ArrayAccess::read("b", &[(0, 0), (1, 0)]);
        assert_eq!(b.distinct_rows(), 1);
    }

    #[test]
    fn pure_write_loop_has_no_layer_condition() {
        let l = LoopSpec {
            name: "w".into(),
            function: "f".into(),
            arrays: vec![ArrayAccess::write("out")],
            flops: 0,
            has_branches: false,
            speci2m_blocked: false,
        };
        assert_eq!(l.rd_lcf(), 0);
        assert_eq!(l.rows_for_layer_condition(), 0);
    }
}
