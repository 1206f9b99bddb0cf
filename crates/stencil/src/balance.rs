//! Code-balance bounds derived from a loop descriptor (Table I).

use crate::spec::LoopSpec;
use crate::ELEMENT_BYTES;

/// The four code-balance bounds of one loop in byte per iteration, plus its
/// flops per iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeBalance {
    /// Minimum traffic: layer condition fulfilled, all write-allocates
    /// evaded (`byte/it_min`).
    pub min: f64,
    /// Layer condition fulfilled, write-allocates present (`byte/it_LCF,WA`).
    pub lcf_wa: f64,
    /// Layer condition broken, write-allocates evaded (`byte/it_LCB`).
    pub lcb: f64,
    /// Maximum traffic: layer condition broken and write-allocates present
    /// (`byte/it_max`).
    pub max: f64,
    /// Floating-point operations per iteration.
    pub flops: f64,
}

impl CodeBalance {
    /// Derive the bounds from a loop descriptor, following Sec. IV-A:
    ///
    /// * `min`     = 8 × (RD_LCF + WR)
    /// * `LCF,WA`  = 8 × (RD_LCF + WR + (WR − RD&WR))
    /// * `LCB`     = 8 × (RD_LCB + WR)
    /// * `max`     = 8 × (RD_LCB + WR + (WR − RD&WR))
    pub fn from_spec(spec: &LoopSpec) -> Self {
        let e = ELEMENT_BYTES as f64;
        let rd_lcf = spec.rd_lcf() as f64;
        let rd_lcb = spec.rd_lcb() as f64;
        let wr = spec.wr() as f64;
        let wa = spec.evadable_write_streams() as f64;
        Self {
            min: e * (rd_lcf + wr),
            lcf_wa: e * (rd_lcf + wr + wa),
            lcb: e * (rd_lcb + wr),
            max: e * (rd_lcb + wr + wa),
            flops: spec.flops as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ArrayAccess, LoopSpec};

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
    fn am04_bounds_match_paper() {
        let b = CodeBalance::from_spec(&am04());
        assert_eq!(b.min, 16.0);
        assert_eq!(b.lcf_wa, 24.0);
        assert_eq!(b.lcb, 24.0);
        assert_eq!(b.max, 32.0);
    }

    #[test]
    fn update_loop_has_equal_bounds() {
        // A loop that only updates arrays it reads (like ac03): all four
        // bounds coincide if every read array has a single-row stencil.
        let l = LoopSpec {
            name: "u".into(),
            function: "f".into(),
            arrays: vec![
                ArrayAccess::read("a", &[(0, 0)]),
                ArrayAccess::read_write("b"),
            ],
            flops: 2,
            has_branches: false,
            speci2m_blocked: false,
        };
        let b = CodeBalance::from_spec(&l);
        assert_eq!(b.min, b.lcf_wa);
        assert_eq!(b.lcb, b.max);
        assert_eq!(b.min, b.lcb);
    }
}
