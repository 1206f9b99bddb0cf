//! The catalogue of the 22 CloverLeaf hotspot loops (Table I).
//!
//! Each descriptor reproduces the model inputs of Table I: number of arrays,
//! elements read with the layer condition fulfilled/broken, elements
//! written, update elements (read & written) and flops per iteration.  The
//! am04 descriptor follows the source shown in Listing 3 of the paper; the
//! remaining descriptors are reconstructed from the CloverLeaf kernels so
//! that their derived model inputs match Table I exactly (verified by the
//! tests at the bottom of this module).

use std::sync::OnceLock;

use crate::spec::{ArrayAccess, LoopSpec};

/// The three hotspot functions of CloverLeaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HotspotFunction {
    /// `advec_mom_kernel` — momentum advection (12 loops, am00–am11).
    AdvecMom,
    /// `advec_cell_kernel` — cell-centred advection (8 loops, ac00–ac07).
    AdvecCell,
    /// `pdv_kernel` — PdV work (2 loops, pdv00–pdv01).
    Pdv,
}

impl HotspotFunction {
    /// Function name as reported by the profiler.
    pub fn name(&self) -> &'static str {
        match self {
            HotspotFunction::AdvecMom => "advec_mom_kernel",
            HotspotFunction::AdvecCell => "advec_cell_kernel",
            HotspotFunction::Pdv => "pdv_kernel",
        }
    }
}

/// Centre-point offset.
const C: [(i32, i32); 1] = [(0, 0)];
/// Centre plus right neighbour in the inner dimension (single row).
const IX: [(i32, i32); 2] = [(0, 0), (1, 0)];
/// Centre plus upper neighbour in the outer dimension (two rows).
const KX: [(i32, i32); 2] = [(0, 0), (0, 1)];
/// Four-point pattern spanning two rows (Listing 3).
const QUAD: [(i32, i32); 4] = [(0, -1), (0, 0), (1, -1), (1, 0)];

fn spec(
    name: &str,
    function: HotspotFunction,
    arrays: Vec<ArrayAccess>,
    flops: u32,
    has_branches: bool,
    speci2m_blocked: bool,
) -> LoopSpec {
    LoopSpec {
        name: name.to_string(),
        function: function.name().to_string(),
        arrays,
        flops,
        has_branches,
        speci2m_blocked,
    }
}

/// Build the full catalogue of the 22 hotspot loops in paper order.
pub fn cloverleaf_loops() -> Vec<LoopSpec> {
    use HotspotFunction::*;
    let r = ArrayAccess::read;
    let w = ArrayAccess::write;
    let rw = ArrayAccess::read_write;

    vec![
        // ---- advec_mom: pre/post volumes, node fluxes and masses, momentum flux,
        //      velocity update; x-direction sweep first, then y-direction.
        spec(
            "am00",
            AdvecMom,
            vec![
                r("volume", &C),
                r("vol_flux_x", &IX),
                r("vol_flux_y", &KX),
                w("pre_vol"),
                w("post_vol"),
            ],
            4,
            false,
            false,
        ),
        spec(
            "am01",
            AdvecMom,
            vec![
                r("volume", &C),
                r("vol_flux_y", &KX),
                r("vol_flux_x", &IX),
                w("post_vol"),
                w("pre_vol"),
            ],
            4,
            false,
            false,
        ),
        spec(
            "am02",
            AdvecMom,
            vec![
                r("volume", &C),
                r("vol_flux_x", &[(0, 0), (1, 0), (0, -1)]),
                w("pre_vol"),
                w("post_vol"),
            ],
            2,
            false,
            false,
        ),
        spec(
            "am03",
            AdvecMom,
            vec![
                r("volume", &C),
                r("vol_flux_y", &C),
                w("pre_vol"),
                w("post_vol"),
            ],
            2,
            false,
            false,
        ),
        // Listing 3 of the paper.
        spec(
            "am04",
            AdvecMom,
            vec![r("mass_flux_x", &QUAD), w("node_flux")],
            4,
            false,
            false,
        ),
        spec(
            "am05",
            AdvecMom,
            vec![
                r("density1", &QUAD),
                r("post_vol", &KX),
                r("node_flux", &C),
                w("node_mass_post"),
                w("node_mass_pre"),
            ],
            10,
            false,
            false,
        ),
        spec(
            "am06",
            AdvecMom,
            vec![
                r("node_flux", &C),
                r("node_mass_pre", &IX),
                r("xvel1", &IX),
                w("mom_flux"),
            ],
            9,
            false,
            false,
        ),
        spec(
            "am07",
            AdvecMom,
            vec![
                r("node_mass_pre", &C),
                r("node_mass_post", &C),
                r("mom_flux", &IX),
                rw("xvel1"),
            ],
            4,
            false,
            false,
        ),
        spec(
            "am08",
            AdvecMom,
            vec![
                r("mass_flux_y", &[(-1, 0), (0, 0), (-1, 1), (0, 1)]),
                w("node_flux"),
            ],
            4,
            false,
            false,
        ),
        spec(
            "am09",
            AdvecMom,
            vec![
                r("density1", &QUAD),
                r("post_vol", &KX),
                r("node_flux", &KX),
                w("node_mass_post"),
                w("node_mass_pre"),
            ],
            10,
            false,
            false,
        ),
        spec(
            "am10",
            AdvecMom,
            vec![
                r("node_flux", &KX),
                r("node_mass_pre", &KX),
                r("yvel1", &C),
                w("mom_flux"),
            ],
            8,
            false,
            false,
        ),
        spec(
            "am11",
            AdvecMom,
            vec![
                r("node_mass_pre", &C),
                r("node_mass_post", &C),
                r("mom_flux", &KX),
                rw("yvel1"),
            ],
            4,
            false,
            false,
        ),
        // ---- advec_cell: volumes, energy and mass fluxes, cell updates.
        spec(
            "ac00",
            AdvecCell,
            vec![
                r("volume", &C),
                r("vol_flux_x", &IX),
                r("vol_flux_y", &KX),
                w("pre_vol"),
                w("post_vol"),
            ],
            6,
            false,
            false,
        ),
        spec(
            "ac01",
            AdvecCell,
            vec![
                r("volume", &C),
                r("vol_flux_y", &C),
                w("pre_vol"),
                w("post_vol"),
            ],
            2,
            false,
            true,
        ),
        spec(
            "ac02",
            AdvecCell,
            vec![
                r("vol_flux_x", &C),
                r("pre_vol", &C),
                r("density1", &C),
                r("energy1", &C),
                w("mass_flux_x"),
                w("ener_flux"),
            ],
            17,
            true,
            false,
        ),
        spec(
            "ac03",
            AdvecCell,
            vec![
                r("pre_vol", &C),
                r("mass_flux_x", &C),
                r("vol_flux_x", &C),
                r("ener_flux", &C),
                rw("density1"),
                rw("energy1"),
            ],
            10,
            false,
            false,
        ),
        spec(
            "ac04",
            AdvecCell,
            vec![
                r("volume", &C),
                r("vol_flux_y", &KX),
                r("vol_flux_x", &IX),
                w("pre_vol"),
                w("post_vol"),
            ],
            6,
            false,
            false,
        ),
        spec(
            "ac05",
            AdvecCell,
            vec![
                r("volume", &C),
                r("vol_flux_x", &[(0, 0), (0, 1)]),
                w("pre_vol"),
                w("post_vol"),
            ],
            2,
            false,
            true,
        ),
        spec(
            "ac06",
            AdvecCell,
            vec![
                r("vol_flux_y", &KX),
                r("pre_vol", &KX),
                r("density1", &KX),
                r("energy1", &KX),
                w("mass_flux_y"),
                w("ener_flux"),
            ],
            17,
            true,
            false,
        ),
        spec(
            "ac07",
            AdvecCell,
            vec![
                r("pre_vol", &C),
                r("mass_flux_y", &KX),
                r("vol_flux_y", &KX),
                r("ener_flux", &KX),
                rw("density1"),
                rw("energy1"),
            ],
            10,
            false,
            false,
        ),
        // ---- pdv: the two variants (predictor / corrector) of the PdV work.
        spec(
            "pdv00",
            Pdv,
            vec![
                r("xarea", &IX),
                r("yarea", &KX),
                r("volume", &C),
                r("density0", &C),
                r("pressure", &C),
                r("viscosity", &C),
                r("xvel0", &[(0, 0), (1, 0), (0, 1), (1, 1)]),
                r("yvel0", &KX),
                r("volume_change", &C),
                w("density1"),
                w("energy1"),
            ],
            49,
            false,
            false,
        ),
        spec(
            "pdv01",
            Pdv,
            vec![
                r("xarea", &IX),
                r("yarea", &KX),
                r("volume", &C),
                r("density0", &C),
                r("pressure", &C),
                r("viscosity", &C),
                r("xvel0", &[(0, 0), (1, 0), (0, 1), (1, 1)]),
                r("xvel1", &[(0, 0), (1, 0), (0, 1), (1, 1)]),
                r("yvel0", &KX),
                r("yvel1", &KX),
                r("energy0", &C),
                w("density1"),
                w("energy1"),
            ],
            45,
            false,
            false,
        ),
    ]
}

/// The process-wide catalogue: [`cloverleaf_loops`] built once.  The one
/// place a loop's name lives — per-loop tables elsewhere (the balances of a
/// scaling point) are plain values in this order.
pub fn loop_catalogue() -> &'static [LoopSpec] {
    static CATALOGUE: OnceLock<Vec<LoopSpec>> = OnceLock::new();
    CATALOGUE.get_or_init(cloverleaf_loops)
}

/// Look up a loop descriptor by its paper label.
pub fn loop_by_name(name: &str) -> Option<LoopSpec> {
    loop_catalogue().iter().find(|l| l.name == name).cloned()
}

/// Measured single-core code balance from Table I (`byte/it_meas,1`), used
/// as reference data when comparing model and simulator output against the
/// paper.
pub const PAPER_MEASURED_SINGLE_CORE: [(&str, f64); 22] = [
    ("am00", 56.32),
    ("am01", 56.28),
    ("am02", 48.25),
    ("am03", 48.15),
    ("am04", 24.05),
    ("am05", 56.97),
    ("am06", 40.22),
    ("am07", 40.08),
    ("am08", 24.06),
    ("am09", 56.56),
    ("am10", 41.49),
    ("am11", 40.08),
    ("ac00", 56.33),
    ("ac01", 48.25),
    ("ac02", 64.70),
    ("ac03", 64.45),
    ("ac04", 56.29),
    ("ac05", 48.33),
    ("ac06", 66.24),
    ("ac07", 64.85),
    ("pdv00", 104.73),
    ("pdv01", 120.77),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::CodeBalance;

    /// One row of Table I's model inputs:
    /// (name, #arrays, RD_LCF, RD_LCB, WR, RD&WR, flops, min, lcf_wa, lcb, max)
    type TableOneRow = (
        &'static str,
        usize,
        usize,
        usize,
        usize,
        usize,
        u32,
        f64,
        f64,
        f64,
        f64,
    );

    /// Expected Table I model inputs.
    const TABLE_ONE: [TableOneRow; 22] = [
        ("am00", 5, 3, 4, 2, 0, 4, 40.0, 56.0, 48.0, 64.0),
        ("am01", 5, 3, 4, 2, 0, 4, 40.0, 56.0, 48.0, 64.0),
        ("am02", 4, 2, 3, 2, 0, 2, 32.0, 48.0, 40.0, 56.0),
        ("am03", 4, 2, 2, 2, 0, 2, 32.0, 48.0, 32.0, 48.0),
        ("am04", 2, 1, 2, 1, 0, 4, 16.0, 24.0, 24.0, 32.0),
        ("am05", 5, 3, 5, 2, 0, 10, 40.0, 56.0, 56.0, 72.0),
        ("am06", 4, 3, 3, 1, 0, 9, 32.0, 40.0, 32.0, 40.0),
        ("am07", 4, 4, 4, 1, 1, 4, 40.0, 40.0, 40.0, 40.0),
        ("am08", 2, 1, 2, 1, 0, 4, 16.0, 24.0, 24.0, 32.0),
        ("am09", 5, 3, 6, 2, 0, 10, 40.0, 56.0, 64.0, 80.0),
        ("am10", 4, 3, 5, 1, 0, 8, 32.0, 40.0, 48.0, 56.0),
        ("am11", 4, 4, 5, 1, 1, 4, 40.0, 40.0, 48.0, 48.0),
        ("ac00", 5, 3, 4, 2, 0, 6, 40.0, 56.0, 48.0, 64.0),
        ("ac01", 4, 2, 2, 2, 0, 2, 32.0, 48.0, 32.0, 48.0),
        ("ac02", 6, 4, 4, 2, 0, 17, 48.0, 64.0, 48.0, 64.0),
        ("ac03", 6, 6, 6, 2, 2, 10, 64.0, 64.0, 64.0, 64.0),
        ("ac04", 5, 3, 4, 2, 0, 6, 40.0, 56.0, 48.0, 64.0),
        ("ac05", 4, 2, 3, 2, 0, 2, 32.0, 48.0, 40.0, 56.0),
        ("ac06", 6, 4, 8, 2, 0, 17, 48.0, 64.0, 80.0, 96.0),
        ("ac07", 6, 6, 9, 2, 2, 10, 64.0, 64.0, 88.0, 88.0),
        ("pdv00", 11, 9, 12, 2, 0, 49, 88.0, 104.0, 112.0, 128.0),
        ("pdv01", 13, 11, 16, 2, 0, 45, 104.0, 120.0, 144.0, 160.0),
    ];

    #[test]
    fn catalogue_has_all_22_loops_in_order() {
        let loops = cloverleaf_loops();
        assert_eq!(loops.len(), 22);
        let names: Vec<&str> = loops.iter().map(|l| l.name.as_str()).collect();
        let expected: Vec<&str> = TABLE_ONE.iter().map(|t| t.0).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn model_inputs_match_table_one() {
        for (name, arrays, lcf, lcb, wr, rdwr, flops, ..) in TABLE_ONE {
            let l = loop_by_name(name).unwrap_or_else(|| panic!("missing loop {name}"));
            assert_eq!(l.array_count(), arrays, "{name}: #arrays");
            assert_eq!(l.rd_lcf(), lcf, "{name}: RD_LCF");
            assert_eq!(l.rd_lcb(), lcb, "{name}: RD_LCB");
            assert_eq!(l.wr(), wr, "{name}: WR");
            assert_eq!(l.rd_and_wr(), rdwr, "{name}: RD&WR");
            assert_eq!(l.flops, flops, "{name}: flops");
        }
    }

    #[test]
    fn code_balance_bounds_match_table_one() {
        for (name, .., min, lcf_wa, lcb, max) in TABLE_ONE {
            let l = loop_by_name(name).unwrap();
            let b = CodeBalance::from_spec(&l);
            assert_eq!(b.min, min, "{name}: byte/it_min");
            assert_eq!(b.lcf_wa, lcf_wa, "{name}: byte/it_LCF,WA");
            assert_eq!(b.lcb, lcb, "{name}: byte/it_LCB");
            assert_eq!(b.max, max, "{name}: byte/it_max");
        }
    }

    #[test]
    fn paper_measured_single_core_lies_between_bounds() {
        // The paper observes that the single-core measurement matches the
        // LCF+WA case; in particular it must never exceed the max bound nor
        // undercut the min bound (allowing a small measurement tolerance).
        for (name, measured) in PAPER_MEASURED_SINGLE_CORE {
            let l = loop_by_name(name).unwrap();
            let b = CodeBalance::from_spec(&l);
            assert!(
                measured >= b.min - 1.0,
                "{name}: measured {measured} < min {}",
                b.min
            );
            assert!(
                measured <= b.max + 4.0,
                "{name}: measured {measured} > max {}",
                b.max
            );
            // And it should be close to the LCF+WA prediction (within 5 %).
            assert!(
                (measured - b.lcf_wa).abs() / b.lcf_wa < 0.05,
                "{name}: measured {measured} vs LCF,WA {}",
                b.lcf_wa
            );
        }
    }

    #[test]
    fn loop_lookup_misses_gracefully() {
        assert!(loop_by_name("am99").is_none());
    }

    #[test]
    fn speci2m_blocked_loops_are_the_ones_from_the_paper() {
        let blocked: Vec<String> = cloverleaf_loops()
            .into_iter()
            .filter(|l| l.speci2m_blocked)
            .map(|l| l.name)
            .collect();
        assert_eq!(blocked, vec!["ac01".to_string(), "ac05".to_string()]);
    }

    #[test]
    fn branchy_loops_include_ac02_and_ac06() {
        let branchy: Vec<String> = cloverleaf_loops()
            .into_iter()
            .filter(|l| l.has_branches)
            .map(|l| l.name)
            .collect();
        assert!(branchy.contains(&"ac02".to_string()));
        assert!(branchy.contains(&"ac06".to_string()));
    }

    #[test]
    fn hotspot_function_metadata() {
        assert_eq!(HotspotFunction::Pdv.name(), "pdv_kernel");
        let loops = cloverleaf_loops();
        assert_eq!(
            loops
                .iter()
                .filter(|l| l.function == "advec_mom_kernel")
                .count(),
            12
        );
        assert_eq!(
            loops
                .iter()
                .filter(|l| l.function == "advec_cell_kernel")
                .count(),
            8
        );
        assert_eq!(
            loops.iter().filter(|l| l.function == "pdv_kernel").count(),
            2
        );
    }
}
