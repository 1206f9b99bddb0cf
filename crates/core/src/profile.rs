//! Hotspot runtime profile (Listing 2).
//!
//! The paper's gprofng profile attributes ~36 % of the runtime to
//! `advec_mom_kernel`, ~21 % to `advec_cell_kernel` and ~12.5 % to
//! `pdv_kernel`; the three together cover 67.5–69.2 % for any rank count.
//! This module derives the same kind of profile from the traffic model (the
//! hotspot kernels) plus the measured relative cost of the remaining
//! kernels, so the harness can print a Listing-2-style table.

use clover_machine::Machine;

use crate::decomp::Decomposition;
use crate::traffic::{TrafficModel, TrafficOptions};
use crate::TINY_GRID;

/// One row of the runtime profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEntry {
    /// Function name as the profiler reports it.
    pub name: String,
    /// Exclusive share of the total runtime (0..=1).
    pub share: f64,
}

/// Relative cost of the non-hotspot kernels, taken from Listing 2
/// (exclusive seconds normalised to the total).  These kernels are simple
/// streaming loops whose cost scales like the hotspots, so their shares stay
/// constant across rank counts.
const OTHER_KERNELS: [(&str, f64); 7] = [
    ("accelerate_kernel", 0.0537),
    ("ideal_gas_kernel", 0.0521),
    ("flux_calc_kernel", 0.0454),
    ("reset_field_kernel", 0.0440),
    ("calc_dt_kernel", 0.0333),
    ("viscosity_kernel", 0.0253),
    ("update_halo_kernel", 0.0550),
];

/// Build the runtime profile for `ranks` ranks of the original code on
/// `machine`, sorted by share (largest first).
pub fn hotspot_profile(machine: &Machine, ranks: usize) -> Vec<ProfileEntry> {
    let model = TrafficModel::new(machine.clone());
    let decomp = Decomposition::new(ranks, TINY_GRID, TINY_GRID);
    let opts = TrafficOptions::original(ranks);
    let loops = model.predict_all(&opts, &decomp);

    // Time share of each hotspot function ∝ summed code balance of its loops
    // (all loops sweep the same iteration space and are bandwidth bound).
    // advec_mom runs once per velocity component and therefore twice as
    // often as the other kernels.
    let mut mom = 0.0;
    let mut cell = 0.0;
    let mut pdv = 0.0;
    for (spec, traffic) in clover_stencil::loop_catalogue().iter().zip(&loops) {
        let b = traffic.code_balance();
        match spec.function.as_str() {
            "advec_mom_kernel" => mom += 2.0 * b,
            "advec_cell_kernel" => cell += b,
            _ => pdv += b,
        }
    }
    assemble_profile(mom, cell, pdv)
}

/// Assemble and sort the profile from the three hotspot balances.
///
/// Degenerate balances must not poison the table: a zero hotspot total
/// (e.g. a pathological machine description) would divide to NaN, and any
/// NaN share used to panic the `partial_cmp(..).unwrap()` sort.  The shares
/// therefore normalise against a guarded denominator and the sort uses the
/// NaN-safe `f64::total_cmp`.
fn assemble_profile(mom: f64, cell: f64, pdv: f64) -> Vec<ProfileEntry> {
    let hotspot_total = mom + cell + pdv;
    let other_total: f64 = OTHER_KERNELS.iter().map(|(_, s)| s).sum();
    // Hotspots take (1 - other_total) of the runtime.
    let hotspot_share = 1.0 - other_total;
    let share_of = |balance: f64| {
        if hotspot_total > 0.0 && balance.is_finite() {
            hotspot_share * balance / hotspot_total
        } else {
            0.0
        }
    };

    let mut entries = vec![
        ProfileEntry {
            name: "advec_mom_kernel".into(),
            share: share_of(mom),
        },
        ProfileEntry {
            name: "advec_cell_kernel".into(),
            share: share_of(cell),
        },
        ProfileEntry {
            name: "pdv_kernel".into(),
            share: share_of(pdv),
        },
    ];
    entries.extend(OTHER_KERNELS.iter().map(|(n, s)| ProfileEntry {
        name: (*n).to_string(),
        share: *s,
    }));
    entries.sort_by(|a, b| b.share.total_cmp(&a.share));
    entries
}

/// Sum of the shares of the three hotspot functions.
pub fn hotspot_share(profile: &[ProfileEntry]) -> f64 {
    profile
        .iter()
        .filter(|e| {
            matches!(
                e.name.as_str(),
                "advec_mom_kernel" | "advec_cell_kernel" | "pdv_kernel"
            )
        })
        .map(|e| e.share)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_machine::icelake_sp_8360y;

    #[test]
    fn profile_sums_to_one() {
        let p = hotspot_profile(&icelake_sp_8360y(), 72);
        let total: f64 = p.iter().map(|e| e.share).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hotspots_cover_about_69_percent() {
        for ranks in [1usize, 18, 37, 72] {
            let p = hotspot_profile(&icelake_sp_8360y(), ranks);
            let share = hotspot_share(&p);
            assert!(
                (0.66..=0.72).contains(&share),
                "ranks={ranks}: hotspot share {share}"
            );
        }
    }

    #[test]
    fn advec_mom_is_the_top_function() {
        let p = hotspot_profile(&icelake_sp_8360y(), 72);
        assert_eq!(p[0].name, "advec_mom_kernel");
        assert!(
            p[0].share > 0.30 && p[0].share < 0.42,
            "advec_mom share {}",
            p[0].share
        );
        // advec_cell second, pdv third — same ordering as Listing 2.
        assert_eq!(p[1].name, "advec_cell_kernel");
        assert_eq!(p[2].name, "pdv_kernel");
    }

    #[test]
    fn profile_is_sorted_descending() {
        let p = hotspot_profile(&icelake_sp_8360y(), 36);
        for w in p.windows(2) {
            assert!(w[0].share >= w[1].share);
        }
    }

    #[test]
    fn zero_hotspot_total_does_not_panic_or_emit_nan() {
        // Regression: a zero denominator made the shares NaN and the
        // `partial_cmp(..).unwrap()` sort panicked on them.
        let p = assemble_profile(0.0, 0.0, 0.0);
        assert_eq!(p.len(), 10);
        assert!(p.iter().all(|e| e.share.is_finite()));
        for w in p.windows(2) {
            assert!(w[0].share >= w[1].share);
        }
        // The hotspot rows collapse to zero share and sort last.
        assert_eq!(hotspot_share(&p), 0.0);
    }

    #[test]
    fn nan_and_infinite_balances_do_not_panic_the_sort() {
        for degenerate in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let p = assemble_profile(degenerate, 1.0, 1.0);
            assert_eq!(p.len(), 10);
            assert!(p.iter().all(|e| e.share.is_finite()), "{degenerate}");
            for w in p.windows(2) {
                assert!(w[0].share >= w[1].share);
            }
        }
    }
}
