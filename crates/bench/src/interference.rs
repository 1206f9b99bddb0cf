//! Canned multi-tenant interference artifacts (`figures interfere`).
//!
//! The paper measures CloverLeaf on an *exclusive* node; these artifacts
//! extend the study to a *shared* node, where a competing kernel stream on
//! a sibling core fights CloverLeaf for the last-level cache.  Three views
//! of the same two-tenant co-run beside the victim's pass alone
//! (`clover_scenario::interference::victim_contention`):
//!
//! * `interfere-timestep` — the CloverLeaf timestep cost under each
//!   aggressor: the scaling model's full-domain point scaled by the
//!   co-run-derived victim traffic inflation factor,
//! * `interfere-occupancy` — the victim's shared-LLC residency and miss
//!   deltas per aggressor (solo vs contended, same LLC geometry),
//! * `interfere-evasion` — write-allocate evasion under contention: how
//!   much of the victim's store traffic still evades the write-allocate
//!   read when an aggressor churns the shared LLC.
//!
//! Unlike the 12 paper experiments these have no digitised golden data
//! (the paper never co-ran tenants), so they live outside `EXPERIMENTS`
//! and `figures --check`; everything is deterministic simulation, so the
//! bytes are still reproducible run to run.

use clover_cachesim::{AccessKind, KernelSpec, RankBase, SimMemo};
use clover_core::{ScalingModel, TrafficOptions, TINY_GRID};
use clover_golden::Artifact;
use clover_machine::{icelake_sp_8360y, Machine};
use clover_scenario::interference::{victim_contention, victim_kernel, TENANT_SHIFT};
use clover_scenario::{interference_factor, Aggressor, DEFAULT_INTERLEAVE};

/// The interference experiment identifiers (`figures interfere` names).
pub const INTERFERENCE_EXPERIMENTS: [&str; 3] = [
    "interfere-timestep",
    "interfere-occupancy",
    "interfere-evasion",
];

/// Generate one interference artifact by name on the paper's Ice Lake SP
/// node, simulating its co-runs through `memo`: the timestep and occupancy
/// views read the same victim co-runs, so artifacts generated through one
/// memo simulate each distinct pass once.  Unknown names return `None`.
pub fn run_interference_artifact(name: &str, memo: &SimMemo) -> Option<Artifact> {
    let machine = icelake_sp_8360y();
    match name {
        "interfere-timestep" => Some(timestep_artifact(&machine, memo)),
        "interfere-occupancy" => Some(occupancy_artifact(&machine, memo)),
        "interfere-evasion" => Some(evasion_artifact(&machine, memo)),
        _ => None,
    }
}

fn timestep_artifact(machine: &Machine, memo: &SimMemo) -> Artifact {
    let ranks = machine.topology.cores_per_domain();
    let base = ScalingModel::new(machine.clone()).point(ranks, &TrafficOptions::original(ranks));
    let mut a = Artifact::new(
        "interfere-timestep",
        "CloverLeaf timestep cost under shared-LLC aggressors",
    )
    .column("aggressor", None)
    .num_column("inflation", Some("x"), 3)
    .num_column("time_per_step", Some("ms"), 4)
    .num_column("volume_per_step", Some("MB"), 1)
    .num_column("bandwidth", Some("GB/s"), 1);
    for aggressor in Aggressor::all() {
        let factor = interference_factor(machine, aggressor, DEFAULT_INTERLEAVE, memo);
        a.push_row(vec![
            aggressor.name().into(),
            factor.into(),
            (base.time_per_step * factor * 1e3).into(),
            (base.volume_per_step * factor / 1e6).into(),
            (base.memory_bandwidth / 1e9).into(),
        ]);
    }
    a.push_note(format!(
        "machine: {}; grid {g}x{g}; {ranks} ranks; victim scaled by the \
         co-run traffic inflation factor (bandwidth is contention-invariant)",
        machine.name,
        g = TINY_GRID,
    ));
    a
}

fn occupancy_artifact(machine: &Machine, memo: &SimMemo) -> Artifact {
    let mut a = Artifact::new(
        "interfere-occupancy",
        "victim shared-LLC residency and miss deltas per aggressor",
    )
    .column("aggressor", None)
    .num_column("solo_occupancy", Some("lines"), 0)
    .num_column("occupancy", Some("lines"), 0)
    .num_column("occupancy_share", None, 3)
    .num_column("extra_llc_misses", Some("lines"), 0)
    .num_column("extra_read_volume", Some("MB"), 1);
    let victim = victim_kernel(machine);
    let contention =
        |aggressor| victim_contention(machine, &victim, aggressor, DEFAULT_INTERLEAVE, memo);
    for aggressor in Aggressor::all() {
        let v = contention(aggressor);
        a.push_row(vec![
            aggressor.name().into(),
            (v.solo.occupancy_lines as f64).into(),
            (v.contended.occupancy_lines as f64).into(),
            v.occupancy_fraction().into(),
            v.extra_llc_misses().into(),
            (v.extra_read_lines() * 64.0 / 1e6).into(),
        ]);
    }
    a.push_note(format!(
        "machine: {}; shared LLC of a 2-core tenancy ({} lines); end-of-run \
         residency; deltas vs a solo run on the same LLC geometry",
        machine.name,
        contention(Aggressor::None).llc_lines,
    ));
    a
}

/// A *storing* victim: two store passes over 3/8 of the LLC, the traffic
/// class whose write-allocate evasion the paper is about.  The second pass
/// is where contention bites — solo the footprint fits the shared LLC, so
/// re-stores hit the lines the first pass left resident (no further
/// write-allocates); with an aggressor's stream interleaved the reuse
/// distance exceeds the shared capacity, the lines are gone, and every
/// re-store pays the write-allocate read again.
fn store_victim(machine: &Machine) -> KernelSpec {
    let mut spec = KernelSpec::contiguous(
        RankBase::Shifted {
            shift: TENANT_SHIFT,
            plus: 0,
        },
        0,
        (machine.caches.l3.capacity_bytes as u64 * 3 / 8 / 8).max(1),
        AccessKind::Store,
    );
    spec.row_stride = 0;
    spec.rows = 2;
    spec
}

fn evasion_artifact(machine: &Machine, memo: &SimMemo) -> Artifact {
    let mut a = Artifact::new(
        "interfere-evasion",
        "victim write-allocate evasion under shared-LLC contention",
    )
    .column("aggressor", None)
    .num_column("solo_write_allocate", Some("MB"), 1)
    .num_column("write_allocate", Some("MB"), 1)
    .num_column("solo_evasion", None, 3)
    .num_column("evasion", None, 3)
    .num_column("extra_write_allocate", Some("MB"), 1);
    let victim = store_victim(machine);
    for aggressor in Aggressor::all() {
        let v = victim_contention(machine, &victim, aggressor, DEFAULT_INTERLEAVE, memo);
        let (solo, contended) = (&v.solo.counters, &v.contended.counters);
        // Fraction of ownership claims that evaded the write-allocate read.
        let evasion = |itom: f64, wa: f64| {
            if itom + wa <= 0.0 {
                0.0
            } else {
                itom / (itom + wa)
            }
        };
        a.push_row(vec![
            aggressor.name().into(),
            (solo.write_allocate_lines * 64.0 / 1e6).into(),
            (contended.write_allocate_lines * 64.0 / 1e6).into(),
            evasion(solo.itom_lines, solo.write_allocate_lines).into(),
            evasion(contended.itom_lines, contended.write_allocate_lines).into(),
            (v.extra_write_allocate_lines() * 64.0 / 1e6).into(),
        ]);
    }
    a.push_note(format!(
        "machine: {}; two-pass store victim (3/8-LLC footprint) vs each \
         aggressor; evasion = itom / (itom + write-allocate) — zero at a \
         2-core tenancy, where SpecI2M never speculates",
        machine.name,
    ));
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_machine::cva6_like;

    // The unit tests drive the machine-parameterised internals on the tiny
    // CVA6 (2 MiB LLC), keeping the capacity-derived proxy footprints —
    // and the debug-profile test time — small.  The icx-pinned public
    // artifacts run the identical code.

    #[test]
    fn unknown_interference_experiment_returns_none() {
        assert!(run_interference_artifact("interfere-bogus", &SimMemo::new()).is_none());
        for name in INTERFERENCE_EXPERIMENTS {
            assert!(name.starts_with("interfere-"));
        }
    }

    #[test]
    fn timestep_rows_cover_every_aggressor_and_none_is_neutral() {
        let a = timestep_artifact(&cva6_like(), &SimMemo::new());
        assert_eq!(a.rows.len(), Aggressor::all().len());
        let inflation = a.column_index("inflation").unwrap();
        let time = a.column_index("time_per_step").unwrap();
        assert_eq!(a.rows[0][inflation].as_f64().unwrap(), 1.0);
        for row in &a.rows[1..] {
            let f = row[inflation].as_f64().unwrap();
            assert!(f >= 1.0 && f.is_finite(), "inflation {f}");
            assert!(
                row[time].as_f64().unwrap() >= a.rows[0][time].as_f64().unwrap(),
                "contention cannot speed the victim up"
            );
        }
    }

    #[test]
    fn occupancy_deltas_are_zero_without_an_aggressor() {
        let a = occupancy_artifact(&cva6_like(), &SimMemo::new());
        assert_eq!(a.rows.len(), Aggressor::all().len());
        let extra = a.column_index("extra_llc_misses").unwrap();
        let share = a.column_index("occupancy_share").unwrap();
        assert_eq!(a.rows[0][extra].as_f64().unwrap(), 0.0);
        for row in &a.rows {
            let s = row[share].as_f64().unwrap();
            assert!((0.0..=1.0).contains(&s), "occupancy share {s}");
        }
    }

    #[test]
    fn evasion_fractions_stay_in_range_and_contention_never_helps() {
        let a = evasion_artifact(&cva6_like(), &SimMemo::new());
        let solo = a.column_index("solo_evasion").unwrap();
        let contended = a.column_index("evasion").unwrap();
        let wa_solo = a.column_index("solo_write_allocate").unwrap();
        let wa = a.column_index("write_allocate").unwrap();
        for row in &a.rows {
            for idx in [solo, contended] {
                let e = row[idx].as_f64().unwrap();
                assert!((0.0..=1.0).contains(&e), "evasion {e}");
            }
            assert!(
                row[wa].as_f64().unwrap() + 1e-9 >= row[wa_solo].as_f64().unwrap(),
                "an aggressor cannot reduce the victim's write-allocate traffic"
            );
        }
    }
}
