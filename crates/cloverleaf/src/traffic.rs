//! Memory-traffic replay of the CloverLeaf kernels on the cache simulator.
//!
//! The compute kernels in [`crate::kernels`] operate on real [`Field2D`]
//! data; this module mirrors their memory footprints — same fields, same
//! stencil offsets, same loop bounds, addresses derived from the actual
//! halo'd field layout — as [`StencilRowSweep`]s driven through the batched
//! line-granular simulator API.  That turns any chunk geometry into a
//! per-kernel traffic measurement without tracing the arithmetic, the same
//! way the paper instruments the Fortran hotspots with LIKWID markers.
//!
//! [`Field2D`]: crate::field::Field2D

use clover_cachesim::hierarchy::{CoreSimOptions, DomainOccupancy, OccupancyContext};
use clover_cachesim::patterns::StencilRowSweep;
use clover_cachesim::{AccessKind, KernelSpec, MemCounters, RankBase, SimMemo, SpecOperand};
use clover_machine::Machine;

use crate::chunk::HALO;

/// Field identifiers of the replay address space.  Every field of a
/// [`Chunk`](crate::chunk::Chunk) gets a fixed slot; bases are spaced far
/// enough apart that streams never alias, mirroring separate allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum FieldId {
    Density0,
    Density1,
    Energy0,
    Energy1,
    Pressure,
    Viscosity,
    Soundspeed,
    Xvel0,
    Xvel1,
    Yvel0,
    Yvel1,
    VolFluxX,
    VolFluxY,
    MassFluxX,
    MassFluxY,
    EnerFlux,
    NodeFlux,
    NodeMassPre,
    MomFlux,
}

/// One kernel loop of the replay: fields with stencil offsets and access
/// kinds, plus the loop bounds relative to the interior (`0..nx`, `0..ny`).
#[derive(Debug, Clone)]
pub struct KernelTraffic {
    /// Kernel name (matches `crate::kernels` function names).
    pub name: &'static str,
    /// `(field, offsets, kind)` triples in the access order of the source
    /// loop body (reads before the writes they feed).
    pub operands: Vec<(FieldId, Vec<(i64, i64)>, AccessKind)>,
    /// Extra cells swept beyond the interior on each side along x.
    pub halo_x: i64,
    /// Extra cells swept beyond the interior on each side along y.
    pub halo_y: i64,
}

/// Memory-traffic descriptors of one CloverLeaf timestep, in execution
/// order.  `advec_cell`/`advec_mom` are represented by their conservative
/// update loops (the hotspots ac03/ac07 and am07/am11 dominate their
/// traffic); the x sweep stands in for both directions, whose footprints
/// are symmetric.
pub fn timestep_kernels() -> Vec<KernelTraffic> {
    use AccessKind::{Load, Store};
    use FieldId::*;
    let centre = vec![(0, 0)];
    vec![
        KernelTraffic {
            name: "ideal_gas",
            operands: vec![
                (Density0, centre.clone(), Load),
                (Energy0, centre.clone(), Load),
                (Pressure, centre.clone(), Store),
                (Soundspeed, centre.clone(), Store),
            ],
            halo_x: 1,
            halo_y: 1,
        },
        KernelTraffic {
            name: "viscosity",
            operands: vec![
                (Xvel0, vec![(1, 0), (-1, 0)], Load),
                (Yvel0, vec![(0, 1), (0, -1)], Load),
                (Density0, centre.clone(), Load),
                (Viscosity, centre.clone(), Store),
            ],
            halo_x: 1,
            halo_y: 1,
        },
        KernelTraffic {
            name: "pdv",
            operands: vec![
                (Xvel0, vec![(1, 0), (-1, 0)], Load),
                (Yvel0, vec![(0, 1), (0, -1)], Load),
                (Density0, centre.clone(), Load),
                (Pressure, centre.clone(), Load),
                (Viscosity, centre.clone(), Load),
                (Energy0, centre.clone(), Load),
                (Density1, centre.clone(), Store),
                (Energy1, centre.clone(), Store),
            ],
            halo_x: 0,
            halo_y: 0,
        },
        KernelTraffic {
            name: "accelerate",
            operands: vec![
                (Density0, centre.clone(), Load),
                (Pressure, vec![(1, 0), (-1, 0), (0, 1), (0, -1)], Load),
                (Viscosity, vec![(1, 0), (-1, 0), (0, 1), (0, -1)], Load),
                (Xvel0, centre.clone(), Load),
                (Xvel1, centre.clone(), Store),
                (Yvel0, centre.clone(), Load),
                (Yvel1, centre.clone(), Store),
            ],
            halo_x: 0,
            halo_y: 0,
        },
        KernelTraffic {
            name: "flux_calc",
            operands: vec![
                (Xvel1, vec![(-1, 0), (0, 0)], Load),
                (VolFluxX, centre.clone(), Store),
                (Yvel1, vec![(0, -1), (0, 0)], Load),
                (VolFluxY, centre.clone(), Store),
            ],
            halo_x: 0,
            halo_y: 0,
        },
        KernelTraffic {
            name: "advec_cell",
            operands: vec![
                (Density1, centre.clone(), Load),
                (MassFluxX, vec![(0, 0), (1, 0)], Load),
                (EnerFlux, vec![(0, 0), (1, 0)], Load),
                (Energy1, centre.clone(), Load),
                (Density1, centre.clone(), Store),
                (Energy1, centre.clone(), Store),
            ],
            halo_x: 0,
            halo_y: 0,
        },
        KernelTraffic {
            name: "advec_mom",
            operands: vec![
                (NodeMassPre, centre.clone(), Load),
                (MomFlux, vec![(0, 0), (1, 0)], Load),
                (NodeFlux, vec![(0, 0), (1, 0)], Load),
                (Xvel1, centre.clone(), Load),
                (Xvel1, centre.clone(), Store),
            ],
            halo_x: 0,
            halo_y: 0,
        },
        KernelTraffic {
            name: "reset_field",
            operands: vec![
                (Density1, centre.clone(), Load),
                (Density0, centre.clone(), Store),
                (Energy1, centre.clone(), Load),
                (Energy0, centre.clone(), Store),
                (Xvel1, centre.clone(), Load),
                (Xvel0, centre.clone(), Store),
                (Yvel1, centre.clone(), Load),
                (Yvel0, centre, Store),
            ],
            halo_x: 0,
            halo_y: 0,
        },
    ]
}

impl KernelTraffic {
    /// The kernel's memory footprint as a typed, memoizable [`KernelSpec`]
    /// on a local domain of `nx × ny` interior cells, using the same halo'd
    /// row-major layout as [`Field2D`](crate::field::Field2D) (`stride = nx
    /// + 2 * HALO`, interior cell `(0, 0)` at grid index `(HALO, HALO)`).
    /// The field bases are fixed offsets in a private address space, so the
    /// spec is rank-shared.
    pub fn kernel_spec(&self, nx: usize, ny: usize) -> KernelSpec {
        let stride = (nx + 2 * HALO) as u64;
        let field_cells = stride * (ny as u64 + 2 * HALO as u64);
        // 64-byte-aligned base per field with a guard gap, like separate
        // allocations of the real arrays.
        let field_gap = (field_cells * 8).next_multiple_of(4096) + 4096;
        // `+`, not `|`: huge domains push the field offset past bit 36.
        let base = |f: FieldId| (1u64 << 36) + (f as u64) * field_gap;
        let h = HALO as i64;
        KernelSpec {
            rank_base: RankBase::Shared,
            operands: self
                .operands
                .iter()
                .map(|(field, offsets, kind)| SpecOperand {
                    offset: base(*field),
                    points: offsets.clone(),
                    kind: *kind,
                })
                .collect(),
            row_stride: stride,
            i0: (h - self.halo_x) as u64,
            inner: (nx as i64 + 2 * self.halo_x) as u64,
            k0: (h - self.halo_y) as u64,
            rows: (ny as i64 + 2 * self.halo_y) as u64,
        }
    }

    /// Build the stencil row sweep replaying this kernel (the materialised
    /// form of [`kernel_spec`](Self::kernel_spec)).
    pub fn sweep(&self, nx: usize, ny: usize) -> StencilRowSweep {
        self.kernel_spec(nx, ny).sweep(0)
    }
}

/// Traffic of one kernel measured on `machine` for a rank among
/// `total_ranks` compactly pinned ranks, with a local domain of `nx × ny`
/// cells.
#[derive(Debug, Clone)]
pub struct KernelTrafficReport {
    /// Kernel name.
    pub name: &'static str,
    /// Measured counters.
    pub counters: MemCounters,
    /// Grid-point updates performed.
    pub iterations: f64,
}

impl KernelTrafficReport {
    /// Measured code balance in bytes per grid-point update.
    pub fn bytes_per_iteration(&self) -> f64 {
        self.counters.total_bytes() / self.iterations.max(1.0)
    }
}

/// Replay every timestep kernel of a `nx × ny` local domain through the
/// cache simulator and report the per-kernel traffic.  `total_ranks` sets
/// the occupancy (and hence SpecI2M behaviour) of the simulated core.  Each
/// distinct `(occupancy, kernel footprint)` pair is simulated once per
/// `memo` lifetime — a rank-count sweep over the same chunk geometry
/// re-simulates nothing once the busiest-domain context repeats.
pub fn timestep_traffic_memo(
    machine: &Machine,
    nx: usize,
    ny: usize,
    total_ranks: usize,
    memo: &SimMemo,
) -> Vec<KernelTrafficReport> {
    let ctx = OccupancyContext::compact(machine, total_ranks);
    let occ = DomainOccupancy::compact(machine, total_ranks);
    let options = CoreSimOptions {
        l3_sharers: DomainOccupancy::l3_sharers(machine, occ.busiest),
        ..Default::default()
    };
    timestep_kernels()
        .into_iter()
        .map(|kernel| {
            let spec = kernel.kernel_spec(nx, ny);
            let counters = memo.counters(machine, ctx, options, &spec, 0);
            KernelTrafficReport {
                name: kernel.name,
                counters,
                iterations: spec.iterations() as f64,
            }
        })
        .collect()
}

/// [`timestep_traffic_memo`] with a memo of its own.
pub fn timestep_traffic(
    machine: &Machine,
    nx: usize,
    ny: usize,
    total_ranks: usize,
) -> Vec<KernelTrafficReport> {
    timestep_traffic_memo(machine, nx, ny, total_ranks, &SimMemo::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_cachesim::CoreSim;
    use clover_machine::icelake_sp_8360y;

    #[test]
    fn replay_matches_scalar_reference() {
        // The replay runs on the batched driver; it must be bit-identical
        // to the per-element path for every kernel footprint.
        let m = icelake_sp_8360y();
        for kernel in timestep_kernels() {
            let sweep = kernel.sweep(216, 16);
            let mk = || -> CoreSim {
                CoreSim::new(
                    &m,
                    OccupancyContext::compact(&m, m.total_cores()),
                    CoreSimOptions {
                        l3_sharers: 36,
                        ..Default::default()
                    },
                )
            };
            let mut fast = mk();
            let mut slow = mk();
            sweep.drive(&mut fast);
            sweep.drive_scalar(&mut slow);
            assert_eq!(fast.cache_stats(), slow.cache_stats(), "{}", kernel.name);
            assert_eq!(fast.flush(), slow.flush(), "{}", kernel.name);
        }
    }

    #[test]
    fn reset_field_balance_matches_hand_count() {
        // reset_field streams 4 read + 4 written arrays.  Serial, without
        // evasion: 8 B read + 8 B write-allocate + 8 B write per array pair
        // touched → 4 × 24 = 96 B/it.
        let m = icelake_sp_8360y();
        let reports = timestep_traffic(&m, 1920, 24, 1);
        let reset = reports.iter().find(|r| r.name == "reset_field").unwrap();
        let b = reset.bytes_per_iteration();
        assert!((90.0..=102.0).contains(&b), "reset_field {b} byte/it");
    }

    #[test]
    fn full_node_occupancy_lowers_the_balance() {
        let m = icelake_sp_8360y();
        let serial = timestep_traffic(&m, 1920, 24, 1);
        let node = timestep_traffic(&m, 1920, 24, 72);
        let total = |reports: &[KernelTrafficReport]| -> f64 {
            reports.iter().map(|r| r.bytes_per_iteration()).sum()
        };
        assert!(
            total(&node) < total(&serial) - 10.0,
            "node {} vs serial {}",
            total(&node),
            total(&serial)
        );
    }

    #[test]
    fn every_timestep_kernel_is_replayed() {
        let m = icelake_sp_8360y();
        let reports = timestep_traffic(&m, 256, 8, 4);
        assert_eq!(reports.len(), timestep_kernels().len());
        for r in &reports {
            assert!(r.iterations > 0.0, "{}", r.name);
            assert!(r.counters.total_bytes() > 0.0, "{}", r.name);
            assert!(r.bytes_per_iteration() > 8.0, "{}", r.name);
        }
    }

    #[test]
    fn memoized_replay_is_bit_identical() {
        let m = icelake_sp_8360y();
        let memo = SimMemo::new();
        for ranks in [1usize, 18, 19, 72] {
            let memoized = timestep_traffic_memo(&m, 256, 8, ranks, &memo);
            let kernels = timestep_kernels();
            assert_eq!(kernels.len(), memoized.len());
            for (kernel, q) in kernels.iter().zip(&memoized) {
                // The unmemoized reference: a fresh core driven directly.
                let occ = DomainOccupancy::compact(&m, ranks);
                let mut core: CoreSim = CoreSim::new(
                    &m,
                    OccupancyContext::compact(&m, ranks),
                    CoreSimOptions {
                        l3_sharers: DomainOccupancy::l3_sharers(&m, occ.busiest),
                        ..Default::default()
                    },
                );
                let sweep = kernel.sweep(256, 8);
                sweep.drive(&mut core);
                assert_eq!(kernel.name, q.name);
                assert_eq!(core.flush(), q.counters, "{} ranks={ranks}", q.name);
                assert_eq!(sweep.iterations() as f64, q.iterations, "{}", q.name);
            }
        }
        // Ranks 19 and 72 share no context, but a second pass over any rank
        // count is free.
        let before = memo.stats().misses;
        let _ = timestep_traffic_memo(&m, 256, 8, 18, &memo);
        assert_eq!(memo.stats().misses, before, "second pass must be hits");
    }

    #[test]
    fn sweeps_respect_field_layout() {
        let kernels = timestep_kernels();
        let ideal = kernels.iter().find(|k| k.name == "ideal_gas").unwrap();
        let sweep = ideal.sweep(100, 10);
        assert_eq!(sweep.row_stride, 104);
        // One halo ring beyond the interior on each side.
        assert_eq!(sweep.inner, 102);
        assert_eq!(sweep.rows, 12);
        assert_eq!(sweep.i0, 1);
        assert_eq!(sweep.k0, 1);
        // All operand bases are 64-byte aligned and distinct.
        let mut bases: Vec<u64> = sweep.operands.iter().map(|o| o.base).collect();
        assert!(bases.iter().all(|b| b % 64 == 0));
        bases.dedup();
        bases.sort_unstable();
        bases.dedup();
        assert_eq!(bases.len(), 4);
    }
}
