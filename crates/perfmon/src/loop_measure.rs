//! Row-sampled traffic measurement of a CloverLeaf hotspot loop.
//!
//! Tracing all 15360² × 400 iterations of the Tiny working set through the
//! cache simulator is infeasible; a streaming stencil's traffic is periodic
//! in the grid rows, so a band of representative rows per loop suffices.
//! This module builds the access pattern of one loop from its
//! `clover-stencil` descriptor, drives the core simulator with it and
//! reports the measured code balance.  The same module powers the
//! row-sampling ablation bench referenced in `DESIGN.md`.

use clover_cachesim::hierarchy::{CoreSimOptions, DomainOccupancy, OccupancyContext};
use clover_cachesim::patterns::{StencilOperand, StencilRowSweep};
use clover_cachesim::PrefetcherConfig;
use clover_cachesim::{AccessKind, CoreSim, MemCounters};
use clover_machine::Machine;
use clover_stencil::{AccessMode, LoopSpec};

/// Configuration of one loop measurement.
#[derive(Debug, Clone)]
pub struct MeasureConfig {
    /// Local inner dimension of the rank's domain (elements).
    pub local_inner: usize,
    /// Number of grid rows to sample.
    pub rows: usize,
    /// Total number of ranks on the node (compact pinning).
    pub ranks: usize,
    /// Whether SpecI2M is enabled.
    pub speci2m_enabled: bool,
    /// Whether the evadable write streams use non-temporal stores.
    pub nt_stores: bool,
    /// Hardware prefetcher configuration.
    pub prefetchers: PrefetcherConfig,
}

impl MeasureConfig {
    /// Single-rank measurement on the full Tiny row length.
    pub fn single_rank() -> Self {
        Self {
            local_inner: 15_360,
            rows: 12,
            ranks: 1,
            speci2m_enabled: true,
            nt_stores: false,
            prefetchers: PrefetcherConfig::enabled(),
        }
    }

    /// Full-node measurement (72 ranks on ICX → 1920-element rows).
    pub fn full_node(ranks: usize, local_inner: usize) -> Self {
        Self {
            local_inner,
            rows: 12,
            ranks,
            speci2m_enabled: true,
            nt_stores: false,
            prefetchers: PrefetcherConfig::enabled(),
        }
    }
}

/// Result of a loop measurement.
#[derive(Debug, Clone)]
pub struct LoopMeasurement {
    /// Loop label.
    pub name: String,
    /// Measured traffic counters for the sampled band.
    pub counters: MemCounters,
    /// Grid-point updates performed.
    pub iterations: f64,
}

impl LoopMeasurement {
    /// Measured code balance in bytes per iteration.
    pub fn bytes_per_iteration(&self) -> f64 {
        self.counters.total_bytes() / self.iterations.max(1.0)
    }

    /// Measured read volume per iteration (bytes).
    pub fn read_bytes_per_iteration(&self) -> f64 {
        self.counters.read_bytes() / self.iterations.max(1.0)
    }

    /// Measured write volume per iteration (bytes).
    pub fn write_bytes_per_iteration(&self) -> f64 {
        self.counters.write_bytes() / self.iterations.max(1.0)
    }
}

/// Measure one loop's memory traffic on `machine` with the given
/// configuration.
pub fn measure_loop(machine: &Machine, spec: &LoopSpec, cfg: &MeasureConfig) -> LoopMeasurement {
    let ctx = OccupancyContext::compact(machine, cfg.ranks);
    let occ = DomainOccupancy::compact(machine, cfg.ranks);
    let sharers = DomainOccupancy::l3_sharers(machine, occ.busiest);
    let mut core: CoreSim = CoreSim::new(
        machine,
        ctx,
        CoreSimOptions {
            speci2m_enabled: cfg.speci2m_enabled,
            prefetchers: cfg.prefetchers,
            l3_sharers: sharers,
            ..Default::default()
        },
    );

    // Lay the arrays out back to back with a generous gap, mirroring the
    // 64-byte-aligned allocations of the patched benchmark.
    let halo = 2usize;
    let row_stride = (cfg.local_inner + 2 * halo) as u64;
    let array_bytes = row_stride * (cfg.rows as u64 + 4) * 8;
    let gap = ((array_bytes / 4096) + 2) * 4096;

    let mut operands = Vec::new();
    let mut nt_assigned = false;
    for (idx, arr) in spec.arrays.iter().enumerate() {
        let base = 1u64 << 33 | (idx as u64 * gap);
        let kind = match arr.mode {
            AccessMode::Read => AccessKind::Load,
            AccessMode::ReadWrite => AccessKind::Store,
            AccessMode::Write => {
                if cfg.nt_stores && !nt_assigned {
                    // The compiler honours the NT directive for the first
                    // (alignment-compatible) write stream only.
                    nt_assigned = true;
                    AccessKind::StoreNT
                } else {
                    AccessKind::Store
                }
            }
        };
        let offsets: Vec<(i64, i64)> = arr
            .offsets
            .iter()
            .map(|&(di, dk)| (di as i64, dk as i64))
            .collect();
        // Read-modify-write arrays are both loaded and stored at the centre.
        if arr.mode == AccessMode::ReadWrite {
            operands.push(StencilOperand {
                base,
                offsets: offsets.clone(),
                kind: AccessKind::Load,
            });
        }
        operands.push(StencilOperand {
            base,
            offsets,
            kind,
        });
    }

    let sweep = StencilRowSweep {
        operands,
        row_stride,
        i0: halo as u64,
        inner: cfg.local_inner as u64,
        k0: 2,
        rows: cfg.rows as u64,
    };
    sweep.drive(&mut core);
    let counters = core.flush();
    LoopMeasurement {
        name: spec.name.clone(),
        counters,
        iterations: sweep.iterations() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_machine::icelake_sp_8360y;
    use clover_stencil::{loop_by_name, CodeBalance};

    #[test]
    fn single_rank_am04_measures_near_lcf_wa() {
        // Table I: single-core measurement of am04 is ~24 byte/it.
        let m = icelake_sp_8360y();
        let spec = loop_by_name("am04").unwrap();
        let cfg = MeasureConfig {
            local_inner: 3840,
            ..MeasureConfig::single_rank()
        };
        let meas = measure_loop(&m, &spec, &cfg);
        let b = meas.bytes_per_iteration();
        assert!((21.0..=27.0).contains(&b), "measured {b} byte/it");
    }

    #[test]
    fn full_node_am04_measures_below_single_rank() {
        let m = icelake_sp_8360y();
        let spec = loop_by_name("am04").unwrap();
        let serial = measure_loop(
            &m,
            &spec,
            &MeasureConfig {
                local_inner: 3840,
                ..MeasureConfig::single_rank()
            },
        );
        let node = measure_loop(&m, &spec, &MeasureConfig::full_node(72, 1920));
        assert!(
            node.bytes_per_iteration() < serial.bytes_per_iteration() - 2.0,
            "node {} vs serial {}",
            node.bytes_per_iteration(),
            serial.bytes_per_iteration()
        );
    }

    #[test]
    fn prime_decomposition_measures_higher_than_full_node() {
        let m = icelake_sp_8360y();
        let spec = loop_by_name("am04").unwrap();
        let node = measure_loop(&m, &spec, &MeasureConfig::full_node(72, 1920));
        let prime = measure_loop(
            &m,
            &spec,
            &MeasureConfig {
                rows: 48,
                ..MeasureConfig::full_node(71, 216)
            },
        );
        assert!(
            prime.bytes_per_iteration() > node.bytes_per_iteration() * 1.03,
            "prime {} vs node {}",
            prime.bytes_per_iteration(),
            node.bytes_per_iteration()
        );
    }

    #[test]
    fn nt_stores_lower_the_balance_of_evadable_loops() {
        let m = icelake_sp_8360y();
        let spec = loop_by_name("am08").unwrap();
        let base_cfg = MeasureConfig {
            local_inner: 3840,
            ..MeasureConfig::single_rank()
        };
        let plain = measure_loop(&m, &spec, &base_cfg);
        let nt = measure_loop(
            &m,
            &spec,
            &MeasureConfig {
                nt_stores: true,
                ..base_cfg
            },
        );
        assert!(
            nt.bytes_per_iteration() < plain.bytes_per_iteration() - 3.0,
            "nt {} vs plain {}",
            nt.bytes_per_iteration(),
            plain.bytes_per_iteration()
        );
    }

    #[test]
    fn class_iii_loop_measurement_matches_all_bounds() {
        // ac03: all four bounds coincide at 64 byte/it; the measurement must
        // land close to that for any configuration.
        let m = icelake_sp_8360y();
        let spec = loop_by_name("ac03").unwrap();
        let bounds = CodeBalance::from_spec(&spec);
        for cfg in [
            MeasureConfig {
                local_inner: 3840,
                ..MeasureConfig::single_rank()
            },
            MeasureConfig::full_node(72, 1920),
        ] {
            let meas = measure_loop(&m, &spec, &cfg);
            let rel = (meas.bytes_per_iteration() - bounds.min).abs() / bounds.min;
            assert!(
                rel < 0.12,
                "measured {} vs bound {}",
                meas.bytes_per_iteration(),
                bounds.min
            );
        }
    }

    #[test]
    fn measurement_reports_iteration_count() {
        let m = icelake_sp_8360y();
        let spec = loop_by_name("am04").unwrap();
        let cfg = MeasureConfig {
            local_inner: 512,
            rows: 8,
            ..MeasureConfig::single_rank()
        };
        let meas = measure_loop(&m, &spec, &cfg);
        assert_eq!(meas.iterations, 512.0 * 8.0);
        assert!(meas.read_bytes_per_iteration() > 0.0);
        assert!(meas.write_bytes_per_iteration() > 0.0);
    }
}
