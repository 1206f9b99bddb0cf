//! Copy-kernel microbenchmarks (Figs. 6, 8 and 11).
//!
//! The copy kernel `a(:) = b(:)` reads one stream and writes another.  Two
//! experiments use it:
//!
//! * **Volume per iteration vs. thread count** (Fig. 6): with one thread the
//!   write misses force a write-allocate (16 read bytes per 8-byte update);
//!   with enough threads SpecI2M claims the destination lines (ITOM) and
//!   the read volume drops to the source stream alone.
//! * **Read-to-write ratio vs. halo size** (Figs. 8, 11): the arrays are
//!   copied in batches of `inner` elements separated by an untouched halo of
//!   0–17 elements, mimicking the rows of a decomposed grid.  Unaligned
//!   halos create partial cache lines that defeat the evasion; short inner
//!   dimensions defeat it even for aligned halos.

use clover_cachesim::{AccessKind, KernelSpec, NodeSim, RankBase, SimConfig, SimMemo, SpecOperand};
use clover_machine::Machine;

/// The interleaved copy kernel (`load b(i); store a(i)` per iteration) as a
/// two-operand stencil spec: `rows` batches of `inner` elements whose
/// starts are `inner + halo` elements apart, each rank's source at its rank
/// base and its destination `dst_offset` bytes above.  Expressing it this
/// way runs it on the batched line-granular driver while preserving the
/// exact element-interleaved access order of the patched
/// TheBandwidthBenchmark copy — and makes the kernel hashable for the
/// cross-sweep simulation memo.
pub fn copy_kernel_spec(dst_offset: u64, inner: u64, halo: u64, rows: u64) -> KernelSpec {
    KernelSpec {
        rank_base: RankBase::Shifted { shift: 40, plus: 1 },
        operands: vec![
            SpecOperand {
                offset: 0,
                points: vec![(0, 0)],
                kind: AccessKind::Load,
            },
            SpecOperand {
                offset: dst_offset,
                points: vec![(0, 0)],
                kind: AccessKind::Store,
            },
        ],
        row_stride: inner + halo,
        i0: 0,
        inner,
        k0: 0,
        rows,
    }
}

/// One point of the Fig. 6 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyVolumePoint {
    /// Number of active threads.
    pub threads: usize,
    /// Read bytes per iteration (one iteration updates one double).
    pub read_bytes_per_it: f64,
    /// Write bytes per iteration.
    pub write_bytes_per_it: f64,
    /// SpecI2M (ITOM) bytes per iteration.
    pub itom_bytes_per_it: f64,
}

/// One point of the Fig. 8 / Fig. 11 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyHaloPoint {
    /// Inner dimension (elements per batch).
    pub inner: usize,
    /// Halo size in elements.
    pub halo: usize,
    /// Whether the hardware prefetchers were enabled.
    pub prefetchers: bool,
    /// Memory read volume / write volume.
    pub ratio: f64,
}

/// Elements copied per thread in the volume experiment.
const COPY_ELEMENTS: u64 = 32 * 1024;
/// Rows swept per thread in the halo experiment.
const HALO_ROWS: u64 = 96;

/// Fig. 6: read/write/ITOM volume per iteration of the copy kernel as a
/// function of the thread count.
pub fn copy_volume_per_iteration(machine: &Machine, threads: usize) -> CopyVolumePoint {
    copy_volume_per_iteration_memo(machine, threads, &SimMemo::new())
}

/// [`copy_volume_per_iteration`] through a cross-sweep [`SimMemo`]: each
/// distinct domain-load context is simulated once per memo lifetime.
pub fn copy_volume_per_iteration_memo(
    machine: &Machine,
    threads: usize,
    memo: &SimMemo,
) -> CopyVolumePoint {
    let spec = copy_kernel_spec(1 << 30, COPY_ELEMENTS, 0, 1);
    let sim = NodeSim::new(SimConfig::new(machine.clone(), threads));
    let total = sim.run_spmd_memo(&spec, memo).total;
    let iterations = (threads as u64 * COPY_ELEMENTS) as f64;
    CopyVolumePoint {
        threads,
        read_bytes_per_it: total.read_bytes() / iterations,
        write_bytes_per_it: total.write_bytes() / iterations,
        itom_bytes_per_it: total.itom_bytes() / iterations,
    }
}

/// Figs. 8/11: read-to-write ratio of the copy kernel for a given inner
/// dimension and halo size on the *full node* of `machine`.
pub fn copy_halo_ratio(
    machine: &Machine,
    inner: usize,
    halo: usize,
    prefetchers: bool,
) -> CopyHaloPoint {
    copy_halo_ratio_memo(machine, inner, halo, prefetchers, &SimMemo::new())
}

/// [`copy_halo_ratio`] through a cross-sweep [`SimMemo`].  The halo/inner
/// axes make every point a distinct kernel and its own cache-dynamics
/// class: what the memo shares is a repeated evaluation, never a trace, so
/// a caller that walks each point once (figs. 8/11) passes
/// [`SimMemo::without_differential`] and may walk the points in parallel.
pub fn copy_halo_ratio_memo(
    machine: &Machine,
    inner: usize,
    halo: usize,
    prefetchers: bool,
    memo: &SimMemo,
) -> CopyHaloPoint {
    let spec = copy_kernel_spec(1 << 32, inner as u64, halo as u64, HALO_ROWS);
    let mut config = SimConfig::new(machine.clone(), machine.total_cores());
    if !prefetchers {
        config = config.without_prefetchers();
    }
    let total = NodeSim::new(config).run_spmd_memo(&spec, memo).total;
    CopyHaloPoint {
        inner,
        halo,
        prefetchers,
        ratio: total.read_bytes() / total.write_bytes().max(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_machine::icelake_sp_8360y;

    #[test]
    fn single_thread_copy_needs_write_allocates() {
        // Fig. 6: one thread → 16 read bytes and 8 write bytes per update.
        let m = icelake_sp_8360y();
        let p = copy_volume_per_iteration(&m, 1);
        assert!(
            (p.read_bytes_per_it - 16.0).abs() < 1.5,
            "read {}",
            p.read_bytes_per_it
        );
        assert!(
            (p.write_bytes_per_it - 8.0).abs() < 0.8,
            "write {}",
            p.write_bytes_per_it
        );
        assert!(p.itom_bytes_per_it < 1.0);
    }

    #[test]
    fn seventeen_threads_evade_most_write_allocates() {
        // Fig. 6: with 17 active threads the WAs are almost fully evaded.
        let m = icelake_sp_8360y();
        let p = copy_volume_per_iteration(&m, 17);
        assert!(p.read_bytes_per_it < 11.0, "read {}", p.read_bytes_per_it);
        assert!(p.itom_bytes_per_it > 4.0, "itom {}", p.itom_bytes_per_it);
    }

    #[test]
    fn read_volume_decreases_monotonically_with_threads_in_first_domain() {
        let m = icelake_sp_8360y();
        let reads: Vec<f64> = [1usize, 4, 9, 17]
            .iter()
            .map(|&t| copy_volume_per_iteration(&m, t).read_bytes_per_it)
            .collect();
        for w in reads.windows(2) {
            assert!(w[1] <= w[0] + 0.2, "read volume should not rise: {reads:?}");
        }
    }

    #[test]
    fn short_inner_dimension_has_higher_ratio() {
        // Fig. 8: batches of 216 elements average a ratio of ~1.35, batches
        // of 1920 drop to ~1.04.
        let m = icelake_sp_8360y();
        let short = copy_halo_ratio(&m, 216, 5, true);
        let long = copy_halo_ratio(&m, 1920, 5, true);
        assert!(
            short.ratio > long.ratio + 0.08,
            "short {} vs long {}",
            short.ratio,
            long.ratio
        );
        assert!(long.ratio < 1.35, "long-row ratio {}", long.ratio);
    }

    #[test]
    fn aligned_halo_beats_unaligned_halo_for_216() {
        // Fig. 8: halo sizes that keep rows cache-line aligned (0, 8, 16)
        // evade significantly more than unaligned ones.
        let m = icelake_sp_8360y();
        let aligned = copy_halo_ratio(&m, 216, 8, true);
        let unaligned = copy_halo_ratio(&m, 216, 3, true);
        assert!(
            aligned.ratio < unaligned.ratio,
            "aligned {} vs unaligned {}",
            aligned.ratio,
            unaligned.ratio
        );
    }

    #[test]
    fn prefetchers_off_increases_the_ratio() {
        let m = icelake_sp_8360y();
        let on = copy_halo_ratio(&m, 216, 3, true);
        let off = copy_halo_ratio(&m, 216, 3, false);
        assert!(
            off.ratio > on.ratio,
            "PF off {} vs on {}",
            off.ratio,
            on.ratio
        );
        assert!(!off.prefetchers && on.prefetchers);
    }

    #[test]
    fn memoized_copy_points_are_bit_identical() {
        // Against a fresh from-scratch memo per point.
        let m = icelake_sp_8360y();
        let memo = SimMemo::new();
        for threads in [1usize, 9, 17, 18, 19, 36] {
            let spec = copy_kernel_spec(1 << 30, COPY_ELEMENTS, 0, 1);
            let plain = NodeSim::new(SimConfig::new(m.clone(), threads))
                .run_spmd_memo(&spec, &SimMemo::without_differential())
                .total;
            let memoized = copy_volume_per_iteration_memo(&m, threads, &memo);
            let iterations = (threads as u64 * COPY_ELEMENTS) as f64;
            assert_eq!(
                plain.read_bytes() / iterations,
                memoized.read_bytes_per_it,
                "threads={threads}"
            );
            assert_eq!(
                plain.itom_bytes() / iterations,
                memoized.itom_bytes_per_it,
                "threads={threads}"
            );
        }
        for (inner, halo, pf) in [(216usize, 5usize, true), (1920, 0, true), (216, 3, false)] {
            let spec = copy_kernel_spec(1 << 32, inner as u64, halo as u64, HALO_ROWS);
            let mut config = SimConfig::new(m.clone(), m.total_cores());
            if !pf {
                config = config.without_prefetchers();
            }
            let plain = NodeSim::new(config)
                .run_spmd_memo(&spec, &SimMemo::without_differential())
                .total;
            let memoized = copy_halo_ratio_memo(&m, inner, halo, pf, &memo);
            assert_eq!(
                plain.read_bytes() / plain.write_bytes().max(1.0),
                memoized.ratio,
                "inner={inner} halo={halo} pf={pf}"
            );
        }
    }

    #[test]
    fn ratio_stays_between_one_and_two() {
        let m = icelake_sp_8360y();
        for inner in [216usize, 530, 1920] {
            for halo in [0usize, 5, 16] {
                let p = copy_halo_ratio(&m, inner, halo, true);
                assert!(
                    (0.95..=2.1).contains(&p.ratio),
                    "inner={inner} halo={halo}: ratio {}",
                    p.ratio
                );
            }
        }
    }
}
