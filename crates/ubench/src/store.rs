//! Store-ratio microbenchmarks (Figs. 5, 9, 10).
//!
//! Each core stores a fixed data volume into one, two or three independent
//! streams using either normal or non-temporal stores.  The *store ratio* is
//! the actual memory traffic (read + write at the memory controllers)
//! divided by the explicitly initiated store volume: 2.0 means every store
//! needs a write-allocate, 1.0 means all write-allocates are evaded.

use clover_cachesim::{AccessKind, KernelSpec, NodeSim, RankBase, SimConfig, SimMemo, SpecOperand};
use clover_machine::Machine;

/// Store flavour used by the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// Normal (temporal) AVX-512 stores — `store_avx512` in likwid-bench.
    Normal,
    /// Non-temporal stores — `store_mem_avx512` in likwid-bench.
    NonTemporal,
}

/// Doubles stored per stream per core in the simulated benchmark.  The real
/// benchmark stores 10 GB; the simulator only needs enough elements for the
/// evasion statistics to converge, which keeps the sweep fast.
const ELEMENTS_PER_STREAM: u64 = 32 * 1024;

/// The SPMD kernel of the store benchmark as a typed, memoizable spec:
/// `streams` independent store streams per core.  Streams live far apart so
/// they form independent write streams (identical to the likwid-bench store
/// kernels); one operand per stream reproduces the element-interleaved
/// store order of the real kernel through the batched line-granular driver.
pub fn store_kernel_spec(streams: usize, kind: StoreKind) -> KernelSpec {
    assert!(
        (1..=3).contains(&streams),
        "the paper uses 1-3 store streams"
    );
    let access = match kind {
        StoreKind::Normal => AccessKind::Store,
        StoreKind::NonTemporal => AccessKind::StoreNT,
    };
    KernelSpec {
        rank_base: RankBase::Shifted { shift: 40, plus: 1 },
        operands: (0..streams as u64)
            .map(|s| SpecOperand {
                offset: s << 30,
                points: vec![(0, 0)],
                kind: access,
            })
            .collect(),
        row_stride: ELEMENTS_PER_STREAM,
        i0: 0,
        inner: ELEMENTS_PER_STREAM,
        k0: 0,
        rows: 1,
    }
}

/// Measure the store ratio for `cores` active cores, `streams` store streams
/// per core and the given store kind.
pub fn store_ratio(machine: &Machine, cores: usize, streams: usize, kind: StoreKind) -> f64 {
    store_ratio_memo(machine, cores, streams, kind, &SimMemo::new())
}

/// [`store_ratio`] through a cross-sweep [`SimMemo`]: a curve over many
/// core counts simulates each distinct domain-load context only once per
/// memo lifetime.
pub fn store_ratio_memo(
    machine: &Machine,
    cores: usize,
    streams: usize,
    kind: StoreKind,
    memo: &SimMemo,
) -> f64 {
    let spec = store_kernel_spec(streams, kind);
    let sim = NodeSim::new(SimConfig::new(machine.clone(), cores));
    let report = sim.run_spmd_memo(&spec, memo);
    // Actual traffic over initiated store volume.
    let initiated = (cores as u64 * streams as u64 * ELEMENTS_PER_STREAM * 8) as f64;
    report.total_bytes() / initiated
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_machine::{icelake_sp_8360y, sapphire_rapids_8480};

    #[test]
    fn serial_normal_stores_have_ratio_two() {
        let m = icelake_sp_8360y();
        for streams in 1..=3 {
            let r = store_ratio(&m, 1, streams, StoreKind::Normal);
            assert!((1.95..=2.05).contains(&r), "streams={streams}: ratio {r}");
        }
    }

    #[test]
    fn serial_nt_stores_have_ratio_one() {
        let m = icelake_sp_8360y();
        let r = store_ratio(&m, 1, 1, StoreKind::NonTemporal);
        assert!((0.99..=1.06).contains(&r), "ratio {r}");
    }

    #[test]
    fn icx_socket_ratio_drops_close_to_one() {
        // Fig. 5: best ratio ≈ 1.06 at a full socket (36 cores).
        let m = icelake_sp_8360y();
        let r = store_ratio(&m, 36, 1, StoreKind::Normal);
        assert!((1.0..=1.25).contains(&r), "socket ratio {r}");
    }

    #[test]
    fn icx_full_node_ratio_lands_in_the_paper_band() {
        // Fig. 5: 1.2–1.25 at the full node.
        let m = icelake_sp_8360y();
        let r = store_ratio(&m, 72, 1, StoreKind::Normal);
        assert!((1.12..=1.35).contains(&r), "full-node ratio {r}");
    }

    #[test]
    fn more_streams_are_worse_on_icx() {
        let m = icelake_sp_8360y();
        let r1 = store_ratio(&m, 36, 1, StoreKind::Normal);
        let r3 = store_ratio(&m, 36, 3, StoreKind::Normal);
        assert!(r3 > r1, "3 streams ({r3}) must be worse than 1 ({r1})");
    }

    #[test]
    fn nt_ratio_rises_slightly_with_core_count() {
        // Fig. 5: NT ratio rises from 1.0 to ~1.16-1.17 at the full node.
        let m = icelake_sp_8360y();
        let serial = store_ratio(&m, 1, 1, StoreKind::NonTemporal);
        let node = store_ratio(&m, 72, 1, StoreKind::NonTemporal);
        assert!(node > serial);
        assert!((1.10..=1.25).contains(&node), "full-node NT ratio {node}");
    }

    #[test]
    fn new_domain_worsens_the_ratio_before_recovering() {
        // Fig. 5: the ratio rises again when a new ccNUMA domain is touched.
        let m = icelake_sp_8360y();
        let r18 = store_ratio(&m, 18, 1, StoreKind::Normal);
        let r20 = store_ratio(&m, 20, 1, StoreKind::Normal);
        let r36 = store_ratio(&m, 36, 1, StoreKind::Normal);
        assert!(
            r20 > r18,
            "touching domain 1 must worsen the ratio: {r18} -> {r20}"
        );
        assert!(r36 < r20, "filling domain 1 must recover: {r20} -> {r36}");
    }

    #[test]
    fn spr_evades_only_about_half_of_the_write_allocates() {
        // Fig. 10: best case ≈ 50 % of WAs evaded on the SPR 8480+ socket.
        let m = sapphire_rapids_8480();
        let r = store_ratio(&m, 56, 1, StoreKind::Normal);
        assert!((1.35..=1.65).contains(&r), "SPR socket ratio {r}");
    }

    #[test]
    fn spr_needs_many_cores_before_speci2m_helps() {
        // Fig. 10: no benefit below ~18 cores.
        let m = sapphire_rapids_8480();
        let r12 = store_ratio(&m, 12, 1, StoreKind::Normal);
        let r40 = store_ratio(&m, 40, 1, StoreKind::Normal);
        assert!(r12 > 1.9, "12 cores: ratio {r12}");
        assert!(r40 < 1.8, "40 cores: ratio {r40}");
    }

    #[test]
    #[should_panic(expected = "1-3 store streams")]
    fn invalid_stream_count_panics() {
        let m = icelake_sp_8360y();
        let _ = store_ratio(&m, 1, 4, StoreKind::Normal);
    }

    #[test]
    fn memoized_ratio_is_bit_identical_to_unmemoized() {
        // The reference is a fresh from-scratch memo per point.  One memo
        // spans the whole mini-curve, so later points are served partly
        // from cache — the ratios must not change in a single bit.
        let m = icelake_sp_8360y();
        let memo = SimMemo::new();
        for kind in [StoreKind::Normal, StoreKind::NonTemporal] {
            for streams in 1..=3 {
                let spec = store_kernel_spec(streams, kind);
                for cores in [1usize, 2, 18, 19, 20, 36, 37] {
                    let plain = NodeSim::new(SimConfig::new(m.clone(), cores))
                        .run_spmd_memo(&spec, &SimMemo::without_differential())
                        .total_bytes()
                        / (cores as u64 * streams as u64 * ELEMENTS_PER_STREAM * 8) as f64;
                    let memoized = store_ratio_memo(&m, cores, streams, kind, &memo);
                    assert!(
                        plain == memoized,
                        "cores={cores} streams={streams} {kind:?}: {plain} vs {memoized}"
                    );
                }
            }
        }
        assert!(memo.stats().hits > 0, "the curve must reuse contexts");
    }
}
