//! Property tests of the simulator's segmentation and caching layers: the
//! one line-granular driver, the sweep cursor, is invariant to how its
//! input is cut (a run against its elements one at a time, each a run of
//! one: same `MemCounters` and per-level hit/miss counts for arbitrary
//! bases, run lengths, access kinds, head/tail misalignment and
//! occupancy), the memo equals a fresh from-scratch memo, a replayed trace
//! equals simulating, and the representative core equals every rank.
//! `reference_hierarchy.rs` holds the driver itself to a hierarchy that
//! shares none of its code.

use cloverleaf_wa::cachesim::hierarchy::{CoreSimOptions, OccupancyContext};
use cloverleaf_wa::cachesim::memo::MIN_MEMO_SHIFT;
use cloverleaf_wa::cachesim::patterns::{StencilOperand, StencilRowSweep};
use cloverleaf_wa::cachesim::{
    AccessKind, AccessRun, CoreSim, DomainOccupancy, KernelSpec, NodeSim, PrefetcherConfig,
    PrivateCore, RankBase, SetAssocCache, SimConfig, SimMemo, SpecOperand, SweepCursor,
};
use cloverleaf_wa::machine::{icelake_sp_8360y, Machine, MachinePreset, WritePolicyKind};
use proptest::prelude::*;

const KINDS: [AccessKind; 3] = [AccessKind::Load, AccessKind::Store, AccessKind::StoreNT];

fn core_for(machine: &Machine, ranks: usize, prefetchers: bool) -> CoreSim {
    let ctx = OccupancyContext::compact(machine, ranks);
    CoreSim::new(
        machine,
        ctx,
        CoreSimOptions {
            prefetchers: if prefetchers {
                PrefetcherConfig::enabled()
            } else {
                PrefetcherConfig::disabled()
            },
            l3_sharers: ranks.min(36),
            ..Default::default()
        },
    )
}

/// Feed one run element by element, each a run of one.
fn drive_scalar_run(core: &mut CoreSim, run: AccessRun) {
    for i in 0..run.elements {
        core.drive_run(AccessRun {
            base: run.base + i * 8,
            elements: 1,
            ..run
        });
    }
}

/// Feed a sweep one access at a time in its loop order, each a run of one.
fn drive_scalar_sweep(core: &mut CoreSim, sweep: &StencilRowSweep) {
    for k in sweep.k0..sweep.k0 + sweep.rows {
        for i in sweep.i0..sweep.i0 + sweep.inner {
            for op in &sweep.operands {
                for &(di, dk) in &op.offsets {
                    let idx = (k as i64 + dk) * sweep.row_stride as i64 + i as i64 + di;
                    drive_scalar_run(
                        core,
                        AccessRun {
                            base: op.base + 8 * idx as u64,
                            elements: 1,
                            kind: op.kind,
                        },
                    );
                }
            }
        }
    }
}

/// Assert that `runs` driven whole and element by element agree bit for
/// bit: one driver, segmented two ways.
fn assert_equivalent(machine: &Machine, ranks: usize, prefetchers: bool, runs: &[AccessRun]) {
    let mut scalar = core_for(machine, ranks, prefetchers);
    let mut batched = core_for(machine, ranks, prefetchers);
    for &run in runs {
        drive_scalar_run(&mut scalar, run);
        batched.drive_run(run);
    }
    assert_eq!(
        scalar.cache_stats(),
        batched.cache_stats(),
        "hit/miss mismatch for {runs:?}"
    );
    assert_eq!(scalar.flush(), batched.flush(), "counter mismatch");
}

/// Whole runs vs. runs of one element under every store-miss policy.
fn assert_equivalent_for_all_policies(machine: &Machine, ranks: usize, runs: &[AccessRun]) {
    for write_policy in WritePolicyKind::all() {
        let mk = || {
            let ctx = OccupancyContext::compact(machine, ranks);
            CoreSim::new(
                machine,
                ctx,
                CoreSimOptions {
                    l3_sharers: ranks.min(36),
                    write_policy,
                    ..Default::default()
                },
            )
        };
        let mut scalar = mk();
        let mut batched = mk();
        for &run in runs {
            drive_scalar_run(&mut scalar, run);
            batched.drive_run(run);
        }
        assert_eq!(
            scalar.cache_stats(),
            batched.cache_stats(),
            "{write_policy:?}: hit/miss mismatch for {runs:?}"
        );
        assert_eq!(
            scalar.flush(),
            batched.flush(),
            "{write_policy:?}: counter mismatch"
        );
    }
}

/// Operand spacing of the trace-class tests: a multiple of every L3
/// share's set span (at most 2^16 sets of 64-byte lines), so equal lines
/// of different operands collide in one set under any sharer count.
const SET_SPAN_MULTIPLE: u64 = 1 << 26;

/// A random multi-operand stencil kernel: 1–4 operands `SET_SPAN_MULTIPLE`
/// apart plus a skew (a line or element offset, or a 4-byte misalignment
/// that forces the element-wise driver), each a load, store or NT store
/// of 1–3 stencil points.
fn aliasing_kernel(seed: u64, inner: u64, halo: u64, rows: u64) -> KernelSpec {
    let mut state = seed;
    let mut draw = |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    const SKEWS: [u64; 6] = [0, 8, 64, 72, 4096 + 24, 4];
    let operands = (0..1 + draw(4))
        .map(|j| SpecOperand {
            offset: j * SET_SPAN_MULTIPLE + SKEWS[draw(SKEWS.len() as u64) as usize],
            points: (0..1 + draw(3))
                .map(|_| (draw(3) as i64 - 1, draw(3) as i64 - 1))
                .collect(),
            kind: KINDS[draw(3) as usize],
        })
        .collect();
    KernelSpec {
        rank_base: RankBase::Shifted { shift: 40, plus: 1 },
        operands,
        row_stride: inner + halo,
        i0: 1,
        inner,
        k0: 1,
        rows,
    }
}

/// `counters` of `kernel` at `(l3_sharers, active_domains)` through both
/// memos, asserted equal.
fn assert_differential_equals_scratch(
    machine: &Machine,
    kernel: &KernelSpec,
    (l3_sharers, active_domains): (usize, usize),
    diff: &SimMemo,
    scratch: &SimMemo,
) {
    let ctx = OccupancyContext::domain_load(machine, 1, active_domains);
    let options = CoreSimOptions {
        l3_sharers,
        ..Default::default()
    };
    assert_eq!(
        diff.counters(machine, ctx, options, kernel, 0),
        scratch.counters(machine, ctx, options, kernel, 0),
        "{} sharers={l3_sharers} domains={active_domains} {kernel:?}",
        machine.id
    );
}

/// The negative arm of the trace-class rule: a kernel that may evict at
/// the last level keeps the sharer count in its trace identity, so two
/// sharer counts under one accounting are two simulations and no replay.
#[test]
fn kernels_that_may_evict_keep_the_sharer_count_in_their_trace_identity() {
    let machine = icelake_sp_8360y();
    let ways = machine.caches.l3.associativity as u64;
    let streaming = |elements| {
        KernelSpec::contiguous(
            RankBase::Shifted { shift: 40, plus: 1 },
            0,
            elements,
            AccessKind::Store,
        )
    };
    // A working set larger than the share: 4 MiB of stores against 1.5 and
    // 3 MiB.  And a working set of a few KiB that collides: one more
    // aliasing stream than the share has ways.
    let colliding = KernelSpec {
        operands: (0..=ways)
            .map(|j| SpecOperand {
                offset: j * SET_SPAN_MULTIPLE,
                points: vec![(0, 0)],
                kind: if j % 2 == 0 {
                    AccessKind::Load
                } else {
                    AccessKind::Store
                },
            })
            .collect(),
        ..streaming(64)
    };
    for kernel in [streaming(512 * 1024), colliding] {
        let (diff, scratch) = (SimMemo::new(), SimMemo::without_differential());
        for l3_sharers in [36, 18] {
            let options = CoreSimOptions {
                l3_sharers,
                ..Default::default()
            };
            assert!(!kernel.never_evicts_l3(&machine, &options));
            assert_differential_equals_scratch(&machine, &kernel, (l3_sharers, 1), &diff, &scratch);
        }
        let stats = diff.diff_stats();
        assert_eq!((stats.hits, stats.misses), (0, 2), "{kernel:?}");
        // The same kernels with the whole L3 to themselves cannot evict.
        assert!(streaming(512 * 1024).never_evicts_l3(&machine, &CoreSimOptions::default()));
    }
}

proptest! {
    /// Soundness of the trace class: a random multi-operand kernel —
    /// aliasing operands, skewed and misaligned bases, stencil points,
    /// every access kind — walked over two sharer counts and two
    /// active-domain counts on any preset gives the counters of the
    /// from-scratch memo at every point, and the second sharer count
    /// replays the first one's trace exactly when the kernel provably
    /// evicts under neither share.  (The leader of such a class also
    /// hard-asserts that its L3 share evicted nothing.)
    #[test]
    fn trace_class_shares_one_simulation_across_sharer_counts_iff_nothing_evicts(
        seed in 0u64..u64::MAX,
        inner in 8u64..=3000,
        halo in 0u64..20,
        rows in 1u64..=40,
        preset in prop::sample::select(MachinePreset::all()),
        sharers in prop::sample::select(vec![(0usize, 3usize), (3, 1), (1, 2), (2, 0), (3, 2)]),
    ) {
        let machine = preset.machine();
        let max = machine.caches.l3_sharers;
        let counts = [1, 2, (max / 2).max(3), max];
        let (first, second) = (counts[sharers.0], counts[sharers.1]);
        let domains = [1, machine.topology.domains.len()];
        let kernel = aliasing_kernel(seed, inner, halo, rows);
        let (diff, scratch) = (SimMemo::new(), SimMemo::without_differential());
        for l3_sharers in [first, second] {
            for active_domains in domains {
                assert_differential_equals_scratch(
                    &machine,
                    &kernel,
                    (l3_sharers, active_domains),
                    &diff,
                    &scratch,
                );
            }
        }
        let proven = [first, second].into_iter().all(|l3_sharers| {
            let options = CoreSimOptions { l3_sharers, ..Default::default() };
            kernel.never_evicts_l3(&machine, &options)
        });
        // Four lookups (two, where the node has one domain): every one but
        // the leader of a trace identity replays.
        let lookups = if domains[0] == domains[1] { 2 } else { 4 };
        let leaders = if proven { 1 } else { 2 };
        let stats = diff.diff_stats();
        prop_assert_eq!(
            (stats.hits, stats.misses), (lookups - leaders, leaders),
            "{} sharers {}/{} proven={} {:?}", machine.id, first, second, proven, kernel
        );
    }

    /// One run of any kind, any byte alignment of the base (including
    /// non-8-aligned bases whose elements straddle cache lines) and any
    /// length is bit-identical to its elements driven one at a time, under
    /// any occupancy.
    #[test]
    fn single_run_matches_scalar(
        base_align in 0u64..130,
        elements in 0u64..1500,
        kind_idx in 0usize..3,
        ranks in prop::sample::select(vec![1usize, 18, 72]),
    ) {
        let machine = icelake_sp_8360y();
        let run = AccessRun {
            base: (1 << 22) + base_align,
            elements,
            kind: KINDS[kind_idx],
        };
        assert_equivalent(&machine, ranks, true, &[run]);
    }

    /// Alternating load/store runs over two arrays with a halo-induced
    /// misaligned row start (the copy microbenchmark shape), prefetchers
    /// on and off: whole runs equal their elements one at a time.
    #[test]
    fn interleaved_rows_match_scalar(
        inner in 1u64..300,
        halo in 0u64..18,
        rows in 1u64..6,
        pf in 0usize..2,
    ) {
        let machine = icelake_sp_8360y();
        let mut runs = Vec::new();
        for row in 0..rows {
            let off = row * (inner + halo) * 8;
            runs.push(AccessRun::load((1 << 33) + off, inner));
            runs.push(AccessRun::store((1 << 30) + off, inner));
        }
        assert_equivalent(&machine, 72, pf == 0, &runs);
    }

    /// A multi-operand stencil sweep equals its accesses fed one at a time
    /// (each a one-element sweep) for random row geometries and operand
    /// mixes: the cursor's segments do not depend on how many operands
    /// share them.
    #[test]
    fn stencil_driver_matches_scalar(
        stride_extra in 0u64..9,
        inner in 8u64..260,
        rows in 1u64..5,
        store_kind in 0usize..2,
    ) {
        let machine = icelake_sp_8360y();
        let sweep = StencilRowSweep {
            operands: vec![
                StencilOperand {
                    base: 1 << 30,
                    offsets: vec![(0, 0), (1, 0), (-1, 0), (0, -1)],
                    kind: AccessKind::Load,
                },
                StencilOperand {
                    base: 1 << 33,
                    offsets: vec![(0, 0)],
                    kind: if store_kind == 0 {
                        AccessKind::Store
                    } else {
                        AccessKind::StoreNT
                    },
                },
            ],
            row_stride: inner + stride_extra + 2,
            i0: 1,
            inner,
            k0: 1,
            rows,
        };
        let mut fast = core_for(&machine, 72, true);
        let mut slow = core_for(&machine, 72, true);
        sweep.drive(&mut fast);
        drive_scalar_sweep(&mut slow, &sweep);
        prop_assert_eq!(fast.cache_stats(), slow.cache_stats());
        prop_assert_eq!(fast.flush(), slow.flush());
    }

    /// Rows with a halo gap between them, from a possibly misaligned base,
    /// one run per row: bit-identical to the same elements one at a time.
    #[test]
    fn row_sweep_matches_scalar(
        base_align in 0u64..64,
        inner in 1u64..300,
        halo in 0u64..18,
        kind_idx in 0usize..3,
    ) {
        let machine = icelake_sp_8360y();
        let runs: Vec<AccessRun> = (0..4)
            .map(|row| AccessRun {
                base: (1 << 28) + base_align + row * (inner + halo) * 8,
                elements: inner,
                kind: KINDS[kind_idx],
            })
            .collect();
        assert_equivalent(&machine, 1, true, &runs);
    }

    /// The cross-sweep memo is exact: for arbitrary kernel specs (operand
    /// mixes, stencil shapes, rank-base schemes) and any rank count,
    /// `run_spmd_memo` through a fresh memo reproduces a fresh from-scratch
    /// memo bit for bit.
    #[test]
    fn run_spmd_memo_matches_run_spmd(
        operand_mix in 0usize..4,
        inner in 8u64..300,
        rows in 1u64..4,
        stride_extra in 0u64..6,
        rank_base_idx in 0usize..3,
        ranks in prop::sample::select(vec![1usize, 2, 17, 18, 19, 20, 36, 37, 72]),
    ) {
        let machine = icelake_sp_8360y();
        let rank_base = [
            RankBase::Shared,
            RankBase::Shifted { shift: 40, plus: 1 },
            RankBase::Shifted { shift: 36, plus: 0 },
        ][rank_base_idx];
        let mut operands = vec![SpecOperand {
            offset: 1 << 33,
            points: vec![(0, 0)],
            kind: AccessKind::Store,
        }];
        if operand_mix % 2 == 1 {
            operands.push(SpecOperand {
                offset: 1 << 30,
                points: vec![(0, 0), (1, 0), (0, -1)],
                kind: AccessKind::Load,
            });
        }
        if operand_mix >= 2 {
            operands.push(SpecOperand {
                offset: 1 << 34,
                points: vec![(0, 0)],
                kind: AccessKind::StoreNT,
            });
        }
        let spec = KernelSpec {
            rank_base,
            operands,
            row_stride: inner + stride_extra + 2,
            i0: 1,
            inner,
            k0: 1,
            rows,
        };
        let sim = NodeSim::new(SimConfig::new(machine, ranks));
        let plain = sim.run_spmd_memo(&spec, &SimMemo::without_differential());
        let memoized = sim.run_spmd_memo(&spec, &SimMemo::new());
        prop_assert_eq!(plain.total, memoized.total);
        prop_assert_eq!(plain.per_rank, memoized.per_rank);
        prop_assert_eq!(plain.cores_per_domain, memoized.cores_per_domain);
    }

    /// Sharing one memo across a whole rank-count curve (the cross-sweep
    /// case: later points are served from contexts simulated for earlier
    /// points, possibly as a different representative rank) changes no bit
    /// either.
    #[test]
    fn shared_memo_across_a_curve_matches_run_spmd(
        elements in 64u64..2048,
        kind_idx in 0usize..3,
    ) {
        let machine = icelake_sp_8360y();
        let spec = KernelSpec::contiguous(
            RankBase::Shifted { shift: 36, plus: 0 },
            0,
            elements,
            KINDS[kind_idx],
        );
        let memo = SimMemo::new();
        for ranks in [1usize, 18, 19, 20, 35, 36, 37, 54, 72] {
            let sim = NodeSim::new(SimConfig::new(machine.clone(), ranks));
            let plain = sim.run_spmd_memo(&spec, &SimMemo::without_differential());
            let memoized = sim.run_spmd_memo(&spec, &memo);
            prop_assert_eq!(plain.total, memoized.total, "ranks={}", ranks);
            prop_assert_eq!(plain.per_rank, memoized.per_rank, "ranks={}", ranks);
        }
        // The full-domain levels of 19..72 ranks overlap: the memo must
        // have avoided simulations.
        prop_assert!(memo.stats().hits > 0);
    }

    /// Whole runs stay bit-identical to element-by-element runs under
    /// every write policy, not just the paper's write-allocate default:
    /// mixed load/store/NT rows with halo misalignment across all three.
    #[test]
    fn batched_path_matches_scalar_under_every_policy(
        inner in 1u64..180,
        halo in 0u64..10,
        rows in 1u64..4,
        kind_idx in 0usize..3,
        ranks in prop::sample::select(vec![1usize, 18, 72]),
    ) {
        let machine = icelake_sp_8360y();
        let mut runs = Vec::new();
        for row in 0..rows {
            let off = row * (inner + halo) * 8;
            runs.push(AccessRun::load((1 << 33) + off, inner));
            runs.push(AccessRun {
                base: (1 << 30) + off,
                elements: inner,
                kind: KINDS[kind_idx],
            });
        }
        assert_equivalent_for_all_policies(&machine, ranks, &runs);
    }

    /// The memoized path under the default write-allocate selector is
    /// bit-identical to a fresh from-scratch memo *and* shares its memo
    /// entries with an explicitly-defaulted config: the policy space costs
    /// the paper configuration nothing.
    #[test]
    fn default_policy_dispatch_matches_the_closure_path_and_shares_the_memo(
        elements in 64u64..1024,
        kind_idx in 0usize..3,
        ranks in prop::sample::select(vec![1usize, 18, 37, 72]),
    ) {
        let machine = icelake_sp_8360y();
        let spec = KernelSpec::contiguous(
            RankBase::Shifted { shift: 36, plus: 0 },
            0,
            elements,
            KINDS[kind_idx],
        );
        let memo = SimMemo::new();
        let implicit = NodeSim::new(SimConfig::new(machine.clone(), ranks));
        let fresh = implicit.run_spmd_memo(&spec, &SimMemo::without_differential());
        let defaulted = implicit.run_spmd_memo(&spec, &memo);
        prop_assert_eq!(&fresh.total, &defaulted.total);
        prop_assert_eq!(&fresh.per_rank, &defaulted.per_rank);
        // An explicit write-allocate selection is the same SimKey: every
        // context is served from the memo, no new simulation runs.
        let explicit = NodeSim::new(
            SimConfig::new(machine, ranks).with_write_policy(WritePolicyKind::Allocate),
        );
        let before = memo.stats();
        let again = explicit.run_spmd_memo(&spec, &memo);
        prop_assert_eq!(&defaulted.total, &again.total);
        prop_assert_eq!(&defaulted.per_rank, &again.per_rank);
        let after = memo.stats();
        prop_assert_eq!(after.misses, before.misses, "explicit defaults must not re-simulate");
        prop_assert!(after.hits > before.hits);
    }

    /// Sharing one `SimMemo` across policy selections never changes a bit:
    /// the store-miss policy is part of the memo key, so a cross-policy
    /// lookup can never be served a stale entry.
    #[test]
    fn shared_memo_never_serves_a_cross_policy_hit(
        elements in 64u64..1024,
        kind_idx in 0usize..3,
        ranks in prop::sample::select(vec![1usize, 18, 72]),
    ) {
        let machine = icelake_sp_8360y();
        let spec = KernelSpec::contiguous(
            RankBase::Shifted { shift: 36, plus: 0 },
            0,
            elements,
            KINDS[kind_idx],
        );
        let shared = SimMemo::new();
        for write_policy in WritePolicyKind::all() {
            let cfg = SimConfig::new(machine.clone(), ranks).with_write_policy(write_policy);
            let sim = NodeSim::new(cfg);
            let with_shared = sim.run_spmd_memo(&spec, &shared);
            let with_fresh = sim.run_spmd_memo(&spec, &SimMemo::new());
            prop_assert_eq!(&with_shared.total, &with_fresh.total, "{:?}", write_policy);
            prop_assert_eq!(&with_shared.per_rank, &with_fresh.per_rank, "{:?}", write_policy);
        }
    }

    /// Differential re-simulation is exact over a randomly ordered walk of
    /// sweep neighbours: whatever order the (rank count, SpecI2M switch)
    /// points are visited in — so the trace leader is an arbitrary point —
    /// a differential memo and a from-scratch memo produce bit-identical
    /// node reports at every point, and the walk actually replays traces.
    #[test]
    fn differential_matches_from_scratch_over_shuffled_neighbours(
        elements in 64u64..2048,
        kind_idx in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let machine = icelake_sp_8360y();
        let spec = KernelSpec::contiguous(
            RankBase::Shifted { shift: 36, plus: 0 },
            0,
            elements,
            KINDS[kind_idx],
        );
        let mut points: Vec<(usize, bool)> = [1usize, 7, 18, 19, 36, 72]
            .into_iter()
            .flat_map(|ranks| [(ranks, true), (ranks, false)])
            .collect();
        // Fisher-Yates with a proptest-driven LCG: every visiting order.
        let mut state = seed;
        for i in (1..points.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            points.swap(i, (state >> 33) as usize % (i + 1));
        }
        let diff = SimMemo::new();
        let scratch = SimMemo::without_differential();
        for (ranks, speci2m) in points {
            let mk = || {
                let cfg = SimConfig::new(machine.clone(), ranks);
                if speci2m { cfg } else { cfg.without_speci2m() }
            };
            let sim = NodeSim::new(mk());
            let a = sim.run_spmd_memo(&spec, &diff);
            let b = sim.run_spmd_memo(&spec, &scratch);
            prop_assert_eq!(&a.total, &b.total, "ranks={} speci2m={}", ranks, speci2m);
            prop_assert_eq!(&a.per_rank, &b.per_rank, "ranks={} speci2m={}", ranks, speci2m);
        }
        // The SpecI2M on/off pairs alone guarantee shared dynamics keys.
        prop_assert!(diff.diff_stats().hits > 0, "{:?}", diff.diff_stats());
        prop_assert_eq!(scratch.diff_len(), 0);
    }

    /// Differential memo isolation across the policy space: one
    /// differential memo shared by all three write policies never serves a
    /// trace across policies — every result equals a fresh from-scratch run
    /// bit for bit.
    #[test]
    fn differential_memo_never_crosses_policies(
        elements in 64u64..1024,
        kind_idx in 0usize..3,
        ranks in prop::sample::select(vec![1usize, 18, 72]),
    ) {
        let machine = icelake_sp_8360y();
        let spec = KernelSpec::contiguous(
            RankBase::Shifted { shift: 36, plus: 0 },
            0,
            elements,
            KINDS[kind_idx],
        );
        let shared = SimMemo::new();
        for write_policy in WritePolicyKind::all() {
            let cfg = SimConfig::new(machine.clone(), ranks).with_write_policy(write_policy);
            let sim = NodeSim::new(cfg);
            let with_shared = sim.run_spmd_memo(&spec, &shared);
            let from_scratch = sim.run_spmd_memo(&spec, &SimMemo::without_differential());
            prop_assert_eq!(&with_shared.total, &from_scratch.total, "{:?}", write_policy);
            prop_assert_eq!(&with_shared.per_rank, &from_scratch.per_rank, "{:?}", write_policy);
        }
        // Every policy recorded its own trace identity.
        prop_assert!(shared.diff_len() >= 3, "diff_len={}", shared.diff_len());
    }

    /// The premise of the representative core: every rank of a kernel
    /// drives the same counters and cache statistics on a fresh core of
    /// its domain's occupancy — for shared bases and for rank windows
    /// shifted by at least `MIN_MEMO_SHIFT` — so one core per domain load
    /// times its rank count is the sum over every rank, and
    /// `run_spmd_memo`'s per-rank report is rank 0's.
    #[test]
    fn run_spmd_equals_exact_on_uniform_occupancy(
        operand_mix in 0usize..4,
        inner in 8u64..200,
        rows in 1u64..4,
        shift in prop::sample::select(vec![0u32, MIN_MEMO_SHIFT, MIN_MEMO_SHIFT + 3, 40]),
        plus in 0u64..3,
        ranks in prop::sample::select(vec![2usize, 19, 37]),
    ) {
        let machine = icelake_sp_8360y();
        let rank_base = if shift == 0 {
            RankBase::Shared
        } else {
            RankBase::Shifted { shift, plus }
        };
        let mut operands = vec![SpecOperand {
            offset: 1 << 28,
            points: vec![(0, 0)],
            kind: AccessKind::Store,
        }];
        if operand_mix % 2 == 1 {
            operands.push(SpecOperand {
                offset: 1 << 26,
                points: vec![(0, 0), (1, 0), (0, -1)],
                kind: AccessKind::Load,
            });
        }
        if operand_mix >= 2 {
            operands.push(SpecOperand {
                offset: 3 << 27,
                points: vec![(0, 0)],
                kind: AccessKind::StoreNT,
            });
        }
        let spec = KernelSpec {
            rank_base,
            operands,
            row_stride: inner + 2,
            i0: 1,
            inner,
            k0: 1,
            rows,
        };
        let occ = DomainOccupancy::compact(&machine, ranks);
        let mut rank = 0;
        let mut first = None;
        for &count in occ.cores_per_domain.iter().filter(|&&c| c > 0) {
            let ctx = OccupancyContext::domain_load(&machine, count, occ.active_domains);
            let options = CoreSimOptions {
                l3_sharers: DomainOccupancy::l3_sharers(&machine, count),
                ..Default::default()
            };
            let mut domain = None;
            for _ in 0..count {
                let mut core = CoreSim::new(&machine, ctx, options);
                spec.drive(rank, &mut core);
                let stats = core.cache_stats();
                let got = (core.flush(), stats);
                let at = format!("rank {rank} of {ranks}, {rank_base:?}");
                prop_assert_eq!(&got, domain.get_or_insert(got), "{}", at);
                rank += 1;
            }
            first.get_or_insert(domain.expect("a populated domain").0);
        }
        let report = NodeSim::new(SimConfig::new(machine, ranks))
            .run_spmd_memo(&spec, &SimMemo::without_differential());
        prop_assert_eq!(Some(report.per_rank), first);
    }

    /// A single-tenant co-run is the solo composition driven through the
    /// resumable cursor: for arbitrary kernels and *any* interleave
    /// granularity it must be bit-identical to `run_spmd_memo` on one rank,
    /// and, since that runs the same cursor, to the sweep fed element by
    /// element on a fresh core: same counters, same hits and misses at
    /// every level, for every turn budget and for a misaligned base (the
    /// cursor's element-by-element mode).
    #[test]
    fn single_tenant_corun_matches_run_spmd_for_any_interleave(
        operand_mix in 0usize..4,
        inner in 8u64..300,
        rows in 1u64..4,
        stride_extra in 0u64..6,
        interleave in prop::sample::select(vec![1u64, 2, 3, 7, 64, 1000, u64::MAX]),
        misaligned in prop::sample::select(vec![false, true]),
    ) {
        let machine = icelake_sp_8360y();
        let mut operands = vec![SpecOperand {
            offset: (1 << 33) + if misaligned { 4 } else { 0 },
            points: vec![(0, 0)],
            kind: AccessKind::Store,
        }];
        if operand_mix % 2 == 1 {
            operands.push(SpecOperand {
                offset: 1 << 30,
                points: vec![(0, 0), (1, 0), (0, -1)],
                kind: AccessKind::Load,
            });
        }
        if operand_mix >= 2 {
            operands.push(SpecOperand {
                offset: 1 << 34,
                points: vec![(0, 0)],
                kind: AccessKind::StoreNT,
            });
        }
        let spec = KernelSpec {
            rank_base: RankBase::Shifted { shift: 36, plus: 0 },
            operands,
            row_stride: inner + stride_extra + 2,
            i0: 1,
            inner,
            k0: 1,
            rows,
        };
        let sim = NodeSim::new(SimConfig::new(machine.clone(), 1));
        let solo = sim.run_spmd_memo(&spec, &SimMemo::without_differential());
        let corun = sim.run_corun(std::slice::from_ref(&spec), interleave, &SimMemo::new());
        let t = &corun.primary;
        prop_assert_eq!(&t.counters, &solo.per_rank, "interleave={}", interleave);
        prop_assert_eq!(&t.counters, &solo.total);

        let ctx = OccupancyContext::domain_load(&machine, 1, 1);
        let options = CoreSimOptions {
            l3_sharers: DomainOccupancy::l3_sharers(&machine, 1),
            ..Default::default()
        };
        let mut oracle: CoreSim = CoreSim::new(&machine, ctx, options);
        drive_scalar_sweep(&mut oracle, &spec.sweep(0));
        let stats_before_flush = oracle.cache_stats();
        prop_assert_eq!(&t.counters, &oracle.flush(), "interleave={}", interleave);
        prop_assert_eq!((t.llc_hits, t.llc_misses), oracle.cache_stats()[2]);
        // The report carries the shared level only; the private levels are
        // read off a cursor advanced in the same turns.
        let mut private = PrivateCore::new(&machine, ctx, options);
        let mut llc = SetAssocCache::new(
            (corun.llc_lines * 64) as usize,
            machine.caches.l3.associativity,
        );
        let mut cursor = SweepCursor::new(&spec.sweep(0));
        while !cursor.finished() {
            cursor.advance(&mut private, &mut llc, interleave);
        }
        let [l1, l2] = private.upper_cache_stats();
        prop_assert_eq!([l1, l2, (llc.hits(), llc.misses())], stats_before_flush);
    }

    /// The equalities the one-tenant `CoRunKey` relies on: a baseline —
    /// one tenant on a two-core tenancy — carries neither an interleave
    /// nor a rank, so whatever turn budget the first caller brings, and
    /// whether the kernel sorts first (rank 0) or second (rank 1, spelled
    /// `plus: 1` at rank 0) among the tenants it is the baseline of, the
    /// pass must yield one report, under every store-miss policy.
    #[test]
    fn a_baseline_is_the_same_at_any_interleave_and_either_rank(
        elements in 64u64..4096,
        rows in 1u64..4,
        reuse in prop::sample::select(vec![false, true]),
        kind_idx in 0usize..3,
        policy_idx in 0usize..3,
        interleave in prop::sample::select(vec![1u64, 3, 64, 1000]),
    ) {
        let kernel = |plus| KernelSpec {
            rank_base: RankBase::Shifted { shift: 40, plus },
            row_stride: if reuse { 0 } else { elements },
            rows,
            ..KernelSpec::contiguous(RankBase::Shared, 0, elements, KINDS[kind_idx])
        };
        let config = SimConfig::new(icelake_sp_8360y(), 2)
            .with_write_policy(WritePolicyKind::all()[policy_idx]);
        let sim = NodeSim::new(config);
        let alone = |plus, interleave| sim.run_corun(&[kernel(plus)], interleave, &SimMemo::new());
        let reference = alone(0, u64::MAX);
        prop_assert_eq!(&alone(0, interleave), &reference, "interleave={}", interleave);
        prop_assert_eq!(&alone(1, interleave), &reference, "as rank 1");
        // And through one memo every interleave is one entry.
        let memo = SimMemo::new();
        for interleave in [interleave, u64::MAX, 7] {
            prop_assert_eq!(&sim.run_corun(&[kernel(0)], interleave, &memo), &reference);
        }
        prop_assert_eq!(memo.corun_stats().misses, 1);
    }

    /// One `SimMemo` shared across solo runs and co-runs of the same
    /// kernels at several interleaves never crosses entries: solo and
    /// co-run results live in disjoint tables, distinct interleaves are
    /// distinct keys, and every shared-memo result equals a fresh-memo run
    /// bit for bit.
    #[test]
    fn shared_memo_never_crosses_solo_corun_or_interleave(
        elements in 64u64..1024,
        kind_idx in 0usize..3,
    ) {
        let machine = icelake_sp_8360y();
        let victim = KernelSpec::contiguous(
            RankBase::Shifted { shift: 36, plus: 0 },
            0,
            elements,
            KINDS[kind_idx],
        );
        let aggressor = KernelSpec::contiguous(
            RankBase::Shifted { shift: 36, plus: 0 },
            1 << 20,
            2 * elements,
            AccessKind::Load,
        );
        let shared = SimMemo::new();
        let tenants = [victim.clone(), aggressor];

        let solo_sim = NodeSim::new(SimConfig::new(machine.clone(), 1));
        let solo_shared = solo_sim.run_spmd_memo(&victim, &shared);
        let pair_sim = NodeSim::new(SimConfig::new(machine, 2));
        let mut corun_misses = 0;
        for interleave in [1u64, 8, 64] {
            let with_shared = pair_sim.run_corun(&tenants, interleave, &shared);
            corun_misses += 1;
            prop_assert_eq!(
                shared.corun_stats().misses, corun_misses,
                "each interleave must be its own co-run key"
            );
            let with_fresh = pair_sim.run_corun(&tenants, interleave, &SimMemo::new());
            prop_assert_eq!(&with_shared, &with_fresh, "interleave={}", interleave);
            // A repeat is a pure hit of the same entry.
            let again = pair_sim.run_corun(&tenants, interleave, &shared);
            prop_assert_eq!(shared.corun_stats().misses, corun_misses);
            prop_assert_eq!(&again, &with_shared);
        }
        // The co-runs touched neither the solo table's stats nor its
        // entries: a solo lookup afterwards is still served unchanged.
        let solo_again = solo_sim.run_spmd_memo(&victim, &shared);
        prop_assert_eq!(&solo_again.total, &solo_shared.total);
        prop_assert_eq!(&solo_again.per_rank, &solo_shared.per_rank);
        let fresh_solo = solo_sim.run_spmd_memo(&victim, &SimMemo::new());
        prop_assert_eq!(&solo_again.per_rank, &fresh_solo.per_rank);
    }
}

/// Every counter's bits, so that a one-ulp drift cannot hide.
fn counter_bits(c: &cloverleaf_wa::cachesim::MemCounters) -> [u64; 6] {
    [
        c.read_lines,
        c.write_lines,
        c.itom_lines,
        c.write_allocate_lines,
        c.prefetch_lines,
        c.speculative_read_lines,
    ]
    .map(f64::to_bits)
}

/// Every replayed point of the simulated store-ratio and copy-volume
/// figures, by counter bits: the figures print three decimals, and the
/// proptests above drive kernels too short for a store stream to saturate
/// (974 lines on the ICX), so neither would see a run added one ulp off.
#[test]
fn every_replayed_point_of_figs_5_6_9_and_10_is_the_from_scratch_counters() {
    use cloverleaf_wa::machine::{sapphire_rapids_8470, sapphire_rapids_8480};
    use cloverleaf_wa::ubench::{copy_kernel_spec, store_kernel_spec, StoreKind};
    let (diff, scratch) = (SimMemo::new(), SimMemo::without_differential());
    let check = |machine: &Machine, ranks: usize, kernel: &KernelSpec, point: &str| {
        let sim = NodeSim::new(SimConfig::new(machine.clone(), ranks));
        let (a, b) = (
            sim.run_spmd_memo(kernel, &diff),
            sim.run_spmd_memo(kernel, &scratch),
        );
        for (a, b) in [(&a.total, &b.total), (&a.per_rank, &b.per_rank)] {
            assert_eq!(counter_bits(a), counter_bits(b), "{} {point}", machine.id);
        }
    };
    // (figure's machines, core-count step): figs. 5, 9 and 10.
    let curves = [
        (vec![icelake_sp_8360y()], 3),
        (
            vec![sapphire_rapids_8470(true), sapphire_rapids_8470(false)],
            8,
        ),
        (vec![sapphire_rapids_8480()], 8),
    ];
    for (machines, step) in curves {
        for machine in &machines {
            for cores in (1..=machine.total_cores()).step_by(step) {
                for kind in [StoreKind::Normal, StoreKind::NonTemporal] {
                    for streams in 1..=3 {
                        let kernel = store_kernel_spec(streams, kind);
                        check(
                            machine,
                            cores,
                            &kernel,
                            &format!("{cores} {streams} {kind:?}"),
                        );
                    }
                }
            }
        }
    }
    // Fig. 6: `copy_volume_per_iteration`'s kernel at every thread count.
    let copy = copy_kernel_spec(1 << 30, 32 * 1024, 0, 1);
    for threads in 1..=36 {
        check(
            &icelake_sp_8360y(),
            threads,
            &copy,
            &format!("copy {threads}"),
        );
    }
    // One trace per class (figs. 5, 9, 10, 6), every other point replays.
    let replays = diff.diff_stats();
    assert_eq!((replays.hits, replays.misses), (443, 6 + 12 + 6 + 1));
}
