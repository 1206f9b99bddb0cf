//! Property tests of the simulator's memo and trace layers, which no
//! oracle of the hierarchy sees: a memo equals a fresh from-scratch memo on
//! any kernel and over any walk of sweep neighbours, a replayed trace
//! equals simulating (by counter bits on every replayed point of the
//! simulated figures), a trace class shares one simulation across sharer
//! counts exactly when the kernel counts its last level at each, the
//! representative core reports
//! what every rank of its domain drives, and a one-tenant co-run (a
//! baseline) is one pass at any interleave and either rank.
//! `reference_hierarchy.rs` holds the drivers themselves to a hierarchy
//! that shares none of their code.

use cloverleaf_wa::cachesim::hierarchy::{CoreSimOptions, OccupancyContext};
use cloverleaf_wa::cachesim::memo::MIN_MEMO_SHIFT;
use cloverleaf_wa::cachesim::{
    AccessKind, CoreSim, DomainOccupancy, KernelSpec, NodeSim, RankBase, SimConfig, SimMemo,
    SpecOperand,
};
use cloverleaf_wa::machine::{icelake_sp_8360y, Machine, MachinePreset, WritePolicyKind};
use proptest::prelude::*;

const KINDS: [AccessKind; 3] = [AccessKind::Load, AccessKind::Store, AccessKind::StoreNT];

/// Operand spacing of the trace-class tests: a multiple of every L3
/// share's set span (at most 2^16 sets of 64-byte lines), so equal lines
/// of different operands collide in one set under any sharer count.
const SET_SPAN_MULTIPLE: u64 = 1 << 26;

/// A random multi-operand stencil kernel: 1–4 operands `SET_SPAN_MULTIPLE`
/// apart plus a skew (a line or element offset, or a 4-byte misalignment
/// that forces the element-wise driver), each a load, store or NT store
/// of 1–3 stencil points.  A `shaped` kernel is drawn in the shape
/// `KernelSpec::counts_last_level` asks for: one point per operand, an
/// element-aligned skew and at most one load.
fn aliasing_kernel(seed: u64, inner: u64, halo: u64, rows: u64, shaped: bool) -> KernelSpec {
    let mut state = seed;
    let mut draw = |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    const SKEWS: [u64; 6] = [0, 8, 64, 72, 4096 + 24, 4];
    let (skews, most_points) = if shaped { (5, 1) } else { (6, 3) };
    let mut loads = 0;
    let operands = (0..1 + draw(4))
        .map(|j| {
            let offset = j * SET_SPAN_MULTIPLE + SKEWS[draw(skews) as usize];
            let points = (0..1 + draw(most_points))
                .map(|_| (draw(3) as i64 - 1, draw(3) as i64 - 1))
                .collect();
            let mut kind = KINDS[draw(3) as usize];
            if shaped && kind == AccessKind::Load && loads > 0 {
                kind = AccessKind::Store;
            }
            loads += usize::from(kind == AccessKind::Load);
            SpecOperand {
                offset,
                points,
                kind,
            }
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

/// The negative arm of the trace-class rule: a kernel that is not
/// counted keeps the sharer count in its trace identity, so two sharer
/// counts under one accounting are two simulations and no replay; a
/// counted one is one simulation, even where both shares evict.
#[test]
fn uncounted_kernels_keep_the_sharer_count_in_their_trace_identity() {
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
    // 3 MiB, which a core counts.  And a working set of a few KiB that
    // collides: one more aliasing stream than the share has ways, six of
    // them loads, which a core simulates.
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
    for (kernel, counted) in [(streaming(512 * 1024), true), (colliding, false)] {
        let (diff, scratch) = (SimMemo::new(), SimMemo::without_differential());
        for l3_sharers in [36, 18] {
            let options = CoreSimOptions {
                l3_sharers,
                ..Default::default()
            };
            assert_eq!(kernel.counts_last_level(&machine, &options, 0), counted);
            assert_differential_equals_scratch(&machine, &kernel, (l3_sharers, 1), &diff, &scratch);
        }
        let stats = diff.diff_stats();
        let expected = if counted { (1, 1) } else { (0, 2) };
        assert_eq!((stats.hits, stats.misses), expected, "{kernel:?}");
    }
}

/// The sharer counts of the trace-class proptest: pairs of indices into
/// `[1, 2, max(l3_sharers / 2, 3), l3_sharers]`.
const SHARER_PAIRS: [(usize, usize); 5] = [(0, 3), (3, 1), (1, 2), (2, 0), (3, 2)];

/// The two sharer counts `pair` picks on `machine`.
fn sharer_counts(machine: &Machine, pair: (usize, usize)) -> [usize; 2] {
    let max = machine.caches.l3_sharers;
    let counts = [1, 2, (max / 2).max(3), max];
    [counts[pair.0], counts[pair.1]]
}

/// Whether `kernel` counts its last level at both sharer counts.
fn counted_at(machine: &Machine, kernel: &KernelSpec, sharers: [usize; 2]) -> bool {
    sharers.into_iter().all(|l3_sharers| {
        let options = CoreSimOptions {
            l3_sharers,
            ..Default::default()
        };
        kernel.counts_last_level(machine, &options, 0)
    })
}

/// What share of the trace-class proptest's kernels are counted at both
/// of their sharer counts, over a deterministic draw of its inputs: both
/// arms of the rule must be well represented.
#[test]
fn the_trace_class_proptest_draws_counted_and_uncounted_kernels() {
    let presets = MachinePreset::all();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut draw = |n: u64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    let (kernels, mut counted) = (2_000, 0);
    for _ in 0..kernels {
        let machine = presets[draw(presets.len() as u64) as usize].machine();
        let sharers = sharer_counts(&machine, SHARER_PAIRS[draw(5) as usize]);
        let (seed, shaped) = (draw(u64::MAX), draw(2) == 1);
        let kernel = aliasing_kernel(seed, 8 + draw(2993), draw(20), 1 + draw(40), shaped);
        counted += u64::from(counted_at(&machine, &kernel, sharers));
    }
    let share = counted as f64 / kernels as f64;
    println!(
        "{counted} of {kernels} drawn kernels counted ({:.1} %)",
        100.0 * share
    );
    assert!((0.3..=0.7).contains(&share), "{share}");
}

proptest! {
    /// Soundness of the trace class: a random multi-operand kernel —
    /// aliasing operands, skewed and misaligned bases, stencil points,
    /// every access kind, or one in the shape a counted core asks for —
    /// walked over two sharer counts and two active-domain counts on any
    /// preset gives the counters of the from-scratch memo at every point,
    /// and the second sharer count replays the first one's trace exactly
    /// when the kernel counts its last level at both.
    #[test]
    fn one_simulation_serves_two_sharer_counts_iff_both_count_the_last_level(
        seed in 0u64..u64::MAX,
        inner in 8u64..=3000,
        halo in 0u64..20,
        rows in 1u64..=40,
        shaped in prop::sample::select(vec![false, true]),
        preset in prop::sample::select(MachinePreset::all()),
        sharers in prop::sample::select(SHARER_PAIRS.to_vec()),
    ) {
        let machine = preset.machine();
        let [first, second] = sharer_counts(&machine, sharers);
        let domains = [1, machine.topology.domains.len()];
        let kernel = aliasing_kernel(seed, inner, halo, rows, shaped);
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
        let counted = counted_at(&machine, &kernel, [first, second]);
        // Four lookups (two, where the node has one domain): every one but
        // the leader of a trace identity replays.
        let lookups = if domains[0] == domains[1] { 2 } else { 4 };
        let leaders = if counted { 1 } else { 2 };
        let stats = diff.diff_stats();
        prop_assert_eq!(
            (stats.hits, stats.misses), (lookups - leaders, leaders),
            "{} sharers {}/{} counted={} {:?}", machine.id, first, second, counted, kernel
        );
    }

    /// The cross-sweep memo is exact: for arbitrary kernel specs (operand
    /// mixes, stencil shapes, rank-base schemes) and any rank count,
    /// `run_spmd_memo` through a fresh memo reproduces a fresh from-scratch
    /// memo bit for bit.
    #[test]
    fn a_fresh_memo_reproduces_the_from_scratch_memo_on_any_kernel(
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

    /// The premise of the representative core: every rank of a kernel
    /// drives the same counters and cache statistics on a fresh core of
    /// its domain's occupancy — for shared bases and for rank windows
    /// shifted by at least `MIN_MEMO_SHIFT` — so one core per domain load
    /// times its rank count is the sum over every rank, and
    /// `run_spmd_memo`'s per-rank report is rank 0's.
    #[test]
    fn every_rank_of_a_domain_drives_what_its_representative_core_reports(
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
