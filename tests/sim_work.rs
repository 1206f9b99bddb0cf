//! Deterministic gate on the simulator's work for the six simulated paper
//! figures — counts that repeat exactly, no timing: each figure's curve or
//! grid, walked through the memo `clover-bench` walks it through, runs one
//! from-scratch simulation per cache-dynamics class (machine × kernel ×
//! prefetcher setting; every other point replays a trace or hits the
//! memo), and the six walks together allocate less than 5e7 bytes once the
//! thread's pooled cores exist.  In the copy-halo figures every point is
//! its own class — the count below is the evidence — which is why
//! `clover-bench` records no traces for them and simulates their points in
//! parallel.  Beside them, the co-run: one shared-LLC lane requested per
//! pass, and no pass that is not a distinct one.

mod common;

use clover_bench::{copy_halo_points, run_interference_artifact, INTERFERENCE_EXPERIMENTS};
use cloverleaf_wa::cachesim::hierarchy::{
    CoreSimOptions, DomainOccupancy, OccupancyContext, StoreLines,
};
use cloverleaf_wa::cachesim::{with_pooled_core, NodeSim, SimConfig, SimMemo};
use cloverleaf_wa::cachesim::{AccessKind, KernelSpec, RankBase, SpecOperand};
use cloverleaf_wa::core::loop_kernel;
use cloverleaf_wa::machine::{
    cva6_like, icelake_sp_8360y, sapphire_rapids_8470, sapphire_rapids_8480, Machine, MachinePreset,
};
use cloverleaf_wa::scenario::interference::{aggressor_kernel, victim_contention, victim_kernel};
use cloverleaf_wa::scenario::{interference_factor, Aggressor, DEFAULT_INTERLEAVE};
use cloverleaf_wa::stencil::cloverleaf_loops;
use cloverleaf_wa::ubench::{
    copy_halo_kernel, copy_halo_ratio_memo, copy_kernel_spec, copy_volume_kernel,
    copy_volume_per_iteration_memo, store_kernel_spec, store_ratio_memo, StoreKind,
};
use common::allocations;

/// Figs. 5, 9, 10: one to three normal, then non-temporal, store streams
/// at every `step`-th core count.
fn store_curve(machine: &Machine, step: usize, memo: &SimMemo) {
    for kind in [StoreKind::Normal, StoreKind::NonTemporal] {
        store_curve_of(machine, step, kind, memo);
    }
}

/// The `kind` half of [`store_curve`].
fn store_curve_of(machine: &Machine, step: usize, kind: StoreKind, memo: &SimMemo) {
    for cores in (1..=machine.total_cores()).step_by(step) {
        for streams in 1..=3 {
            store_ratio_memo(machine, cores, streams, kind, memo);
        }
    }
}

/// Fig. 6: the copy-volume kernel at 1 to 36 threads of the ICX, as
/// `clover-bench` walks it.
fn copy_volume_curve(machine: &Machine, memo: &SimMemo) {
    for threads in 1..=36 {
        copy_volume_per_iteration_memo(machine, threads, memo);
    }
}

/// A walk of a figure's points on a machine, through a memo.
type MemoWalk = Box<dyn Fn(&Machine, &SimMemo)>;

/// The walks of figs. 5, 6, 9 and 10, each with its normal and its
/// non-temporal store lines apart: (figure, stores, machine, walk).
fn store_figure_walks() -> Vec<(&'static str, StoreKind, Machine, MemoWalk)> {
    let curve = |step| {
        move |kind| -> MemoWalk {
            Box::new(move |machine, memo| store_curve_of(machine, step, kind, memo))
        }
    };
    let mut walks = Vec::new();
    for kind in [StoreKind::Normal, StoreKind::NonTemporal] {
        walks.push(("fig5", kind, icelake_sp_8360y(), curve(3)(kind)));
        for pf in [true, false] {
            walks.push(("fig9", kind, sapphire_rapids_8470(pf), curve(8)(kind)));
        }
        walks.push(("fig10", kind, sapphire_rapids_8480(), curve(8)(kind)));
    }
    walks.push((
        "fig6",
        StoreKind::Normal,
        icelake_sp_8360y(),
        Box::new(copy_volume_curve),
    ));
    walks
}

/// Figs. 8, 11: the point list `clover-bench` simulates, on the full node.
fn halo_grid(machine: &Machine, with_pf_off: bool, memo: &SimMemo) {
    for (halo, inner, prefetchers) in copy_halo_points(with_pf_off) {
        copy_halo_ratio_memo(machine, inner, halo, prefetchers, memo);
    }
}

#[test]
fn each_figure_simulates_once_per_dynamics_class_and_allocates_little() {
    let icx = icelake_sp_8360y();
    let spr = sapphire_rapids_8480();
    type Walk<'a> = Box<dyn Fn(&SimMemo) + 'a>;
    // (figure, distinct machine × kernel × prefetcher classes, walk)
    let shared: [(&str, u64, Walk); 4] = [
        ("fig5", 6, Box::new(|memo| store_curve(&icx, 3, memo))),
        ("fig6", 1, Box::new(|memo| copy_volume_curve(&icx, memo))),
        (
            "fig9",
            12,
            Box::new(|memo| {
                store_curve(&sapphire_rapids_8470(true), 8, memo);
                store_curve(&sapphire_rapids_8470(false), 8, memo);
            }),
        ),
        ("fig10", 6, Box::new(|memo| store_curve(&spr, 8, memo))),
    ];
    // (figure, machine, prefetchers-off columns too, points)
    let halo = [("fig8", &icx, true, 108), ("fig11", &spr, false, 54)];
    // The pooled core of a machine, its arenas sized for the whole L3, is
    // allocated once per thread: not part of a figure's work.
    for machine in [
        &icx,
        &spr,
        &sapphire_rapids_8470(true),
        &sapphire_rapids_8470(false),
    ] {
        let ctx = OccupancyContext::serial(machine);
        with_pooled_core(machine, ctx, CoreSimOptions::default(), |_| ());
    }
    // The evidence that a halo figure has no trace to replay: through a
    // differential memo, as many trace classes as points.  If an
    // experiment change ever makes this fewer, `copy_halo_rows` must go
    // back to `SimMemo::new()` and a leader-first walk.
    for (figure, machine, with_pf_off, points) in halo {
        assert_eq!(copy_halo_points(with_pf_off).len() as u64, points);
        let memo = SimMemo::new();
        halo_grid(machine, with_pf_off, &memo);
        assert_eq!(
            memo.diff_stats().misses,
            points,
            "{figure}: a point shares its cache dynamics with another"
        );
    }
    // The six walks as `clover-bench` runs them.
    let ((), (_, bytes)) = allocations(|| {
        for (figure, classes, walk) in shared {
            let memo = SimMemo::new();
            walk(&memo);
            assert_eq!(
                memo.diff_stats().misses,
                classes,
                "{figure}: from-scratch simulations ({:?} lookups of {} points)",
                memo.diff_stats(),
                memo.len()
            );
        }
        for (figure, machine, with_pf_off, points) in halo {
            let memo = SimMemo::without_differential();
            halo_grid(machine, with_pf_off, &memo);
            assert_eq!(memo.stats().misses, points, "{figure}: simulations");
            assert_eq!(memo.diff_len(), 0, "{figure}: traces recorded");
        }
    });
    // 4.74e6 measured (3.12e7 while every halo simulation drained the
    // dirty lines of its L3 share into a list at the flush; 6.2e7 while
    // the halo figures recorded 162 traces).
    assert!(bytes < 50_000_000, "six figures allocated {bytes} bytes");
}

#[test]
fn a_cold_corun_allocates_one_llc_arena_and_a_repeat_none() {
    // The tenants of `--aggressor thrash` on the ICX share a 27 MiB LLC:
    // 3.5e6 bytes of tags.  Each pass — the co-run, and the victim alone
    // as its baseline — requests that arena once (2.27e7 bytes were
    // requested when a co-run built one per tenant baseline as well and
    // every slot had a second, metadata word).  Two arenas in sequence are
    // never two arenas alive: a pass owns its LLC and drops it before it
    // returns, and `victim_contention` runs its two passes one after the
    // other on the calling thread.
    let icx = icelake_sp_8360y();
    let memo = SimMemo::new();
    let victim = victim_kernel(&icx);
    let sim = NodeSim::new(SimConfig::new(icx.clone(), 2));
    let pair = [
        victim.clone(),
        aggressor_kernel(&icx, Aggressor::Thrash).expect("thrash has a kernel"),
    ];
    for tenants in [&pair[..], &pair[..1]] {
        let (_, (_, bytes)) = allocations(|| sim.run_corun(tenants, DEFAULT_INTERLEAVE, &memo));
        assert!(
            bytes < 4_500_000,
            "a cold pass of {} allocated {bytes} bytes",
            tenants.len()
        );
    }
    // A repeat is two memo hits: not one LLC-sized block.
    let contention =
        || victim_contention(&icx, &victim, Aggressor::Thrash, DEFAULT_INTERLEAVE, &memo);
    let (_, (_, warm_bytes)) = allocations(contention);
    assert_eq!(memo.corun_stats().misses, 2);
    assert!(
        warm_bytes < 1_000_000,
        "two memo hits allocated {warm_bytes} bytes"
    );
}

#[test]
fn distinct_passes_are_the_only_passes() {
    // By `corun_stats()`, through one fresh memo each: a factor is its
    // contended pass plus the victim's baseline, and the baseline is one
    // entry for every aggressor, every interleave and the `none` row.
    let icx = icelake_sp_8360y();
    let misses = |memo: &SimMemo| memo.corun_stats().misses;

    let memo = SimMemo::new();
    let cold = interference_factor(&icx, Aggressor::Thrash, 64, &memo);
    assert_eq!(misses(&memo), 2, "a cold factor: contended + baseline");
    let warm = interference_factor(&icx, Aggressor::Thrash, 64, &memo);
    assert_eq!(misses(&memo), 2, "a repeat simulates nothing");
    assert_eq!(cold.to_bits(), warm.to_bits());
    interference_factor(&icx, Aggressor::Thrash, 8, &memo);
    assert_eq!(misses(&memo), 3, "a second interleave: one contended pass");

    let memo = SimMemo::new();
    for aggressor in [Aggressor::Stream, Aggressor::StreamHeavy, Aggressor::Thrash] {
        interference_factor(&icx, aggressor, 64, &memo);
    }
    assert_eq!(misses(&memo), 4, "three contended passes, one baseline");
    let hits = memo.corun_stats().hits;
    let none = victim_contention(&icx, &victim_kernel(&icx), Aggressor::None, 64, &memo);
    assert_eq!(none.contended, none.solo);
    assert_eq!(
        (misses(&memo), memo.corun_stats().hits),
        (4, hits + 1),
        "the `none` row is one hit of the shared baseline"
    );
}

#[test]
fn figures_interfere_simulates_each_distinct_pass_once() {
    // `figures interfere` generates its three artifacts through one memo:
    // the timestep and occupancy views read the same four victim co-run
    // passes (three contended, one baseline), the evasion view its own
    // four, so eight passes, not twelve.
    let memo = SimMemo::new();
    for name in INTERFERENCE_EXPERIMENTS {
        run_interference_artifact(name, &memo).expect("known name");
    }
    assert_eq!(memo.corun_stats().misses, 8);
}

#[test]
fn the_product_co_runs_skip_the_private_levels_where_they_can_never_hit() {
    // A tenant that `KernelSpec::never_hits_private` proves is simulated
    // against the shared LLC alone, to the same bits; this pins which of
    // the `--aggressor` co-runs' tenants take that path, so that a change
    // cannot lose it while every byte stays the same.  The victim is
    // canonical tenant 0 of its passes, the aggressor tenant 1.
    let proved = |machine: &Machine, aggressor| {
        let kernel = aggressor_kernel(machine, aggressor).expect("an aggressor has a kernel");
        kernel.never_hits_private(machine, 1)
    };
    for machine in [
        icelake_sp_8360y(),
        sapphire_rapids_8470(true),
        sapphire_rapids_8470(false),
        sapphire_rapids_8480(),
    ] {
        let id = &machine.id;
        assert!(
            victim_kernel(&machine).never_hits_private(&machine, 0),
            "{id}: the victim"
        );
        assert!(proved(&machine, Aggressor::Stream), "{id}: stream");
        assert!(proved(&machine, Aggressor::Thrash), "{id}: thrash");
        // A load and an NT store in sub-windows far apart.
        assert!(
            proved(&machine, Aggressor::StreamHeavy),
            "{id}: stream-heavy"
        );
    }
    // The CVA6's victim, a quarter of its 2 MiB LLC, is 8 lines per set of
    // its L2 of 8 ways: its second and third passes hit there.
    let cva6 = cva6_like();
    assert!(!victim_kernel(&cva6).never_hits_private(&cva6, 0));
}

#[test]
fn the_paper_microbenchmarks_skip_the_private_levels_and_the_hotspot_loops_do_not() {
    // `SimMemo`'s simulation runs a kernel that
    // `KernelSpec::never_hits_private` proves against the L3 share alone,
    // to the same bits; this pins which solo kernels take that path, so
    // that a change cannot lose it while every byte stays the same.  The
    // representative core is rank 0.
    let operand = |offset, points: &[(i64, i64)], kind| SpecOperand {
        offset,
        points: points.to_vec(),
        kind,
    };
    // The drive probe's am04-shaped loop: a 5-point read stencil, a read
    // pair and a written array.
    let am04 = KernelSpec {
        rank_base: RankBase::Shared,
        operands: vec![
            operand(
                1 << 30,
                &[(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)],
                AccessKind::Load,
            ),
            operand(1 << 33, &[(0, 0), (1, 0)], AccessKind::Load),
            operand(1 << 34, &[(0, 0)], AccessKind::Store),
        ],
        row_stride: 1924,
        i0: 2,
        inner: 1920,
        k0: 2,
        rows: 64,
    };
    // Those of the paper's figures also count their L3 share
    // (`KernelSpec::counts_last_level`) at every sharer count, and
    // simulate no cache at all where the memo records no trace that every
    // share replays (always for figs. 8 and 11).
    for machine in MachinePreset::all().iter().map(MachinePreset::machine) {
        let id = &machine.id;
        let at_every_share = |kernel: &KernelSpec| {
            (1..=machine.caches.l3_sharers).all(|l3_sharers| {
                let options = CoreSimOptions {
                    l3_sharers,
                    ..Default::default()
                };
                kernel.counts_last_level(&machine, &options, 0)
            })
        };
        let counted = |kernel: &KernelSpec| {
            let proved = kernel.never_hits_private(&machine, 0);
            assert_eq!(at_every_share(kernel), proved, "{id}: {kernel:?}");
            proved
        };
        for (halo, inner, prefetchers) in copy_halo_points(true) {
            assert!(
                counted(&copy_halo_kernel(inner, halo)),
                "{id}: copy of {inner} elements, halo {halo}, prefetchers {prefetchers}"
            );
        }
        assert!(
            counted(&copy_volume_kernel()),
            "{id}: the copy-volume kernel"
        );
        for kind in [StoreKind::Normal, StoreKind::NonTemporal] {
            for streams in 1..=3 {
                let kernel = store_kernel_spec(streams, kind);
                assert!(counted(&kernel), "{id}: {streams} {kind:?} store streams");
            }
        }
        assert!(!counted(&am04), "{id}: the drive probe's stencil");
        for spec in cloverleaf_loops() {
            for (inner, rows) in [(2048, 10), (3840, 12), (1920, 48)] {
                let kernel = loop_kernel(&spec, inner, rows);
                assert!(!counted(&kernel), "{id}: {} at {inner} × {rows}", spec.name);
            }
        }
        // The `row_stride == 0` windows re-read their lines: proved never
        // to hit the private levels, they hit the last level, and are
        // simulated there.
        let thrash = aggressor_kernel(&machine, Aggressor::Thrash).expect("a kernel");
        for window in [thrash, victim_kernel(&machine)] {
            assert!(!at_every_share(&window), "{id}: {window:?}");
        }
    }
}

/// Lookups and fills of `machine`'s pooled L3 share so far.
fn l3_share_work(machine: &Machine) -> u64 {
    let ctx = OccupancyContext::serial(machine);
    with_pooled_core(machine, ctx, CoreSimOptions::default(), |core| {
        core.l3_share_work()
    })
}

#[test]
fn the_halo_figures_look_nothing_up_at_the_l3_share_and_co_runs_do() {
    // Figs. 8 and 11 are most of a `paper_all` pass.  Every one of their
    // simulations counts its L3 share: in a release build the pooled
    // core's share takes no lookup and no fill from them, which a change
    // that loses the path while every byte stays the same would break.  A
    // debug build runs the real share beside each counted core.  So do
    // the trace leaders of figs. 5, 6, 9 and 10, walked through a memo
    // that records traces: every one of them is a `NeverEvicts` class,
    // whose leader counts the lines it fills into each set of its share
    // instead of simulating it.
    let halo = [(icelake_sp_8360y(), true), (sapphire_rapids_8480(), false)];
    // (what, machine, whether the walk fills the share, walk)
    type Walk = Box<dyn Fn(&Machine)>;
    let mut walks: Vec<(String, Machine, bool, Walk)> = Vec::new();
    for (machine, with_pf_off) in halo {
        let walk = move |m: &Machine| halo_grid(m, with_pf_off, &SimMemo::without_differential());
        walks.push((machine.id.clone(), machine, true, Box::new(walk)));
    }
    for (figure, kind, machine, walk) in store_figure_walks() {
        let what = format!("{figure} {kind:?} on {}", machine.id);
        let fills = kind == StoreKind::Normal;
        walks.push((
            what,
            machine,
            fills,
            Box::new(move |m| walk(m, &SimMemo::new())),
        ));
    }
    for (what, machine, fills, walk) in walks {
        let before = l3_share_work(&machine);
        walk(&machine);
        let after = l3_share_work(&machine);
        if cfg!(debug_assertions) {
            // NT lines never reach the share, in a debug build either.
            assert_eq!(after > before, fills, "{what}: the debug shadow ran");
        } else {
            assert_eq!(after, before, "{what}: L3 share lookups and fills");
        }
    }
    // A co-run tenant shares its LLC, which it looks up, even where a core
    // of its own would count it: the single-pass `stream` aggressor.
    let icx = icelake_sp_8360y();
    let stream = aggressor_kernel(&icx, Aggressor::Stream).expect("a kernel");
    let options = CoreSimOptions::default();
    assert!(stream.counts_last_level(&icx, &options, 0));
    let sim = NodeSim::new(SimConfig::new(icx.clone(), 2));
    let report = sim.run_corun(&[stream, victim_kernel(&icx)], 64, &SimMemo::new());
    assert!(report.primary.llc_misses > 0, "{report:?}");
}

/// Store lines `machine`'s pooled core has finalized so far.
fn store_lines(machine: &Machine) -> StoreLines {
    let ctx = OccupancyContext::serial(machine);
    with_pooled_core(machine, ctx, CoreSimOptions::default(), |core| {
        core.store_lines()
    })
}

#[test]
fn the_halo_figures_step_under_a_tenth_of_their_store_lines_and_other_cores_all() {
    // A counted core steps one period of a row's steady state and repeats
    // it: in a release build the fig. 8 and 11 walks finalize at most
    // 7.5 % of the store lines they count one by one (7.1 % and 6.8 %,
    // where measuring a row again where its streaks saturate gains
    // little: their rows are shorter than the 1 001 and 693 lines a streak
    // takes to saturate, unless the halo keeps the streak going; 19 %
    // would mean that saturated streaks no longer repeat).  A debug build
    // steps every line a repeat accounts for, to check it.  The lines
    // counted are every line each store stream finalizes, however it is
    // reached.
    let halo = [
        (icelake_sp_8360y(), true, 1_157_736),
        (sapphire_rapids_8480(), false, 578_868),
    ];
    for (machine, with_pf_off, lines) in halo {
        let before = store_lines(&machine);
        halo_grid(&machine, with_pf_off, &SimMemo::without_differential());
        let after = store_lines(&machine);
        let stepped = after.stepped - before.stepped;
        let repeated = after.repeated - before.repeated;
        println!("{}: {stepped} stepped, {repeated} repeated", machine.id);
        assert_eq!(stepped + repeated, lines, "{}", machine.id);
        if cfg!(debug_assertions) {
            assert_eq!(repeated, 0, "{}: a debug build steps", machine.id);
        } else {
            assert!(
                40 * stepped <= 3 * lines,
                "{}: {stepped} of {lines} stepped",
                machine.id
            );
        }
    }
    // Through a memo that records traces, a counted core that records one
    // (a fig. 8 point, on the full node, and four rows of it on one core,
    // which never evict the share, so that every share replays the
    // trace) repeats periods as it does through a memo that records none.
    let icx = icelake_sp_8360y();
    let four_rows = copy_kernel_spec(1 << 32, 1920, 3, 4);
    for (what, ranks, kernel, evicts) in [
        (
            "a fig. 8 point",
            icx.total_cores(),
            &copy_halo_kernel(1920, 3),
            true,
        ),
        ("four rows of it on one core", 1, &four_rows, false),
    ] {
        let occupancy = DomainOccupancy::compact(&icx, ranks);
        let options = CoreSimOptions {
            l3_sharers: DomainOccupancy::l3_sharers(&icx, occupancy.cores_per_domain[0]),
            ..CoreSimOptions::default()
        };
        assert_eq!(!kernel.never_evicts_l3(&icx, &options), evicts, "{what}");
        let config = SimConfig::new(icx.clone(), ranks);
        for (memo, records) in [
            (SimMemo::new(), true),
            (SimMemo::without_differential(), false),
        ] {
            let before = store_lines(&icx);
            NodeSim::new(config.clone()).run_spmd_memo(kernel, &memo);
            let after = store_lines(&icx);
            let repeated = after.repeated - before.repeated;
            assert!(after.stepped > before.stepped, "{what}");
            if cfg!(debug_assertions) {
                assert_eq!(repeated, 0, "{what}, recording traces {records}");
            } else {
                assert!(repeated > 0, "{what}, recording traces {records}");
            }
        }
    }
}

#[test]
fn the_store_figures_leaders_step_a_fifth_of_their_normal_store_lines_and_no_nt_line() {
    // The trace leaders of figs. 5, 6, 9 and 10 record while they repeat
    // periods.  Each row is one stream of 4 096 lines whose streak grows
    // from the first line: the period measured after the head does not
    // repeat, and the row is measured again where every streak estimate
    // saturates (1 001 lines on the Ice Lake, 693 on the Sapphire Rapids),
    // so a normal store stream steps about a fifth of its lines and an NT
    // one, which no streak bounds, a few at each end.  A debug build
    // steps every line.
    for (figure, kind, machine, walk) in store_figure_walks() {
        let what = format!("{figure} {kind:?} on {}", machine.id);
        let before = store_lines(&machine);
        walk(&machine, &SimMemo::new());
        let after = store_lines(&machine);
        let stepped = after.stepped - before.stepped;
        let lines = stepped + after.repeated - before.repeated;
        println!("{what}: {stepped} of {lines} stepped");
        if cfg!(debug_assertions) {
            assert_eq!(stepped, lines, "{what}: a debug build steps");
        } else if kind == StoreKind::Normal {
            assert!(
                (16 * lines..=25 * lines).contains(&(100 * stepped)),
                "{what}: {stepped} of {lines} stepped"
            );
        } else {
            assert!(
                200 * stepped <= lines,
                "{what}: {stepped} of {lines} stepped"
            );
        }
    }
}
