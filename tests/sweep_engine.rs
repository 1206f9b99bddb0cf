//! Tier-1 suite of the scenario sweep engine.
//!
//! Two properties make the engine trustworthy:
//!
//! * the parallel runner is a pure speedup — its artifacts are
//!   byte-identical to the sequential path for any worker count,
//! * plan expansion is the exact cartesian product of the axes, in
//!   deterministic order.

use std::collections::HashSet;
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};

use cloverleaf_wa::core::decomp::is_prime;
use cloverleaf_wa::core::{
    normalise_speedups, Decomposition, ScalingEngine, ScalingModel, ScalingPoint, SweepMemo,
    TrafficModel, TrafficOptions, TINY_GRID,
};
use cloverleaf_wa::golden::Artifact;
use cloverleaf_wa::machine::{
    icelake_sp_8360y, MachinePreset, ReplacementPolicyKind, WritePolicyKind,
};
use cloverleaf_wa::scenario::runner::par_map;
use cloverleaf_wa::scenario::{
    evaluate, render_block, run_plan, LayerCondition, RankRange, Stage, SweepPlan,
};
use cloverleaf_wa::stencil::cloverleaf_loops;
use proptest::prelude::*;

fn small_plan() -> SweepPlan {
    SweepPlan::new()
        .machine(MachinePreset::IceLakeSp8360y)
        .machine(MachinePreset::SapphireRapids8470 { snc: true })
        .grid(1920)
        .grid(960)
        .ranks(RankRange::new(1, 16))
        .ranks(RankRange::new(31, 37))
        .stage(Stage::Original)
        .stage(Stage::SpecI2MOff)
        .stage(Stage::Optimized)
}

/// The exact bytes `figures sweep` prints for these artifacts (the CLI
/// itself renders through the same `render_block`).
fn rendered(artifacts: &[Artifact]) -> String {
    artifacts.iter().map(render_block).collect()
}

#[test]
fn expansion_is_the_cartesian_product_in_plan_order() {
    let plan = small_plan();
    assert_eq!(plan.len(), 2 * 2 * 2 * 3);
    let scenarios = plan.expand();
    assert_eq!(scenarios.len(), plan.len());
    assert!(plan.validate().is_ok());
    // Stages vary fastest, machines slowest.
    assert_eq!(scenarios[0].stage, Stage::Original);
    assert_eq!(scenarios[1].stage, Stage::SpecI2MOff);
    assert_eq!(scenarios[2].stage, Stage::Optimized);
    assert_eq!(scenarios[0].machine, scenarios[11].machine);
    assert_ne!(scenarios[11].machine, scenarios[12].machine);
}

#[test]
fn parallel_runner_is_byte_identical_to_sequential() {
    let plan = small_plan();
    let sequential = run_plan(&plan, 1);
    assert_eq!(sequential.len(), plan.len());
    for jobs in [2, 4] {
        let parallel = run_plan(&plan, jobs);
        assert_eq!(
            rendered(&sequential),
            rendered(&parallel),
            "jobs={jobs} must not change a single byte"
        );
        // Full-precision equality too, not just the rounded CSV rendering.
        assert_eq!(sequential, parallel, "jobs={jobs}");
    }
    // Output order is plan order regardless of worker interleaving.
    for (scenario, artifact) in plan.expand().iter().zip(&sequential) {
        assert_eq!(scenario.id(), artifact.id);
    }
}

/// Every option combination of the traffic model — stage × replacement ×
/// write policy × layer condition, in a fixed order — with `ranks` 0: each
/// lookup sets its own.
fn option_sets() -> Vec<TrafficOptions> {
    let mut sets = Vec::new();
    for stage in Stage::all() {
        for replacement in ReplacementPolicyKind::all() {
            for write_policy in WritePolicyKind::all() {
                for layer_condition in [true, false] {
                    sets.push(
                        stage
                            .options(0)
                            .with_replacement(replacement)
                            .with_write_policy(write_policy)
                            .with_layer_condition(layer_condition),
                    );
                }
            }
        }
    }
    sets
}

/// The bits of every field of a point: equal bits, bit-identical points.
fn point_bits(p: &ScalingPoint) -> Vec<u64> {
    let mut bits = vec![
        p.ranks as u64,
        u64::from(p.prime),
        p.local_inner as u64,
        p.time_per_step.to_bits(),
        p.speedup.to_bits(),
        p.memory_bandwidth.to_bits(),
        p.volume_per_step.to_bits(),
    ];
    bits.extend(p.loop_balances.iter().map(|b| b.to_bits()));
    bits
}

/// The message a panicking `f` unwound with.
fn panic_message<T>(f: impl FnOnce() -> T) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f))
        .err()
        .expect("the call must panic");
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload
            .downcast::<&str>()
            .map(|message| message.to_string())
            .unwrap_or_default(),
    }
}

proptest! {
    /// A `SweepMemo` holds rank curves: one keyed lookup per run of rank
    /// counts, one slot per point.  Random overlapping runs of random
    /// option sets, looked up concurrently through one memo as runs
    /// (`run_memo`) and point by point (`point_memo`), must each return
    /// what `ScalingEngine::point` returns, bit for bit, and the statistics
    /// must count points exactly: a miss per distinct point, a hit per
    /// other lookup, an entry per miss.
    #[test]
    fn curve_memo_matches_point_and_counts_every_lookup(
        preset in prop::sample::select(MachinePreset::all()),
        grid in prop::sample::select(vec![960usize, 1920]),
        jobs in prop::sample::select(vec![1usize, 2, 4]),
        starts in 0usize..1_000_000,
        lens in 0usize..1_000_000,
        set_a in 0usize..72,
        set_b in 0usize..72,
    ) {
        let machine = preset.machine();
        let cores = machine.total_cores();
        let engine = ScalingEngine::new(machine.clone(), grid);
        // Three rank runs from the seeds, clamped to the machine; they
        // overlap often, and a run may be a single point or the whole
        // machine.
        let runs: Vec<RangeInclusive<usize>> = (0..3)
            .map(|i| {
                let start = 1 + (starts >> (7 * i)) % cores;
                let len = (lens >> (7 * i)) % 80;
                start..=cores.min(start + len)
            })
            .collect();
        let sets = option_sets();
        prop_assert_eq!(sets.len(), 72);
        // Every run under both option sets, then the first run again point
        // by point: tasks `(run, set, by points)`.
        let mut tasks: Vec<(RangeInclusive<usize>, usize, bool)> = Vec::new();
        for run in &runs {
            for set in [set_a, set_b] {
                tasks.push((run.clone(), set, false));
            }
        }
        tasks.push((runs[0].clone(), set_b, true));

        let memo = SweepMemo::new();
        let results = par_map(tasks.len(), jobs, |i| {
            let (run, set, by_points) = &tasks[i];
            let opts = |r| TrafficOptions { ranks: r, ..sets[*set] };
            if *by_points {
                run.clone().map(|r| engine.point_memo(r, &opts(r), &memo)).collect()
            } else {
                engine.run_memo(run.clone(), &opts(*run.start()), &memo)
            }
        });

        let oracle = ScalingEngine::new(machine, grid);
        let mut distinct = HashSet::new();
        let mut lookups = 0;
        for ((run, set, _), points) in tasks.iter().zip(&results) {
            prop_assert_eq!(points.len(), run.clone().count());
            for (r, point) in run.clone().zip(points) {
                let opts = TrafficOptions { ranks: r, ..sets[*set] };
                prop_assert_eq!(point_bits(point), point_bits(&oracle.point(r, &opts)));
                distinct.insert((*set, r));
                lookups += 1;
            }
        }
        let misses = distinct.len() as u64;
        prop_assert_eq!(memo.stats(), (lookups - misses, misses));
        prop_assert_eq!(memo.len() as u64, misses);
    }

    /// The nested-parallel, plan-wide-memoized runner is byte-identical to
    /// mapping the sequential per-scenario evaluator over the expansion,
    /// for random plans (axes, overlapping rank ranges) and job counts.
    #[test]
    fn memoized_nested_run_plan_matches_sequential_evaluate(
        second_machine in prop::sample::select(vec![false, true]),
        grid in prop::sample::select(vec![960usize, 1920]),
        start_a in 1usize..4,
        len_a in 0usize..12,
        start_b in 1usize..20,
        len_b in 0usize..8,
        stage_mask in 1usize..8,
        jobs in 1usize..6,
    ) {
        let mut plan = SweepPlan::new()
            .machine(MachinePreset::IceLakeSp8360y)
            .grid(grid)
            // Two (often overlapping) rank ranges: the memoized engine must
            // not leak one range's speedup normalisation into the other.
            .ranks(RankRange::new(start_a, start_a + len_a))
            .ranks(RankRange::new(start_b, start_b + len_b));
        if second_machine {
            plan = plan.machine(MachinePreset::SapphireRapids8480);
        }
        for (i, stage) in Stage::all().into_iter().enumerate() {
            if stage_mask & (1 << i) != 0 {
                plan = plan.stage(stage);
            }
        }
        let reference: Vec<Artifact> = plan.expand().iter().map(evaluate).collect();
        let nested = run_plan(&plan, jobs);
        prop_assert_eq!(rendered(&reference), rendered(&nested));
        prop_assert_eq!(reference, nested);
    }

    /// The engine evaluates a point from tables derived once per process
    /// (per loop) and once per engine (per rank count); the oracle is
    /// `TrafficModel::predict_loop`, which derives every model input from
    /// the `LoopSpec` at call time.  Over every machine preset, rank count,
    /// stage and policy axis each balance must agree to the bit — as must
    /// the `ScalingModel` façade and the memo, cold and warm.
    #[test]
    fn scaling_engine_point_matches_model(
        preset in prop::sample::select(MachinePreset::all()),
        rank_seed in 0usize..10_000,
        stage_idx in 0usize..3,
        replacement in prop::sample::select(ReplacementPolicyKind::all()),
        write_policy in prop::sample::select(WritePolicyKind::all()),
        layer_condition in prop::sample::select(vec![false, true]),
        grid in prop::sample::select(vec![960usize, 1920]),
    ) {
        let machine = preset.machine();
        let ranks = 1 + rank_seed % machine.total_cores();
        let engine = ScalingEngine::new(machine.clone(), grid);
        let opts = Stage::all()[stage_idx]
            .options(ranks)
            .with_replacement(replacement)
            .with_write_policy(write_policy)
            .with_layer_condition(layer_condition);
        let point = engine.point(ranks, &opts);

        let oracle = TrafficModel::new(machine.clone());
        let decomp = Decomposition::new(ranks, grid, grid);
        let specs = cloverleaf_loops();
        prop_assert_eq!(point.loop_balances.len(), specs.len());
        for (spec, balance) in specs.iter().zip(point.loop_balances.iter()) {
            let expected = oracle.predict_loop(spec, &opts, &decomp).code_balance();
            prop_assert_eq!(balance.to_bits(), expected.to_bits(), "{}", &spec.name);
        }

        // The model is the engine on the Tiny grid.
        let tiny = ScalingEngine::new(machine.clone(), TINY_GRID);
        prop_assert_eq!(tiny.point(ranks, &opts), ScalingModel::new(machine).point(ranks, &opts));
        let memo = SweepMemo::new();
        prop_assert_eq!(&point, &engine.point_memo(ranks, &opts, &memo));
        // Second lookup is a hit and still identical.
        prop_assert_eq!(&point, &engine.point_memo(ranks, &opts, &memo));
        prop_assert_eq!(memo.stats(), (1, 1));
    }

    /// The engine takes a loop's time from the two distinct domain loads of
    /// compact pinning (`Topology::compact_loads`); the reference folds
    /// over every populated domain of `active_cores_per_domain`, one
    /// bandwidth evaluation each.  `f64::max` does not care how often or in
    /// which order it sees a value, so the times agree to the bit.
    #[test]
    fn point_time_matches_a_fold_over_every_domain(
        preset in prop::sample::select(MachinePreset::all()),
        rank_seed in 0usize..10_000,
        stage_idx in 0usize..3,
        grid in prop::sample::select(vec![960usize, 1920, 15360]),
    ) {
        let machine = preset.machine();
        let ranks = 1 + rank_seed % machine.total_cores();
        let opts = Stage::all()[stage_idx].options(ranks);
        let point = ScalingEngine::new(machine.clone(), grid).point(ranks, &opts);

        let per_rank_iterations = (grid as f64) * (grid as f64) / ranks as f64;
        let peak = machine.core_peak_flops();
        let per_rank_bws: Vec<f64> = machine
            .topology
            .active_cores_per_domain(ranks)
            .into_iter()
            .filter(|&c| c > 0)
            .map(|c| machine.bandwidth.domain_bandwidth(c) / c as f64)
            .collect();
        let decomp = Decomposition::new(ranks, grid, grid);
        let mut time = 0.0;
        for traffic in TrafficModel::new(machine).predict_all(&opts, &decomp) {
            time += per_rank_bws
                .iter()
                .map(|&bw| per_rank_iterations * traffic.time_per_iteration(bw, peak))
                .fold(0.0, f64::max);
        }
        // The hotspot loops are 69 % of a step.
        prop_assert_eq!(point.time_per_step.to_bits(), (time / (1.0 - 0.31)).to_bits());
    }
}

/// An engine derives what a rank count alone decides once and keeps it for
/// every option evaluated there; the oracle derives everything from scratch
/// per call.  Over every preset, every rank count and every option axis,
/// one engine per machine and grid must answer what `predict_all` on a
/// fresh decomposition answers, to the bit.
#[test]
fn tabled_rank_invariants_match_a_fresh_prediction() {
    for preset in MachinePreset::all() {
        let machine = preset.machine();
        let oracle = TrafficModel::new(machine.clone());
        for grid in [1920, TINY_GRID] {
            let engine = ScalingEngine::new(machine.clone(), grid);
            for ranks in 1..=machine.total_cores() {
                let decomp = Decomposition::new(ranks, grid, grid);
                for stage in Stage::all() {
                    for write_policy in WritePolicyKind::all() {
                        for layer_condition in [true, false] {
                            let opts = stage
                                .options(ranks)
                                .with_write_policy(write_policy)
                                .with_layer_condition(layer_condition);
                            let point = engine.point(ranks, &opts);
                            let at = format!("{} g{grid} r{ranks} {opts:?}", machine.id);
                            assert_eq!(point.prime, is_prime(ranks), "{at}");
                            assert_eq!(point.local_inner, decomp.typical_local_inner(), "{at}");
                            let expected: Vec<u64> = oracle
                                .predict_all(&opts, &decomp)
                                .iter()
                                .map(|t| (t.read_bytes_per_it + t.write_bytes_per_it).to_bits())
                                .collect();
                            let got: Vec<u64> =
                                point.loop_balances.iter().map(|b| b.to_bits()).collect();
                            assert_eq!(got, expected, "{at}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn every_policy_combination_is_selectable_end_to_end() {
    // The full policy grid — 4 replacement × 3 write policies — swept
    // through the same engine `figures sweep --replacement all
    // --write-policy all` drives.
    let mut plan = SweepPlan::new()
        .machine(MachinePreset::IceLakeSp8360y)
        .grid(1920)
        .ranks(RankRange::new(4, 8))
        .stage(Stage::Original);
    for r in ReplacementPolicyKind::all() {
        plan = plan.replacement(r);
    }
    for w in WritePolicyKind::all() {
        plan = plan.write_policy(w);
    }
    assert_eq!(plan.len(), 4 * 3);
    assert!(plan.validate().is_ok());
    let artifacts = run_plan(&plan, 3);
    assert_eq!(artifacts.len(), 12);
    // Parallel equals sequential on the policy grid too.
    assert_eq!(artifacts, run_plan(&plan, 1));
    // Every combination produced a distinct, fully-populated artifact…
    let mut ids: Vec<&str> = artifacts.iter().map(|a| a.id.as_str()).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), 12);
    for a in &artifacts {
        assert_eq!(a.rows.len(), 5, "{}", a.id);
    }
    // …and the policy axes actually steer the model: the default LRU +
    // write-allocate scenario moves the most memory per step, a broken
    // layer condition more than a fulfilled one.
    let volume_of = |a: &Artifact| {
        let col = a.column_index("volume_per_step").unwrap();
        a.rows[0][col].as_f64().unwrap()
    };
    let scenarios = plan.expand();
    let default_idx = scenarios
        .iter()
        .position(|s| {
            s.replacement == ReplacementPolicyKind::Lru
                && s.write_policy == WritePolicyKind::Allocate
        })
        .unwrap();
    assert_eq!(
        artifacts[default_idx].id,
        "sweep-icx-8360y-g1920-r4..8-original"
    );
    for (s, a) in scenarios.iter().zip(&artifacts) {
        assert_eq!(s.id(), a.id);
        if s.write_policy != WritePolicyKind::Allocate {
            assert!(
                volume_of(a) < volume_of(&artifacts[default_idx]),
                "{}: write-allocate evasion must shrink the volume",
                a.id
            );
        }
    }
    // The layer-condition axis is live as well.
    let broken = evaluate(&{
        let mut s = scenarios[default_idx].clone();
        s.layer_condition = LayerCondition::Broken;
        s
    });
    assert!(volume_of(&broken) > volume_of(&artifacts[default_idx]));
    assert!(broken.id.ends_with("-lc-broken"));
}

/// Through the memo a rank count outside the machine is refused as
/// `ScalingEngine::point` refuses it, not by indexing past a curve.
#[test]
fn the_memo_refuses_a_rank_count_as_point_does() {
    let engine = ScalingEngine::new(icelake_sp_8360y(), 1920);
    let cores = engine.machine().total_cores();
    let memo = SweepMemo::new();
    for ranks in [0, cores + 1] {
        let opts = TrafficOptions::original(ranks);
        let refused = panic_message(|| engine.point(ranks, &opts));
        assert!(refused.contains("ranks on a"), "{refused}");
        assert_eq!(
            panic_message(|| engine.point_memo(ranks, &opts, &memo)),
            refused
        );
        assert_eq!(
            panic_message(|| engine.run_memo(ranks..=ranks, &opts, &memo)),
            refused
        );
    }
    assert_eq!((memo.stats(), memo.len()), ((0, 0), 0));
    // A run that steps off the machine keeps, and counts, the points it
    // evaluated before it was refused.
    let opts = TrafficOptions::original(1);
    let refused = panic_message(|| engine.point(cores + 1, &TrafficOptions::original(cores + 1)));
    assert_eq!(
        panic_message(|| engine.run_memo(cores - 2..=cores + 1, &opts, &memo)),
        refused
    );
    assert_eq!((memo.stats(), memo.len()), ((0, 3), 3));
    let _ = engine.run_memo(cores - 3..=cores, &opts, &memo);
    assert_eq!((memo.stats(), memo.len()), ((3, 4), 4));
}

#[test]
fn memoized_sweep_range_matches_model_sweep_range() {
    let machine = icelake_sp_8360y();
    let model = ScalingModel::new(machine.clone());
    let engine = ScalingEngine::new(machine, TINY_GRID);
    let memo = SweepMemo::new();
    // Overlapping ranges exercise cold, mixed and fully-warm lookups.
    for range in [1..=72usize, 1..=36, 17..=54] {
        let mut reference: Vec<_> = range
            .clone()
            .map(|r| model.point(r, &TrafficOptions::original(r)))
            .collect();
        normalise_speedups(&mut reference);
        if *range.start() == 1 {
            assert_eq!(
                reference,
                model.sweep(*range.end(), TrafficOptions::original)
            );
        }
        let mut memoized: Vec<_> = range
            .clone()
            .map(|r| engine.point_memo(r, &TrafficOptions::original(r), &memo))
            .collect();
        normalise_speedups(&mut memoized);
        assert_eq!(reference, memoized, "range {range:?}");
    }
    let (hits, misses) = memo.stats();
    assert_eq!(misses, 72, "each distinct point evaluated exactly once");
    assert_eq!(hits, 36 + 38, "overlapping ranges served from the memo");
}
