//! `clover-scenario` — the scenario sweep engine.
//!
//! The paper evaluates one code on two machines at one grid size; this crate
//! turns that fixed setup into an axis-parameterised evaluation engine:
//!
//! * [`Scenario`] — one evaluation point: machine preset × grid size × rank
//!   range × code [`Stage`] (the `TrafficOptions` variant),
//! * [`SweepPlan`] — a cartesian grid of those axes that expands into a
//!   deterministic scenario list,
//! * [`runner`] — a parallel runner that fans scenarios out through one
//!   ordered [`runner::par_map`] and returns `clover_golden::Artifact`
//!   tables in deterministic (plan) order, byte-identical to the sequential
//!   path,
//! * [`evaluate`] — the default evaluator: the node-level scaling model of
//!   `clover-core` applied to the scenario's axes.
//!
//! The `figures sweep` subcommand and the `figures serve` daemon expose the
//! engine; [`cli`] is the command-line grammar both speak and [`render`]
//! the bytes both print.

pub mod cli;
pub mod interference;
pub mod plan;
pub mod runner;

pub use cli::SweepArgs;
pub use interference::interference_factor;
pub use plan::{
    Aggressor, LayerCondition, NamedAxis, RankRange, Scenario, Stage, SweepPlan, DEFAULT_INTERLEAVE,
};

use std::fmt::Write as _;
use std::ops::RangeInclusive;

use clover_cachesim::SimMemo;
use clover_core::{normalise_speedups, ScalingEngine, ScalingPoint, SweepMemo};
use clover_golden::Artifact;
use clover_machine::Machine;

/// Consecutive rank points of one scenario a worker claims at a time, and
/// the run [`ScalingEngine::run_memo`] looks its memo curve up for once.
/// An analytic point is ≈ 0.25 µs of model: claimed one by one, the
/// shared counter per point made two workers slower than one, and looked
/// up one by one, the memo's keyed hash and shard lock doubled a cold
/// point.
const CHUNK: usize = 64;

/// Render one artifact as the block the `figures` CLI prints (`==== id ====`
/// header + CSV).  The CLI and the byte-identity tests share this function,
/// so "byte-identical to the sequential path" is always asserted against
/// the actual output format.
pub fn render_block(artifact: &Artifact) -> String {
    // Header, CSV and trailing blank line in the one buffer `write_csv`
    // sizes; writing into a `String` cannot fail.
    let mut out = String::new();
    let _ = writeln!(out, "==== {} ====", artifact.id);
    artifact.write_csv(&mut out);
    out.push('\n');
    out
}

/// What every front end prints for `artifacts`: their [`render_block`]s one
/// after the other, or with `json` one line holding them as a JSON array.
pub fn render(artifacts: &[Artifact], json: bool) -> String {
    if json {
        let blocks: Vec<String> = artifacts.iter().map(Artifact::to_json).collect();
        format!("[{}]\n", blocks.join(","))
    } else {
        artifacts.iter().map(render_block).collect()
    }
}

/// Assemble the default scaling-sweep artifact of `scenario` from its
/// evaluated points on `machine` (the scenario's preset, as its engine
/// holds it).  [`evaluate`] and the nested-parallel [`run_plan`] both
/// render through this function, so the two paths cannot drift apart in
/// format.
pub fn sweep_artifact(scenario: &Scenario, machine: &Machine, points: &[ScalingPoint]) -> Artifact {
    let stage = scenario.stage;
    let mut a = Artifact::new(&scenario.id(), &scenario.title())
        .column("ranks", None)
        .column("prime", None)
        .column("local_inner", Some("cells"))
        .num_column("time_per_step", Some("ms"), 4)
        .num_column("speedup", None, 3)
        .num_column("bandwidth", Some("GB/s"), 1)
        .num_column("volume_per_step", Some("MB"), 1);
    for p in points {
        a.push_row(vec![
            p.ranks.into(),
            (p.prime as i64).into(),
            p.local_inner.into(),
            (p.time_per_step * 1e3).into(),
            p.speedup.into(),
            (p.memory_bandwidth / 1e9).into(),
            (p.volume_per_step / 1e6).into(),
        ]);
    }
    let mut note = format!(
        "machine: {}; grid {g}x{g}; stage: {}",
        machine.name,
        stage.name(),
        g = scenario.grid,
    );
    // Policy axes annotate the note only off the paper's defaults, keeping
    // every pre-existing artifact byte-identical.
    if scenario.replacement != Default::default() {
        note.push_str(&format!("; replacement: {}", scenario.replacement));
    }
    if scenario.write_policy != Default::default() {
        note.push_str(&format!("; write policy: {}", scenario.write_policy));
    }
    if scenario.layer_condition != Default::default() {
        note.push_str(&format!("; layer condition: {}", scenario.layer_condition));
    }
    if scenario.aggressor != Default::default() {
        note.push_str(&format!(
            "; aggressor: {} (victim traffic scaled by a shared-LLC co-run)",
            scenario.aggressor
        ));
    }
    if scenario.interleave != DEFAULT_INTERLEAVE {
        note.push_str(&format!("; interleave: {} lines", scenario.interleave));
    }
    a.push_note(note);
    a
}

/// Scale a contended scenario's points by its co-run interference factor:
/// the victim moves `factor`× the bytes in `factor`× the time (same
/// bandwidth, same speedup curve).  A no-aggressor scenario is untouched —
/// bit for bit, since its factor is exactly `1.0` and no scaling runs.
fn apply_interference(
    scenario: &Scenario,
    machine: &Machine,
    points: &mut [ScalingPoint],
    memo: &SimMemo,
) {
    if scenario.aggressor == Aggressor::None {
        return;
    }
    let factor = interference_factor(machine, scenario.aggressor, scenario.interleave, memo);
    if factor == 1.0 {
        return;
    }
    for p in points.iter_mut() {
        p.time_per_step *= factor;
        p.volume_per_step *= factor;
    }
}

/// Turn the evaluated (un-normalised) points of `scenario` into its
/// artifact: interference scaling, then speedup normalisation, then the
/// table.  The one assemble step of [`evaluate`] and [`run_plan_memos`], so
/// the two paths agree to the last bit of every cell.
fn assemble(
    scenario: &Scenario,
    machine: &Machine,
    mut points: Vec<ScalingPoint>,
    corun_memo: &SimMemo,
) -> Artifact {
    apply_interference(scenario, machine, &mut points, corun_memo);
    normalise_speedups(&mut points);
    sweep_artifact(scenario, machine, &points)
}

/// Default scenario evaluator: the node-level scaling model swept over the
/// scenario's rank range on its machine, grid and code stage — every point
/// evaluated from scratch, nothing memoized or shared.
pub fn evaluate(scenario: &Scenario) -> Artifact {
    let engine = ScalingEngine::new(scenario.machine.machine(), scenario.grid);
    let points = scenario
        .ranks
        .iter()
        .map(|r| engine.point(r, &scenario.options(r)))
        .collect();
    assemble(scenario, engine.machine(), points, &SimMemo::new())
}

/// Expand and run a whole plan with the default evaluator.
///
/// The plan is flattened into `(scenario, rank point)` work items fanned
/// out across `jobs` workers ([`runner::par_map`]), every point is
/// evaluated through one [`SweepMemo`] spanning the whole plan (scenarios
/// with overlapping rank ranges on the same machine, grid and stage share
/// their points instead of re-evaluating them), and each scenario's points
/// are assembled back in plan order — byte-identical to evaluating every
/// scenario sequentially with [`evaluate`], which the tier-1 suite asserts.
pub fn run_plan(plan: &SweepPlan, jobs: usize) -> Vec<Artifact> {
    run_plan_memo(plan, jobs, &SweepMemo::new())
}

/// [`run_plan`] through an external, caller-owned [`SweepMemo`]; the
/// co-run simulations behind contended scenarios share a [`SimMemo`] that
/// lives only as long as this plan (see [`run_plan_memos`]).
pub fn run_plan_memo(plan: &SweepPlan, jobs: usize, memo: &SweepMemo) -> Vec<Artifact> {
    run_plan_memos(plan, jobs, memo, &SimMemo::new())
}

/// [`run_plan`] through external, caller-owned memos.
///
/// Both memos may outlive the plan: a `figures serve` daemon passes one
/// pair to every plan it runs, so points evaluated by earlier plans are
/// served as hits, and plans sharing a `(machine, aggressor, interleave)`
/// co-run identity pay for one interference simulation between them — or
/// for none, when a persistent store (`clover-service`) warm-loaded it.
/// Points are memoized pre-normalisation, so sharing a memo across plans
/// cannot leak one range's speedup baseline into another; the output stays
/// byte-identical to a cold [`run_plan`].
pub fn run_plan_memos(
    plan: &SweepPlan,
    jobs: usize,
    memo: &SweepMemo,
    sims: &SimMemo,
) -> Vec<Artifact> {
    let scenarios = plan.expand();
    // One engine per (machine, grid) axis pair, shared by every worker; the
    // few-entry list makes the per-item lookup a short scan.
    let mut engines: Vec<((clover_machine::MachinePreset, usize), ScalingEngine)> = Vec::new();
    for s in &scenarios {
        if !engines
            .iter()
            .any(|((m, g), _)| *m == s.machine && *g == s.grid)
        {
            engines.push((
                (s.machine, s.grid),
                ScalingEngine::new(s.machine.machine(), s.grid),
            ));
        }
    }
    let engine_for = |s: &Scenario| -> &ScalingEngine {
        engines
            .iter()
            .find(|((m, g), _)| *m == s.machine && *g == s.grid)
            .map(|(_, e)| e)
            .expect("every scenario's engine was built above")
    };
    // The flattened work list, in plan order: runs of up to `CHUNK`
    // consecutive rank counts of one scenario, beside its engine.
    let chunks: Vec<(&Scenario, &ScalingEngine, RangeInclusive<usize>)> = scenarios
        .iter()
        .flat_map(|s| {
            let (engine, last) = (engine_for(s), s.ranks.end);
            let runs = s.ranks.iter().step_by(CHUNK);
            runs.map(move |first| (s, engine, first..=last.min(first + CHUNK - 1)))
        })
        .collect();
    let mut runs = runner::par_map(chunks.len(), jobs, |i| -> Vec<ScalingPoint> {
        let (s, engine, ranks) = &chunks[i];
        engine.run_memo(ranks.clone(), &s.options(*ranks.start()), memo)
    })
    .into_iter();
    scenarios
        .iter()
        .map(|s| {
            // A scenario's first run becomes its point list (most
            // scenarios are one run: nothing is copied), later ones join it.
            let mut points = Vec::new();
            while points.len() < s.ranks.len() {
                let run = runs.next().expect("a run for every point");
                if points.is_empty() {
                    points = run;
                } else {
                    points.extend(run);
                }
            }
            assemble(s, engine_for(s).machine(), points, sims)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clover_machine::MachinePreset;

    #[test]
    fn default_evaluator_produces_one_row_per_rank() {
        let scenario = Scenario {
            machine: MachinePreset::IceLakeSp8360y,
            grid: 1920,
            ranks: RankRange::new(1, 18),
            stage: Stage::Original,
            replacement: Default::default(),
            write_policy: Default::default(),
            layer_condition: Default::default(),
            aggressor: Default::default(),
            interleave: DEFAULT_INTERLEAVE,
        };
        let a = evaluate(&scenario);
        assert_eq!(a.rows.len(), 18);
        assert_eq!(a.id, "sweep-icx-8360y-g1920-r1..18-original");
        let speedup = a.column_index("speedup").unwrap();
        assert!((a.rows[0][speedup].as_f64().unwrap() - 1.0).abs() < 1e-12);
        assert!(a.rows[17][speedup].as_f64().unwrap() > 1.0);
    }

    #[test]
    fn stages_change_the_artifact() {
        let mk = |stage| Scenario {
            machine: MachinePreset::IceLakeSp8360y,
            grid: 1920,
            ranks: RankRange::new(18, 18),
            stage,
            replacement: Default::default(),
            write_policy: Default::default(),
            layer_condition: Default::default(),
            aggressor: Default::default(),
            interleave: DEFAULT_INTERLEAVE,
        };
        let original = evaluate(&mk(Stage::Original));
        let off = evaluate(&mk(Stage::SpecI2MOff));
        let volume = original.column_index("volume_per_step").unwrap();
        // Without write-allocate evasion the memory volume must be larger.
        assert!(off.rows[0][volume].as_f64().unwrap() > original.rows[0][volume].as_f64().unwrap());
    }

    #[test]
    fn contended_scenarios_cost_traffic_but_not_bandwidth() {
        let mk = |aggressor| Scenario {
            machine: MachinePreset::IceLakeSp8360y,
            grid: 1920,
            ranks: RankRange::new(1, 4),
            stage: Stage::Original,
            replacement: Default::default(),
            write_policy: Default::default(),
            layer_condition: Default::default(),
            aggressor,
            interleave: DEFAULT_INTERLEAVE,
        };
        let solo = evaluate(&mk(Aggressor::None));
        let contended = evaluate(&mk(Aggressor::Thrash));
        assert_eq!(
            contended.id,
            "sweep-icx-8360y-g1920-r1..4-original-vs-thrash"
        );
        assert!(contended.notes[0].contains("aggressor: thrash"));
        let volume = solo.column_index("volume_per_step").unwrap();
        let time = solo.column_index("time_per_step").unwrap();
        let bw = solo.column_index("bandwidth").unwrap();
        let speedup = solo.column_index("speedup").unwrap();
        for (s, c) in solo.rows.iter().zip(&contended.rows) {
            // Contention inflates volume and time by the same factor...
            assert!(c[volume].as_f64().unwrap() > s[volume].as_f64().unwrap());
            assert!(c[time].as_f64().unwrap() > s[time].as_f64().unwrap());
            // ...so bandwidth and the speedup curve are untouched (the
            // speedup up to the rounding of the scaled times).
            assert_eq!(c[bw], s[bw]);
            let (cs, ss) = (c[speedup].as_f64().unwrap(), s[speedup].as_f64().unwrap());
            assert!((cs - ss).abs() <= 1e-12 * ss, "{cs} vs {ss}");
        }
        // The parallel plan path applies the identical scaling.
        let plan = SweepPlan::new()
            .machine(MachinePreset::IceLakeSp8360y)
            .grid(1920)
            .ranks(RankRange::new(1, 4))
            .stage(Stage::Original)
            .aggressor(Aggressor::Thrash);
        let via_plan = run_plan(&plan, 2);
        assert_eq!(render_block(&via_plan[0]), render_block(&contended));
    }

    #[test]
    fn contended_evaluate_equals_run_plan_to_the_last_bit() {
        // `evaluate` is the un-memoized reference the served path is checked
        // against: under an aggressor both must scale, then normalise, in
        // the same order, or `speedup` differs in the last ulp and the
        // `--json` bytes with it.
        let plan = SweepPlan::new()
            .machine(MachinePreset::IceLakeSp8360y)
            .grid(1920)
            .ranks(RankRange::new(1, 12))
            .stage(Stage::Original)
            .aggressor(Aggressor::Stream);
        let reference: Vec<Artifact> = plan.expand().iter().map(evaluate).collect();
        let served = run_plan(&plan, 2);
        assert_eq!(reference, served);
        let json = |artifacts: &[Artifact]| -> Vec<String> {
            artifacts.iter().map(Artifact::to_json).collect()
        };
        assert_eq!(json(&reference), json(&served));
    }

    #[test]
    fn the_policy_axes_do_not_reach_the_co_run_factor() {
        use clover_machine::{ReplacementPolicyKind, WritePolicyKind};
        // `--replacement` and `--write-policy` steer the analytic model
        // only: a contended plan under other policies simulates no co-run
        // of its own and is scaled by the default policies' factor.
        let plan = || {
            SweepPlan::new()
                .machine(MachinePreset::IceLakeSp8360y)
                .grid(1920)
                .ranks(RankRange::new(1, 4))
                .stage(Stage::Original)
                .aggressor(Aggressor::Thrash)
        };
        let other = plan()
            .replacement(ReplacementPolicyKind::Plru)
            .write_policy(WritePolicyKind::NoAllocate);
        let (sweep, sims) = (SweepMemo::new(), SimMemo::new());
        let mut seen = Vec::new();
        for plan in [plan(), other] {
            let artifact = run_plan_memos(&plan, 1, &sweep, &sims).remove(0);
            let passes = sims.corun_stats().misses;
            let s = &plan.expand()[0];
            let machine = s.machine.machine();
            let factor = interference_factor(&machine, s.aggressor, s.interleave, &sims);
            assert_eq!(sims.corun_stats().misses, passes, "the plan's own passes");
            assert!(factor > 1.0);
            // What the plan scaled its analytic points by is that factor.
            let engine = ScalingEngine::new(machine, s.grid);
            let volume = artifact.column_index("volume_per_step").unwrap();
            for (row, ranks) in artifact.rows.iter().zip(s.ranks.iter()) {
                let solo = engine.point(ranks, &s.options(ranks)).volume_per_step;
                let cell = row[volume].as_f64().unwrap();
                assert_eq!(cell.to_bits(), (solo * factor / 1e6).to_bits(), "{ranks}");
            }
            seen.push((passes, factor.to_bits()));
        }
        assert_eq!(seen[0], seen[1], "no new co-run, the same factor");
    }
}
