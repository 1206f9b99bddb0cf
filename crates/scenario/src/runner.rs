//! Parallel sweep runner.
//!
//! The runner fans work out across `jobs` `crossbeam` scoped worker threads
//! pulling indices from a shared atomic counter (work stealing without any
//! queue allocation).  Since PR 5 the work is not whole scenarios but the
//! flattened `(scenario, item)` pairs — for the default evaluator an item
//! is one rank point — so a single large curve no longer serialises on one
//! worker.  A worker claims a *run* of up to `CHUNK` (64) consecutive items
//! of one scenario at a time and publishes the run's results as one `Vec`
//! into its pre-allocated slot (no channel buffering the whole plan until
//! the scope ends); the assembly walks the slots in plan order, so the
//! output is byte-identical to the sequential path regardless of worker
//! interleaving — determinism is a tested property, not an accident.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use clover_golden::Artifact;
use parking_lot::Mutex;

use crate::plan::Scenario;

/// Consecutive items of one scenario a worker claims at a time.  An
/// analytic point is ≈ 0.5 µs of work: claimed one by one, the shared
/// counter and a slot lock per point made two workers slower than one.
const CHUNK: usize = 64;

/// Evaluate the flattened `(scenario, item)` pairs of `scenarios` with
/// `eval_item`, fanning out across `jobs` worker threads in plan order,
/// then assemble one artifact per scenario (in plan order) from its items
/// (in item order).
///
/// `item_count` declares how many independent items each scenario splits
/// into; `eval_item(scenario, i)` evaluates item `i` of a scenario;
/// `assemble(scenario, items)` builds the scenario's artifact from all its
/// item results.  The output is identical for any `jobs`.
///
/// # Panics
/// Panics if `jobs == 0` or a worker panics (the panic is propagated).
pub fn run_scenario_items_with<T, C, E, A>(
    scenarios: &[Scenario],
    jobs: usize,
    item_count: C,
    eval_item: E,
    assemble: A,
) -> Vec<Artifact>
where
    T: Send,
    C: Fn(&Scenario) -> usize,
    E: Fn(&Scenario, usize) -> T + Sync,
    A: Fn(&Scenario, Vec<T>) -> Artifact,
{
    assert!(jobs >= 1, "jobs must be >= 1");
    let counts: Vec<usize> = scenarios.iter().map(&item_count).collect();
    // Flattened work list, in plan order: (scenario index, run of items).
    let chunks: Vec<(usize, Range<usize>)> = counts
        .iter()
        .enumerate()
        .flat_map(|(si, &n)| {
            (0..n)
                .step_by(CHUNK)
                .map(move |start| (si, start..n.min(start + CHUNK)))
        })
        .collect();
    if jobs == 1 || chunks.len() <= 1 {
        return scenarios
            .iter()
            .zip(&counts)
            .map(|(s, &n)| assemble(s, (0..n).map(|i| eval_item(s, i)).collect()))
            .collect();
    }

    // Pre-allocated result slots, written directly by the workers: peak
    // extra memory is the in-flight runs of the `jobs` workers, not a
    // channel buffering the whole plan until the scope ends.
    let slots: Vec<Mutex<Option<Vec<T>>>> = chunks.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = jobs.min(chunks.len());
    let eval_item = &eval_item;
    let next = &next;
    let chunks = &chunks;
    let slots = &slots;
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(move |_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((si, items)) = chunks.get(i) else {
                    break;
                };
                let scenario = &scenarios[*si];
                let values = items.clone().map(|ii| eval_item(scenario, ii)).collect();
                *slots[i].lock() = Some(values);
            });
        }
    })
    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));

    let mut runs = slots.iter().map(|slot| {
        slot.lock()
            .take()
            .expect("every run evaluated exactly once")
    });
    scenarios
        .iter()
        .zip(&counts)
        .map(|(s, &n)| {
            let mut items = Vec::with_capacity(n);
            while items.len() < n {
                items.extend(runs.next().expect("a run for every item"));
            }
            assemble(s, items)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{RankRange, Stage, SweepPlan};
    use crate::run_plan;
    use clover_golden::Cell;
    use clover_machine::MachinePreset;

    fn small_plan() -> SweepPlan {
        SweepPlan::new()
            .machine(MachinePreset::IceLakeSp8360y)
            .machine(MachinePreset::SapphireRapids8480)
            .grid(1920)
            .grid(960)
            .ranks(RankRange::new(1, 12))
            .stage(Stage::Original)
            .stage(Stage::Optimized)
    }

    /// Render artifacts to the exact bytes the CLI would print.
    fn bytes(artifacts: &[Artifact]) -> String {
        artifacts.iter().map(crate::render_block).collect()
    }

    #[test]
    fn parallel_matches_sequential_byte_for_byte() {
        let plan = small_plan();
        let sequential = run_plan(&plan, 1);
        for jobs in [2, 4, 7] {
            let parallel = run_plan(&plan, jobs);
            assert_eq!(bytes(&sequential), bytes(&parallel), "jobs={jobs}");
            assert_eq!(sequential, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn nested_runner_matches_the_per_scenario_evaluator() {
        // The flattened (scenario, rank point) fan-out with the plan-wide
        // memo must reproduce the plain per-scenario evaluator exactly.
        let plan = small_plan();
        let reference: Vec<Artifact> = plan.expand().iter().map(crate::evaluate).collect();
        for jobs in [1, 3] {
            assert_eq!(reference, run_plan(&plan, jobs), "jobs={jobs}");
        }
    }

    #[test]
    fn results_come_back_in_plan_order() {
        let plan = small_plan();
        let scenarios = plan.expand();
        let artifacts = run_plan(&plan, 3);
        assert_eq!(artifacts.len(), scenarios.len());
        for (scenario, artifact) in scenarios.iter().zip(&artifacts) {
            assert_eq!(scenario.id(), artifact.id);
        }
    }

    #[test]
    fn more_jobs_than_scenarios_is_fine() {
        let plan = SweepPlan::new()
            .machine(MachinePreset::IceLakeSp8360y)
            .grid(1920)
            .ranks(RankRange::new(1, 4))
            .stage(Stage::Original);
        let artifacts = run_plan(&plan, 64);
        assert_eq!(artifacts.len(), 1);
        assert_eq!(artifacts[0].rows.len(), 4);
    }

    #[test]
    fn empty_plan_runs_to_empty_output() {
        let artifacts = run_plan(&SweepPlan::new(), 4);
        assert!(artifacts.is_empty());
    }

    #[test]
    #[should_panic(expected = "jobs must be >= 1")]
    fn zero_jobs_is_rejected() {
        run_plan(&small_plan(), 0);
    }

    #[test]
    fn worker_panic_propagates() {
        let scenarios = small_plan().expand();
        let result = std::panic::catch_unwind(|| {
            run_scenario_items_with(
                &scenarios,
                2,
                |_| 1,
                |_, _| -> Artifact { panic!("evaluator exploded") },
                |_, mut items| items.pop().expect("one item per scenario"),
            )
        });
        assert!(result.is_err());
    }

    #[test]
    fn item_runner_splits_and_reassembles_in_order() {
        let scenarios = small_plan().expand();
        for jobs in [1, 2, 5] {
            let artifacts = run_scenario_items_with(
                &scenarios,
                jobs,
                |s| s.ranks.len(),
                |s, i| format!("{}#{}", s.id(), i),
                |s, items| {
                    let mut a = Artifact::new(&s.id(), "item order").column("item", None);
                    for item in items {
                        a.push_row(vec![item.into()]);
                    }
                    a
                },
            );
            assert_eq!(artifacts.len(), scenarios.len());
            for (s, a) in scenarios.iter().zip(&artifacts) {
                assert_eq!(a.rows.len(), s.ranks.len());
                for (i, row) in a.rows.iter().enumerate() {
                    match &row[0] {
                        Cell::Text(text) => assert_eq!(*text, format!("{}#{}", s.id(), i)),
                        other => panic!("expected a text cell, got {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn scenarios_of_any_length_split_into_runs_and_reassemble_in_order() {
        // Item counts around the claim length: none, one, a run less one,
        // exactly a run, a run plus one, two runs and a tail.
        let scenarios = small_plan().expand();
        let count = |s: &Scenario| {
            let at = scenarios.iter().position(|other| other == s).unwrap();
            [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 2][at % 6]
        };
        for jobs in [1, 2, 5] {
            let artifacts = run_scenario_items_with(
                &scenarios,
                jobs,
                count,
                |s, i| format!("{}#{}", s.id(), i),
                |s, items| {
                    let mut a = Artifact::new(&s.id(), "item order").column("item", None);
                    for item in items {
                        a.push_row(vec![item.into()]);
                    }
                    a
                },
            );
            assert_eq!(artifacts.len(), scenarios.len());
            for (s, a) in scenarios.iter().zip(&artifacts) {
                let expected: Vec<Vec<Cell>> = (0..count(s))
                    .map(|i| vec![format!("{}#{}", s.id(), i).into()])
                    .collect();
                assert_eq!(a.rows, expected, "{} with jobs={jobs}", s.id());
            }
        }
    }
}
