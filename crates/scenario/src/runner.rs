//! Parallel sweep runner.
//!
//! One ordered parallel map, [`par_map`], is the only place the sweeps and
//! the figures spawn worker threads: the workers — `jobs − 1` scoped threads
//! and the caller — claim indices one at a time from a shared atomic
//! counter (work stealing without any queue allocation) and the results
//! come back in index order, so the output is byte-identical to the
//! sequential path regardless of worker interleaving — determinism is a
//! tested property, not an accident.  A sweep's work is not whole scenarios
//! but runs of up to 64 consecutive rank points of one scenario
//! ([`crate::run_plan_memos`] builds the list and walks the results in plan
//! order), so a single large curve does not serialise on one worker.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Hardware threads available to this process (1 when the host does not
/// say): the default width of every [`par_map`].
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// What a spawned worker sleeps before it claims its first index.  On the
/// 2-vCPU host of PR 21 a thread spawned beside a busy parent was, for an
/// hour at a time, left on the parent's CPU for ≈ 0.4 s — longer than a
/// figure takes — while the other CPU idled (`figures fig8`: 170 ms real,
/// 169 ms user, five of five); a thread that *wakes* was placed on the
/// idle CPU at once (77 ms real, 150 ms user, five of five).  When the host
/// places new threads well by itself the nap reads neither better nor
/// worse: the caller works through it, so it costs the worker's 50 µs.
const WORKER_START_NAP: Duration = Duration::from_micros(50);

/// `f(0), f(1), …, f(len − 1)`, in index order, evaluated by `jobs`
/// workers: `jobs − 1` scoped threads and the calling thread, each claiming
/// the next unclaimed index until none is left.  With `jobs == 1` or
/// `len <= 1` nothing is spawned and the calls run inline, in order.  The
/// result is the same `Vec` for any `jobs` whenever `f` is a function of
/// its index.
///
/// # Panics
/// Panics if `jobs == 0` or a call of `f` panics (the panic is propagated
/// once every worker has stopped).
pub fn par_map<T: Send>(len: usize, jobs: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    assert!(jobs >= 1, "jobs must be >= 1");
    if jobs == 1 || len <= 1 {
        return (0..len).map(f).collect();
    }
    // `Relaxed`: the counter hands out indices and publishes nothing; a
    // worker's results reach the caller through its join.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break done;
            }
            done.push((i, f(i)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..jobs.min(len))
            .map(|_| {
                scope.spawn(|| {
                    std::thread::sleep(WORKER_START_NAP);
                    work()
                })
            })
            .collect();
        let mut done = work();
        for handle in spawned {
            done.extend(
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        done
    });
    // Every index was claimed exactly once: sorted, the values are in order.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{RankRange, Stage, SweepPlan};
    use crate::run_plan;
    use clover_golden::{Artifact, Cell};
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
        // A plan nobody validated: the model refuses to pin 73 ranks to
        // the 72 cores of the Ice Lake node, in whichever worker claimed
        // that run, and the caller hears of it.
        let plan = SweepPlan::new()
            .machine(MachinePreset::IceLakeSp8360y)
            .grid(1920)
            .ranks(RankRange::new(1, 200))
            .stage(Stage::Original);
        for jobs in [1, 2] {
            let result = std::panic::catch_unwind(|| run_plan(&plan, jobs));
            assert!(result.is_err(), "jobs={jobs}");
        }
    }

    /// A plan whose rank ranges sit around the run length a worker claims:
    /// none, one, a run less one, exactly a run, a run plus one, a run and
    /// a tail (the 104 cores of the SPR 8470 hold no third run).
    fn run_crossing_plan() -> SweepPlan {
        let run = crate::CHUNK;
        [
            (5, 4),
            (7, 7),
            (1, run - 1),
            (1, run),
            (1, run + 1),
            (9, 104),
        ]
        .into_iter()
        .fold(
            SweepPlan::new()
                .machine(MachinePreset::SapphireRapids8470 { snc: true })
                .grid(1920)
                .stage(Stage::Original)
                .stage(Stage::Optimized),
            |plan, (start, end)| plan.ranks(RankRange::new(start, end)),
        )
    }

    #[test]
    fn item_runner_splits_and_reassembles_in_order() {
        let plan = run_crossing_plan();
        let scenarios = plan.expand();
        for jobs in [1, 2, 5] {
            let artifacts = run_plan(&plan, jobs);
            assert_eq!(artifacts.len(), scenarios.len());
            for (s, a) in scenarios.iter().zip(&artifacts) {
                assert_eq!(a.id, s.id());
                let ranks: Vec<Cell> = s.ranks.iter().map(Cell::from).collect();
                let rows: Vec<Cell> = a.rows.iter().map(|row| row[0].clone()).collect();
                assert_eq!(rows, ranks, "{} with jobs={jobs}", s.id());
            }
        }
    }

    #[test]
    fn scenarios_of_any_length_split_into_runs_and_reassemble_in_order() {
        let plan = run_crossing_plan();
        let reference: Vec<Artifact> = plan.expand().iter().map(crate::evaluate).collect();
        for jobs in [1, 2, 5] {
            assert_eq!(run_plan(&plan, jobs), reference, "jobs={jobs}");
        }
    }

    #[test]
    fn par_map_returns_results_in_index_order_at_any_width() {
        for len in [0, 1, 2, 7, 100] {
            let expected: Vec<usize> = (0..len).map(|i| i * i).collect();
            for jobs in [1, 2, 3, len + 5] {
                assert_eq!(par_map(len, jobs, |i| i * i), expected, "{len} / {jobs}");
            }
        }
    }

    #[test]
    fn one_job_runs_every_item_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = par_map(5, 1, |_| std::thread::current().id());
        assert_eq!(ran_on, [caller; 5]);
        // One item is not worth a thread either.
        assert_eq!(par_map(1, 8, |_| std::thread::current().id()), [caller]);
    }

    #[test]
    fn the_caller_is_one_of_the_workers() {
        // Items 0 and 1 can only pass the barrier together, so they run on
        // two threads; with `jobs == 2` one thread is spawned, so the other
        // party must be the caller.
        let caller = std::thread::current().id();
        let meet = std::sync::Barrier::new(2);
        let ran_on = par_map(2, 2, |_| {
            meet.wait();
            std::thread::current().id()
        });
        assert_ne!(ran_on[0], ran_on[1]);
        assert!(ran_on.contains(&caller), "the caller did not work");
    }

    #[test]
    fn a_panicking_item_propagates_and_does_not_hang() {
        for jobs in [1, 2, 4] {
            let result = std::panic::catch_unwind(|| {
                par_map(16, jobs, |i| {
                    assert_ne!(i, 5, "item five exploded");
                    i
                })
            });
            let payload = result.expect_err("the panic must reach the caller");
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(message.contains("item five exploded"), "{message}");
        }
    }

    #[test]
    #[should_panic(expected = "jobs must be >= 1")]
    fn par_map_rejects_zero_jobs() {
        par_map(3, 0, |i| i);
    }
}
