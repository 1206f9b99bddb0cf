//! World setup: spawn one thread per rank and wire up the communicators.

use std::sync::{Arc, Mutex};

use crossbeam::channel;

use crate::comm::{CollectiveState, Comm, Message};

/// Entry point of the substrate: spawns ranks and collects their results.
pub struct World;

impl World {
    /// Run `f` on `ranks` ranks concurrently (one OS thread each) and return
    /// the per-rank results ordered by rank.
    ///
    /// Panics in any rank propagate to the caller once all ranks have been
    /// joined (mirrors an MPI abort).
    pub fn run<T, F>(ranks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Send + Sync,
    {
        assert!(ranks > 0, "world must contain at least one rank");

        // Build the mailbox of every rank up front.
        let mut senders = Vec::with_capacity(ranks);
        let mut receivers = Vec::with_capacity(ranks);
        for _ in 0..ranks {
            let (tx, rx) = channel::unbounded::<Message>();
            senders.push(tx);
            receivers.push(rx);
        }
        let collective = Arc::new(CollectiveState {
            barrier: std::sync::Barrier::new(ranks),
            reduce_slots: Mutex::new(vec![None; ranks]),
        });

        let f = &f;
        let mut results: Vec<Option<T>> = (0..ranks).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(ranks);
            for (rank, receiver) in receivers.into_iter().enumerate() {
                let senders = senders.clone();
                let collective = Arc::clone(&collective);
                handles.push(scope.spawn(move || {
                    let comm = Comm::new(rank, ranks, senders, receiver, collective);
                    f(comm)
                }));
            }
            for (rank, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(v) => results[rank] = Some(v),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("rank result"))
            .collect()
    }

    /// Like [`World::run`] but additionally returns the communication time
    /// breakdown of every rank (the closure keeps ownership of the `Comm`
    /// until it finishes, so breakdowns are harvested through a side
    /// channel).
    pub fn run_with_timing<T, F>(ranks: usize, f: F) -> Vec<(T, crate::TimeBreakdown)>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Send + Sync,
    {
        Self::run(ranks, move |mut comm| {
            let value = f(&mut comm);
            let timing = comm.timers().clone();
            (value, timing)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_ordered_by_rank() {
        let results = World::run(8, |comm| comm.rank() * 10);
        assert_eq!(results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn run_with_timing_collects_breakdowns() {
        let results = World::run_with_timing(3, |comm| {
            comm.barrier();
            comm.allreduce_sum(1.0)
        });
        for (sum, timing) in results {
            assert_eq!(sum, 3.0);
            assert!(timing.total_comm().as_nanos() > 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        World::run(0, |_comm| ());
    }

    #[test]
    fn many_ranks_scale() {
        // 72 ranks as in the paper's full-node runs.
        let results = World::run(72, |mut comm| comm.allreduce_sum(1.0));
        assert!(results.iter().all(|&s| s == 72.0));
    }
}
