//! Bounded-concurrency request plumbing for the serve daemon: a fixed
//! worker pool behind a bounded channel.
//!
//! The unix-socket front end must serve any client count with a fixed
//! thread budget: an acceptor thread sends accepted connections into the
//! channel [`WorkerPool::spawn`] returns, `--workers N` pool threads take
//! turns receiving from it and serve them, and cross-request coalescing
//! happens in the shared memo/response-cache state the job closure
//! captures.  The channel is a `std::sync::mpsc::sync_channel` of
//! `2 × workers` slots: a full channel blocks the sender (for the daemon,
//! the kernel's own listen backlog absorbs the burst), dropping every
//! sender closes it, and the workers drain what is queued before they end.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};

/// A fixed set of worker threads draining one bounded channel through a
/// shared job closure.  The pool's size never changes after spawn — the
/// bounded-concurrency guarantee of the serve daemon — and a job that
/// panics is logged and isolated (the worker keeps serving).
pub struct WorkerPool {
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads (clamped to ≥ 1) running `job` on every
    /// item sent into the returned channel, which holds at most
    /// `2 × workers` items not yet taken by a worker.  The workers end
    /// once every sender is dropped and the channel is drained.
    pub fn spawn<T, F>(workers: usize, job: F) -> (SyncSender<T>, Self)
    where
        T: Send + 'static,
        F: Fn(T) + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let (sender, receiver) = sync_channel(workers * 2);
        let receiver: Arc<Mutex<Receiver<T>>> = Arc::new(Mutex::new(receiver));
        let job = Arc::new(job);
        let handles = (0..workers)
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                let job = Arc::clone(&job);
                std::thread::spawn(move || loop {
                    // A statement of its own: the guard is dropped before
                    // the job runs, so one worker waits in `recv` and the
                    // others wait for the lock, never behind a job.
                    let next = receiver
                        .lock()
                        .expect("no job runs under the receiver lock, so it is never poisoned")
                        .recv();
                    let Ok(item) = next else {
                        break; // every sender is gone and the channel is dry
                    };
                    let result =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(item)));
                    if result.is_err() {
                        eprintln!("figures serve: worker job panicked; continuing");
                    }
                })
            })
            .collect();
        (sender, Self { handles })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Wait for every worker to finish (every sender must be dropped
    /// first, or this blocks forever).
    pub fn join(self) {
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// The daemon's default worker count: one per available hardware thread.
pub fn default_workers() -> usize {
    clover_scenario::runner::host_parallelism()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc::{channel, TrySendError};

    #[test]
    fn closed_queue_drains_then_signals_none() {
        // One worker held inside its first job while the channel fills.
        let (release, gate) = channel::<()>();
        let gate = Mutex::new(gate);
        let served = Arc::new(AtomicU64::new(0));
        let (queue, pool) = WorkerPool::spawn(1, {
            let served = Arc::clone(&served);
            move |item: u64| {
                gate.lock().unwrap().recv().unwrap();
                served.fetch_add(item, Ordering::Relaxed);
            }
        });
        for item in [1, 2, 4] {
            queue.send(item).unwrap();
        }
        // Closing with items still queued: the worker drains all of them,
        // then sees the closed channel and ends.
        drop(queue);
        for _ in 0..3 {
            release.send(()).unwrap();
        }
        pool.join();
        assert_eq!(served.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn bounded_push_blocks_until_a_consumer_frees_space() {
        let (release, gate) = channel::<()>();
        let gate = Mutex::new(gate);
        let (queue, pool) = WorkerPool::spawn(1, move |_: u32| {
            gate.lock().unwrap().recv().unwrap();
        });
        // Capacity 2 × 1 worker: the third send returns only once the
        // worker has taken the first item, and the worker then waits at
        // the gate — so the channel is exactly full, with no sleep.
        for item in 0..3 {
            queue.send(item).unwrap();
        }
        assert!(
            matches!(queue.try_send(3), Err(TrySendError::Full(3))),
            "a full channel must refuse the item"
        );
        let producer = {
            let queue = queue.clone();
            std::thread::spawn(move || queue.send(3))
        };
        // The producer is blocked on the full channel until a job ends
        // and the worker takes the next item.
        for _ in 0..4 {
            release.send(()).unwrap();
        }
        producer.join().unwrap().unwrap();
        drop(queue);
        pool.join();
    }

    #[test]
    fn worker_pool_processes_every_item_across_producers() {
        const PRODUCERS: u64 = 4;
        const ITEMS: u64 = 200;
        let sum = Arc::new(AtomicU64::new(0));
        let (queue, pool) = WorkerPool::spawn(3, {
            let sum = Arc::clone(&sum);
            move |item: u64| {
                sum.fetch_add(item, Ordering::Relaxed);
            }
        });
        assert_eq!(pool.workers(), 3);
        std::thread::scope(|scope| {
            for p in 0..PRODUCERS {
                let queue = queue.clone();
                scope.spawn(move || {
                    for i in 0..ITEMS {
                        queue.send(p * ITEMS + i).unwrap();
                    }
                });
            }
        });
        drop(queue);
        pool.join();
        let expect: u64 = (0..PRODUCERS * ITEMS).sum();
        assert_eq!(sum.load(Ordering::Relaxed), expect);
    }

    #[test]
    fn panicking_jobs_do_not_kill_the_pool() {
        let done = Arc::new(AtomicU64::new(0));
        let (queue, pool) = WorkerPool::spawn(1, {
            let done = Arc::clone(&done);
            move |item: u32| {
                if item == 13 {
                    panic!("unlucky");
                }
                done.fetch_add(1, Ordering::Relaxed);
            }
        });
        for i in [13u32, 1, 2, 3] {
            queue.send(i).unwrap();
        }
        drop(queue);
        pool.join();
        // The panicking item was isolated; the rest were still served.
        assert_eq!(done.load(Ordering::Relaxed), 3);
    }
}
