//! The per-rank communicator.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crossbeam::channel::{Receiver, Sender};

use crate::timing::{MpiOp, TimeBreakdown};

/// A message in flight: payload of doubles plus routing metadata.
#[derive(Debug, Clone)]
pub(crate) struct Message {
    pub src: usize,
    pub tag: u32,
    pub data: Vec<f64>,
}

/// Handle for a non-blocking send; completed by [`Comm::waitall`].
///
/// Sends in this substrate complete eagerly (the channel is unbounded), so
/// the request only carries bookkeeping, but the API mirrors the structure
/// of the CloverLeaf communication code (`MPI_Isend` + `MPI_Waitall`).
#[derive(Debug)]
pub struct Request {
    pub(crate) completed: bool,
}

/// Shared state used for collectives.
pub(crate) struct CollectiveState {
    pub barrier: std::sync::Barrier,
    pub reduce_slots: Mutex<Vec<Option<f64>>>,
}

/// The communicator of one rank.
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Message>>,
    receiver: Receiver<Message>,
    /// Messages received but not yet matched by a `recv` call.
    unexpected: Vec<Message>,
    collective: Arc<CollectiveState>,
    timers: TimeBreakdown,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        senders: Vec<Sender<Message>>,
        receiver: Receiver<Message>,
        collective: Arc<CollectiveState>,
    ) -> Self {
        Self {
            rank,
            size,
            senders,
            receiver,
            unexpected: Vec::new(),
            collective,
            timers: TimeBreakdown::new(),
        }
    }

    /// This rank's id (0-based).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The communication time breakdown recorded so far.
    pub fn timers(&self) -> &TimeBreakdown {
        &self.timers
    }

    /// Blocking send of `data` to `dest` with `tag`.
    pub fn send(&mut self, dest: usize, tag: u32, data: &[f64]) {
        assert!(dest < self.size, "invalid destination rank {dest}");
        let t0 = Instant::now();
        self.senders[dest]
            .send(Message {
                src: self.rank,
                tag,
                data: data.to_vec(),
            })
            .expect("receiver alive");
        self.timers.add(MpiOp::Isend, t0.elapsed());
    }

    /// Non-blocking send; returns a request to pass to [`Comm::waitall`].
    pub fn isend(&mut self, dest: usize, tag: u32, data: &[f64]) -> Request {
        self.send(dest, tag, data);
        Request { completed: true }
    }

    /// Blocking receive of a message from `src` with `tag`.
    pub fn recv(&mut self, src: usize, tag: u32) -> Vec<f64> {
        assert!(src < self.size, "invalid source rank {src}");
        let t0 = Instant::now();
        // Check the unexpected-message queue first.
        if let Some(pos) = self
            .unexpected
            .iter()
            .position(|m| m.src == src && m.tag == tag)
        {
            let msg = self.unexpected.remove(pos);
            self.timers.add(MpiOp::Waitall, t0.elapsed());
            return msg.data;
        }
        loop {
            let msg = self.receiver.recv().expect("world alive");
            if msg.src == src && msg.tag == tag {
                self.timers.add(MpiOp::Waitall, t0.elapsed());
                return msg.data;
            }
            self.unexpected.push(msg);
        }
    }

    /// Wait for all outstanding requests (no-op completion, timed).
    pub fn waitall(&mut self, requests: &mut [Request]) {
        let t0 = Instant::now();
        for r in requests.iter_mut() {
            r.completed = true;
        }
        self.timers.add(MpiOp::Waitall, t0.elapsed());
    }

    /// Combined send-to / receive-from, the halo-exchange building block.
    pub fn sendrecv(
        &mut self,
        dest: usize,
        send_tag: u32,
        data: &[f64],
        src: usize,
        recv_tag: u32,
    ) -> Vec<f64> {
        self.send(dest, send_tag, data);
        self.recv(src, recv_tag)
    }

    /// Barrier across all ranks.
    pub fn barrier(&mut self) {
        let t0 = Instant::now();
        self.collective.barrier.wait();
        self.timers.add(MpiOp::Barrier, t0.elapsed());
    }

    /// The allreduce contributions.  Poisoned only when another rank
    /// panicked inside an allreduce, which aborts this one too (as an MPI
    /// abort would).
    fn reduce_slots(&self) -> MutexGuard<'_, Vec<Option<f64>>> {
        self.collective
            .reduce_slots
            .lock()
            .expect("a rank panicked inside an allreduce")
    }

    fn allreduce_with(&mut self, value: f64, op: MpiOp, combine: fn(f64, f64) -> f64) -> f64 {
        let t0 = Instant::now();
        {
            let mut slots = self.reduce_slots();
            slots[self.rank] = Some(value);
        }
        // Wait until every rank has deposited its contribution.
        self.collective.barrier.wait();
        let result = {
            let slots = self.reduce_slots();
            slots
                .iter()
                .map(|s| s.expect("every rank contributed"))
                .reduce(combine)
                .expect("non-empty world")
        };
        // Wait until every rank has read the result before clearing.
        self.collective.barrier.wait();
        {
            let mut slots = self.reduce_slots();
            slots[self.rank] = None;
        }
        self.collective.barrier.wait();
        self.timers.add(op, t0.elapsed());
        result
    }

    /// Global minimum (CloverLeaf's time-step control).
    pub fn allreduce_min(&mut self, value: f64) -> f64 {
        self.allreduce_with(value, MpiOp::Allreduce, f64::min)
    }

    /// Global maximum.
    pub fn allreduce_max(&mut self, value: f64) -> f64 {
        self.allreduce_with(value, MpiOp::Allreduce, f64::max)
    }

    /// Global sum.
    pub fn allreduce_sum(&mut self, value: f64) -> f64 {
        self.allreduce_with(value, MpiOp::Allreduce, |a, b| a + b)
    }

    /// Reduce-to-root (rank 0); every rank must call it, only rank 0 gets
    /// `Some(result)` (CloverLeaf's field summaries).
    pub fn reduce_sum_root(&mut self, value: f64) -> Option<f64> {
        let result = self.allreduce_with(value, MpiOp::Reduce, |a, b| a + b);
        if self.rank == 0 {
            Some(result)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::world::World;

    #[test]
    fn ring_send_recv() {
        let results = World::run(4, |mut comm| {
            let rank = comm.rank();
            let size = comm.size();
            let right = (rank + 1) % size;
            let left = (rank + size - 1) % size;
            comm.send(right, 7, &[rank as f64]);
            let data = comm.recv(left, 7);
            data[0]
        });
        assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn allreduce_min_max_sum() {
        let results = World::run(5, |mut comm| {
            let v = comm.rank() as f64 + 1.0;
            let mn = comm.allreduce_min(v);
            let mx = comm.allreduce_max(v);
            let sum = comm.allreduce_sum(v);
            (mn, mx, sum)
        });
        for (mn, mx, sum) in results {
            assert_eq!(mn, 1.0);
            assert_eq!(mx, 5.0);
            assert_eq!(sum, 15.0);
        }
    }

    #[test]
    fn consecutive_allreduces_do_not_interfere() {
        let results = World::run(3, |mut comm| {
            let a = comm.allreduce_sum(1.0);
            let b = comm.allreduce_sum(10.0);
            let c = comm.allreduce_min(comm.rank() as f64);
            (a, b, c)
        });
        for (a, b, c) in results {
            assert_eq!(a, 3.0);
            assert_eq!(b, 30.0);
            assert_eq!(c, 0.0);
        }
    }

    #[test]
    fn reduce_to_root_only_root_sees_result() {
        let results = World::run(4, |mut comm| comm.reduce_sum_root(2.0));
        assert_eq!(results[0], Some(8.0));
        assert!(results[1..].iter().all(|r| r.is_none()));
    }

    #[test]
    fn unexpected_messages_are_buffered() {
        let results = World::run(2, |mut comm| {
            if comm.rank() == 0 {
                // Send two messages with different tags; rank 1 receives them
                // in the opposite order.
                comm.send(1, 1, &[1.0]);
                comm.send(1, 2, &[2.0]);
                0.0
            } else {
                let second = comm.recv(0, 2);
                let first = comm.recv(0, 1);
                second[0] * 10.0 + first[0]
            }
        });
        assert_eq!(results[1], 21.0);
    }

    #[test]
    fn sendrecv_pairs() {
        let results = World::run(2, |mut comm| {
            let partner = 1 - comm.rank();
            let data = comm.sendrecv(partner, 0, &[comm.rank() as f64 * 5.0], partner, 0);
            data[0]
        });
        assert_eq!(results, vec![5.0, 0.0]);
    }

    #[test]
    fn isend_waitall_and_timers() {
        let results = World::run(2, |mut comm| {
            let partner = 1 - comm.rank();
            let mut reqs = vec![comm.isend(partner, 3, &[1.0, 2.0, 3.0])];
            let data = comm.recv(partner, 3);
            comm.waitall(&mut reqs);
            comm.barrier();
            (data.len(), comm.timers().total_comm().as_nanos() > 0)
        });
        for (len, timed) in results {
            assert_eq!(len, 3);
            assert!(timed);
        }
    }

    #[test]
    fn single_rank_world_works() {
        let results = World::run(1, |mut comm| {
            assert_eq!(comm.size(), 1);
            let s = comm.allreduce_sum(42.0);
            comm.barrier();
            s
        });
        assert_eq!(results, vec![42.0]);
    }

    #[test]
    #[should_panic(expected = "invalid destination rank")]
    fn sending_to_invalid_rank_panics() {
        World::run(1, |mut comm| {
            comm.send(5, 0, &[1.0]);
        });
    }
}
