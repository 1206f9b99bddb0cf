//! The reference kernel that tells how slow the host is around a pass.
//!
//! The hosts this benchmark runs on are shared, and what the co-tenants
//! take away is core and memory-system throughput: the same pass of any
//! workload takes up to twice as long for seconds or minutes at a time,
//! and its CPU time with it (the sandbox has no hardware counters to fall
//! back on).  Taking the best
//! passes of a run removes the short disturbances; a run that is slow
//! from end to end it cannot help.  So the harness runs a fixed
//! memory-bound kernel of its own — read-modify-writes scattered over
//! 16 MiB, four times the L2 — before and after every timed operation,
//! while the caches still hold what the operation left in them, and
//! divides the operation's times by how much slower than `NOMINAL_NS` the
//! faster of the two readings was.  On a quiet host the divisor is 1 and
//! the times are as measured.  The kernel shares no code with the
//! repository, so no change to the repository can move it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// What a reading takes on the builder's host when that host is quiet:
/// reported times read as time on such a host.
const NOMINAL_NS: f64 = 3_400_000.0;

const WORDS: usize = 2 << 20;
const STEPS: usize = 300_000;

pub struct Reference {
    buffer: Vec<u64>,
    /// The reading taken after the previous operation.
    before: f64,
}

impl Reference {
    pub fn start() -> Self {
        let mut reference = Self {
            buffer: (0..WORDS as u64).collect(),
            before: 0.0,
        };
        reference.before = reference.reading();
        reference
    }

    /// How slow the host is now: the kernel's time over its nominal time.
    fn reading(&mut self) -> f64 {
        // The operation may have ended in a wait for a child: spin the core
        // out of its idle state first, or the reading times the wake-up.
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_micros(500) {
            std::hint::spin_loop();
        }
        let start = Instant::now();
        let mut x: u64 = 88_172_645_463_325_252;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.buffer[x as usize % WORDS];
            *slot = slot.wrapping_add(x);
        }
        black_box(x);
        start.elapsed().as_nanos() as f64 / NOMINAL_NS
    }

    /// Run `operation` and return its result with the host's slowdown
    /// around it: the smaller of the readings before and after, so that an
    /// interruption of one reading does not make the operation look cheap.
    pub fn around<T>(&mut self, operation: impl FnOnce() -> T) -> (T, f64) {
        let value = operation();
        let after = self.reading();
        let slowdown = self.before.min(after);
        self.before = after;
        (value, slowdown)
    }
}
