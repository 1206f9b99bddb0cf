//! The counting global allocator of the allocation-gate tests
//! (`point_allocations`, `sim_work`): how many allocations, and how many
//! bytes, the calling thread requests while a closure runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `(allocations, bytes)` requested by this thread; per thread, so the
    /// tests of a binary may run in parallel.
    static REQUESTED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn count(bytes: usize) {
    // A thread being torn down has no counter left; it is not measuring.
    let _ = REQUESTED.try_with(|c| {
        let (allocations, requested) = c.get();
        c.set((allocations + 1, requested + bytes as u64));
    });
}

/// `f`'s value, and the `(allocations, bytes)` the calling thread requested
/// inside it.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    let before = REQUESTED.with(Cell::get);
    let value = f();
    let after = REQUESTED.with(Cell::get);
    (value, (after.0 - before.0, after.1 - before.1))
}
