//! A counting global allocator: allocation counts for the traced replay.
//!
//! Counting is per thread and off by default, so the untraced run pays one
//! thread-local load per allocation and nothing else. Only the replay
//! thread ever switches it on, around one layer call at a time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting calls on threads that asked.
pub struct CountingAllocator;

fn note_allocation() {
    // `try_with`: the allocator also runs while a thread's locals are being
    // torn down, when the keys are gone.
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised thread locals without destructors, which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with `layout`; all three are passed through as given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `work` with counting on for this thread; returns its result and the
/// number of allocator calls (alloc, alloc_zeroed, realloc) it made.
pub fn count_allocations<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|counting| counting.set(true));
    let result = work();
    COUNTING.with(|counting| counting.set(false));
    (result, ALLOCATIONS.with(Cell::get) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_inside_the_closure_and_only_this_thread() {
        let (_, none) = count_allocations(|| 1 + 1);
        assert_eq!(none, 0);
        let (boxes, three) = count_allocations(|| (Box::new(1u8), Box::new(2u8), Box::new(3u8)));
        assert_eq!(three, 3);
        drop(boxes);
        let (_, other_thread) = count_allocations(|| {
            std::thread::spawn(|| drop(vec![0u8; 64])).join().unwrap();
        });
        // Spawning allocates on this thread; the vector in the other thread
        // must not be attributed here, so a second identical spawn costs the
        // same.
        let (_, again) = count_allocations(|| {
            std::thread::spawn(|| drop(vec![vec![0u8; 64]; 8]))
                .join()
                .unwrap();
        });
        assert_eq!(other_thread, again);
    }
}
