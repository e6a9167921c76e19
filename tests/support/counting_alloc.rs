//! A counting global allocator for allocation gates.
//!
//! An integration test includes this file with
//! `#[path = "…/tests/support/counting_alloc.rs"] mod counting_alloc;`,
//! which installs the allocator for the whole test binary. It tallies the
//! heap allocations each thread makes and the bytes they claim, so the
//! counts are exact and do not depend on what other tests in the binary are
//! doing. A reallocation counts as one allocation that claims its growth.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, with the heap allocations (reallocations included) it
/// made on this thread and the bytes they claimed.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let after = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    (out, after.0 - before.0, after.1 - before.1)
}
