//! Per-thread pools for the serve loop's working storage, so that a repeated
//! run does not free megabytes for glibc to trim and then fault them back in
//! (see EXPERIMENTS.md, "Serve without page faults"). Each pool keeps only
//! the largest buffer given back that fits in [`MAX_SPARE_BYTES`], or up to
//! [`WINDOWS`] window vectors that fit in that much together; a larger
//! buffer is freed as before. A thread thus keeps at most 32 MiB.

use std::cell::{Cell, RefCell};
use std::cmp::max_by_key;
use std::thread::LocalKey;

use crate::scheduler::{Queued, Served};
use crate::service_queue::Slot;

/// The largest buffer a pool keeps, in bytes: room for ~100,000 queued
/// requests. A run larger than that frees its storage, as it would without
/// the pools.
const MAX_SPARE_BYTES: usize = 8 << 20;

/// Transit-window vectors one thread keeps at most.
const WINDOWS: usize = 64;

thread_local! {
    pub(crate) static QUEUES: Cell<Vec<Queued>> = const { Cell::new(Vec::new()) };
    pub(crate) static ARENAS: Cell<Vec<Slot>> = const { Cell::new(Vec::new()) };
    pub(crate) static LOGS: Cell<Vec<Served>> = const { Cell::new(Vec::new()) };
    static TRANSIT: RefCell<Vec<Vec<(f64, f64)>>> = const { RefCell::new(Vec::new()) };
}

/// This thread's spare from `pool`, or an empty `Vec`.
pub(crate) fn take<T>(pool: &'static LocalKey<Cell<Vec<T>>>) -> Vec<T> {
    pool.try_with(Cell::take).unwrap_or_default()
}

/// Clears `spare` and keeps the larger of it and `pool`'s spare, unless it
/// exceeds [`MAX_SPARE_BYTES`] or the thread is being torn down.
pub(crate) fn give<T>(pool: &'static LocalKey<Cell<Vec<T>>>, mut spare: Vec<T>) {
    if spare.capacity() * size_of::<T>() > MAX_SPARE_BYTES {
        return;
    }
    spare.clear();
    let _ = pool.try_with(|held| held.set(max_by_key(held.take(), spare, Vec::capacity)));
}

/// An empty transit-window vector, recycled when this thread has one.
pub(crate) fn take_window() -> Vec<(f64, f64)> {
    let window = TRANSIT.try_with(|pool| pool.borrow_mut().pop());
    window.ok().flatten().unwrap_or_default()
}

/// Clears `window` and keeps it while the pool holds under [`WINDOWS`]
/// vectors and, with it, no more than [`MAX_SPARE_BYTES`].
pub(crate) fn give_window(mut window: Vec<(f64, f64)>) {
    window.clear();
    let _ = TRANSIT.try_with(|pool| {
        let mut pool = pool.borrow_mut();
        let held: usize = pool.iter().map(Vec::capacity).sum();
        let bytes = (held + window.capacity()) * size_of::<(f64, f64)>();
        if pool.len() < WINDOWS && bytes <= MAX_SPARE_BYTES {
            pool.push(window);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        static SPARE: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
    }

    #[test]
    fn pools_keep_the_largest_buffer_cleared() {
        give(&SPARE, Vec::with_capacity(8));
        give(&SPARE, vec![1; 32]);
        give(&SPARE, Vec::with_capacity(16));
        let spare = take(&SPARE);
        assert!(spare.is_empty() && spare.capacity() >= 32);
        assert_eq!(take(&SPARE).capacity(), 0, "a spare is handed out once");
    }

    #[test]
    fn pools_free_buffers_over_the_cap() {
        give(&SPARE, Vec::with_capacity(64));
        give(&SPARE, Vec::with_capacity(MAX_SPARE_BYTES + 1));
        assert_eq!(take(&SPARE).capacity(), 64, "the smaller spare stays");
        give(&SPARE, Vec::with_capacity(MAX_SPARE_BYTES));
        assert_eq!(take(&SPARE).capacity(), MAX_SPARE_BYTES);
    }

    #[test]
    fn window_pool_is_bounded() {
        let half = MAX_SPARE_BYTES / 2 / size_of::<(f64, f64)>();
        give_window(Vec::with_capacity(half));
        give_window(Vec::with_capacity(half + 1));
        assert_eq!(
            take_window().capacity(),
            half,
            "the pool stays within its bytes"
        );
        assert_eq!(take_window().capacity(), 0);
        for _ in 0..WINDOWS + 8 {
            give_window(vec![(0.0, 1.0)]);
        }
        let taken: Vec<_> = std::iter::from_fn(|| Some(take_window()))
            .take_while(|w| w.capacity() > 0)
            .collect();
        assert_eq!(taken.len(), WINDOWS);
        assert!(taken.iter().all(Vec::is_empty));
    }
}
