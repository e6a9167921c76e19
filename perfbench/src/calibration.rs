//! A fixed workload written in the benchmark itself, so that no change to
//! the program can change its cost: a hold model on a binary heap (the
//! shape of an event queue) beside churn on a B-tree map (the shape of the
//! scheduler's indices). It is timed once per round, beside the
//! operations, to measure how fast the host is running at the time.

use std::cmp::Reverse;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BinaryHeap};

use crate::inputs::Rng;

/// The calibration's host time, in milliseconds, as measured on the
/// machine the benchmark was tuned on (a 2-vCPU Intel Xeon VM). End-to-end
/// times are reported scaled to that speed.
pub const REFERENCE_MS: f64 = 1.9;

/// Runs the calibration workload; the result only defeats dead-code
/// elimination.
pub fn run() -> u64 {
    let mut rng = Rng::new(0x5EED);
    let mut heap = BinaryHeap::with_capacity(4_096);
    for _ in 0..4_096 {
        heap.push(Reverse(rng.below(1 << 20)));
    }
    let mut map = BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..10_000u64 {
        let Reverse(at) = heap.pop().expect("the hold model never drains");
        heap.push(Reverse(at + rng.below(4_096)));
        match map.entry(rng.below(16_384)) {
            Entry::Vacant(slot) => {
                slot.insert(i);
            }
            Entry::Occupied(slot) => acc ^= slot.remove(),
        }
    }
    std::hint::black_box(acc ^ heap.len() as u64 ^ map.len() as u64)
}
