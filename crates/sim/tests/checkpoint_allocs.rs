//! Allocation gate for checkpoint JSON and resume.
//!
//! A counting global allocator tallies the heap allocations each thread
//! makes, so the numbers below are exact and do not depend on what other
//! tests in this binary are doing. The gate encodes, decodes and resumes
//! one checkpoint of a 128-cart, 16-rack campus captured mid-mission and
//! bounds the allocations of each: the codec streams between the state and
//! the bytes, so the count must not grow with the number of carts, events
//! or keys in the document, and a resume builds the fleet, the backlog and
//! the metrics registry once each.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dhl_sim::{Checkpoint, DhlSystem, EndpointKind, EndpointSpec, SimConfig};
use dhl_units::{Bytes, Metres, Seconds};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialised thread-local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Encode allocations allowed per checkpoint.
const MAX_ENCODE_ALLOCATIONS: u64 = 8;
/// Decode allocations allowed per checkpoint.
const MAX_DECODE_ALLOCATIONS: u64 = 25;
/// Resume allocations allowed per checkpoint.
const MAX_RESUME_ALLOCATIONS: u64 = 72;

/// A library and 16 racks 300 m apart, 128 carts and 64 PB owed per rack.
fn campus() -> (SimConfig, Vec<(usize, Bytes)>) {
    let mut cfg = SimConfig::paper_default();
    cfg.num_carts = 128;
    cfg.endpoints = vec![EndpointSpec {
        position: Metres::ZERO,
        docks: 128,
        kind: EndpointKind::Library,
    }];
    for rack in 1..=16 {
        cfg.endpoints.push(EndpointSpec {
            position: Metres::new(300.0 * f64::from(rack)),
            docks: 4,
            kind: EndpointKind::Rack,
        });
    }
    let demands = (1..=16)
        .map(|rack| (rack, Bytes::from_petabytes(64.0)))
        .collect();
    (cfg, demands)
}

#[test]
fn checkpoint_json_allocations_stay_bounded() {
    let (cfg, demands) = campus();
    let mut sys = DhlSystem::new(cfg.clone()).expect("valid configuration");
    sys.begin_multi_rack(&demands).expect("begin");
    let drained = sys.run_until(Seconds::new(2_000.0)).expect("run");
    assert!(!drained, "the capture must be mid-mission");
    let cp = sys.checkpoint();

    let (text, encode) = allocations(|| cp.to_json());
    let (decoded, decode) = allocations(|| Checkpoint::from_json(&text));
    assert_eq!(decoded.expect("decode"), cp);
    assert!(
        text.len() > 8_000,
        "a {}-byte capture is too small to exercise the codec",
        text.len()
    );
    assert!(
        encode <= MAX_ENCODE_ALLOCATIONS && decode <= MAX_DECODE_ALLOCATIONS,
        "{}-byte checkpoint: {encode} allocations to encode (at most \
         {MAX_ENCODE_ALLOCATIONS}), {decode} to decode (at most {MAX_DECODE_ALLOCATIONS})",
        text.len()
    );
    let (resumed, resume) = allocations(|| DhlSystem::resume(cfg, &cp));
    assert_eq!(resumed.expect("resume").checkpoint(), cp);
    assert!(
        resume <= MAX_RESUME_ALLOCATIONS,
        "{resume} allocations to resume (at most {MAX_RESUME_ALLOCATIONS})"
    );
}
