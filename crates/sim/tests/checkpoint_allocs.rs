//! Allocation gate for checkpoint JSON and resume.
//!
//! The workspace's counting global allocator tallies the heap allocations
//! each thread makes, so the numbers below are exact and do not depend on
//! what other tests in this binary are doing. The gate encodes, decodes and resumes
//! one checkpoint of a 128-cart, 16-rack campus captured mid-mission and
//! bounds the allocations of each: the codec streams between the state and
//! the bytes, so the count must not grow with the number of carts, events
//! or keys in the document, and a resume builds the fleet, the backlog and
//! the metrics registry once each.

use dhl_sim::{Checkpoint, DhlSystem, EndpointKind, EndpointSpec, SimConfig};
use dhl_units::{Bytes, Metres, Seconds};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

/// Encode allocations allowed per checkpoint: the text, sized up front.
const MAX_ENCODE_ALLOCATIONS: u64 = 1;
/// Decode allocations allowed per checkpoint.
const MAX_DECODE_ALLOCATIONS: u64 = 21;
/// Resume allocations allowed per checkpoint. The metrics registry
/// reserves each kind's slots once, with no name index; the dock
/// occupancy, tracks and counters the checkpoint gives are kept rather
/// than built and replaced, and the event queue is sized once.
const MAX_RESUME_ALLOCATIONS: u64 = 47;

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

    let (text, encode, _) = allocations(|| cp.to_json());
    let (decoded, decode, _) = allocations(|| Checkpoint::from_json(&text));
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
    let (resumed, resume, _) = allocations(|| DhlSystem::resume(cfg, &cp));
    assert_eq!(resumed.expect("resume").checkpoint(), cp);
    assert!(
        resume <= MAX_RESUME_ALLOCATIONS,
        "{resume} allocations to resume (at most {MAX_RESUME_ALLOCATIONS})"
    );
}
