//! Allocation gate for serving.
//!
//! The workspace's counting global allocator tallies the heap allocations
//! each thread makes and the bytes they claim (a reallocation claims only
//! its growth), so the numbers below are exact and do not depend on what
//! other tests in this binary are doing. The gate serves one open-loop, 4,096-tenant run
//! twice on one thread. The first run fills the scheduler's per-thread
//! pools of working storage; the second must then allocate only what it
//! returns, plus a fixed slack that does not grow with the number of
//! arrivals.

use std::mem::size_of;

use dhl_sched::admission::{AdmissionSpec, OverloadPolicy, RetryBudgetSpec, TenantId};
use dhl_sched::placement::Placement;
use dhl_sched::scheduler::{
    FaultAwareness, Priority, RequestOutcome, ScheduleOutcome, Scheduler, TransferRequest,
};
use dhl_sim::{ArrivalGenerator, ArrivalSpec, SimConfig};
use dhl_storage::datasets::{Dataset, DatasetKind};
use dhl_units::{Bytes, Seconds};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

const TENANTS: u32 = 4_096;

/// Bytes a repeated run may allocate beyond what it returns, at any number
/// of arrivals: two tables sized by tenant id, each at most 2 × 4,096 slots
/// after doubling (a 64-byte tenant row and a 16-byte pending count), and
/// 32 KiB for the copies of the configuration and placement, the metrics
/// registry and the per-endpoint tables.
const SLACK_BYTES: u64 = 2 * TENANTS as u64 * (64 + 16) + 32 * 1024;

/// Allocations a repeated run may make, its output's included, at any
/// number of arrivals.
const SLACK_ALLOCATIONS: u64 = 160;

/// Eight datasets of one to three carts, and `arrivals` requests from
/// 4,096 tenants at twice the track's saturation rate, with deadlines.
fn workload(arrivals: usize) -> (Placement, Vec<TransferRequest>) {
    let cfg = SimConfig::paper_default();
    let mut placement = Placement::new(cfg.cart_capacity);
    let datasets: Vec<_> = (0..8u32)
        .map(|i| {
            placement.store(Dataset {
                name: format!("dataset-{i}").into(),
                size: Bytes::from_terabytes(cfg.cart_capacity.terabytes() * f64::from(1 + i % 3)),
                kind: DatasetKind::BigData,
            })
        })
        .collect();
    // One round trip to the 500 m rack is 17.2 s; datasets average 2 carts.
    let spec = ArrivalSpec::poisson(2.0 / (2.0 * 17.2), Seconds::new(1e15), 7)
        .with_tenants(TENANTS)
        .with_deadlines(Seconds::new(4_000.0), 0.5);
    let requests = ArrivalGenerator::new(&spec)
        .take(arrivals)
        .enumerate()
        .map(|(i, a)| {
            let priority = [Priority::Background, Priority::Normal, Priority::Urgent][i % 3];
            let request = TransferRequest::new(datasets[i * 5 % 8], 1, priority, a.at)
                .with_tenant(TenantId(a.tenant));
            match a.deadline {
                Some(deadline) => request.with_deadline(deadline),
                None => request,
            }
        })
        .collect();
    (placement, requests)
}

/// One open-loop serving run, from `Scheduler::new` to its outcome.
fn serve(placement: &Placement, requests: &[TransferRequest]) -> ScheduleOutcome {
    let mut sched = Scheduler::new(SimConfig::paper_default(), placement.clone())
        .expect("valid configuration")
        .with_admission(AdmissionSpec {
            max_pending_global: 128,
            max_pending_per_tenant: 8,
            policy: OverloadPolicy::ShedLowestPriority,
            deadline_aware: true,
            retry: RetryBudgetSpec {
                tokens_per_tenant: 4,
                max_attempts_per_request: 6,
                ..RetryBudgetSpec::default()
            },
            seed: 11,
            ..AdmissionSpec::default()
        })
        .with_faults(FaultAwareness {
            loss_probability: 0.1,
            max_attempts: 6,
            seed: 13,
            downtime: vec![(Seconds::new(100.0), Seconds::new(400.0))],
        });
    for &request in requests {
        sched.submit(request);
    }
    sched.try_run().expect("valid requests")
}

/// Heap bytes the outcome owns: every buffer's capacity.
fn returned_bytes(out: &ScheduleOutcome) -> u64 {
    fn heap<T>(v: &Vec<T>) -> usize {
        v.capacity() * size_of::<T>()
    }
    let admission = out.admission.as_ref().expect("open-loop report");
    let m = &out.metrics;
    let bytes = heap(&out.completed)
        + heap(&admission.rejected_ids)
        + heap(&admission.shed_ids)
        + heap(&admission.tenants)
        + heap(&m.counters)
        + m.counters.iter().map(|(n, _)| n.capacity()).sum::<usize>()
        + heap(&m.gauges)
        + m.gauges.iter().map(|(n, _)| n.capacity()).sum::<usize>()
        + heap(&m.histograms)
        + m.histograms
            .iter()
            .map(|h| h.name.capacity() + heap(&h.buckets))
            .sum::<usize>();
    bytes as u64
}

#[test]
fn a_repeated_serve_run_allocates_only_its_output() {
    for arrivals in [2_048, 8_192] {
        let (placement, requests) = workload(arrivals);
        let first = serve(&placement, &requests);
        let (second, allocs, bytes) = allocations(|| serve(&placement, &requests));
        assert_eq!(first, second, "{arrivals} arrivals");

        let a = second.admission.as_ref().expect("open-loop report");
        // Every open-loop path runs: rejects, sheds, retries and deadlines.
        let paths = [a.rejected(), a.shed, a.retries, a.deadline_misses];
        assert!(
            paths.iter().all(|&n| n > 0),
            "{arrivals} arrivals: {paths:?}"
        );
        assert!(a.tenants.len() > 1_000, "{} tenants", a.tenants.len());
        assert!(second.completed.capacity() * size_of::<RequestOutcome>() > 100_000);

        let returned = returned_bytes(&second);
        eprintln!(
            "{arrivals} arrivals: {allocs} allocations, {bytes} bytes, {returned} returned, \
             {} beyond",
            bytes.saturating_sub(returned)
        );
        assert!(
            bytes <= returned + SLACK_BYTES,
            "{arrivals} arrivals: the second run allocated {bytes} bytes, {} beyond the \
             {returned} it returned (slack {SLACK_BYTES})",
            bytes.saturating_sub(returned)
        );
        assert!(
            allocs <= SLACK_ALLOCATIONS,
            "{arrivals} arrivals: the second run made {allocs} allocations \
             (at most {SLACK_ALLOCATIONS})"
        );
    }
}
