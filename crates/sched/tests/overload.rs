//! Property-based tests for overload-robust open-loop serving: goodput
//! behaviour past the saturation knee, retry-backoff determinism across
//! runs and checkpoint/resume, and bit-identity of the disabled path.

use dhl_rng::check::forall;
use dhl_sched::admission::{
    retry_backoff, AdmissionSpec, OverloadPolicy, RetryBudgetSpec, TenantId,
};
use dhl_sched::placement::Placement;
use dhl_sched::scheduler::{FaultAwareness, Priority, RequestId, Scheduler, TransferRequest};
use dhl_sim::{ArrivalGenerator, ArrivalSpec, SimConfig};
use dhl_storage::datasets::{Dataset, DatasetKind};
use dhl_units::{Bytes, Seconds};

fn dataset(tb: f64) -> Dataset {
    Dataset {
        name: "overload".into(),
        size: Bytes::from_terabytes(tb),
        kind: DatasetKind::BigData,
    }
}

/// Builds an open-loop workload of `n` single-cart requests arriving as a
/// deterministic Poisson process at `rate` req/s.
fn poisson_workload(
    placement: &mut Placement,
    n: usize,
    rate: f64,
    seed: u64,
) -> Vec<TransferRequest> {
    let spec = ArrivalSpec::poisson(rate, Seconds::new(1e12), seed).with_tenants(3);
    let arrivals = ArrivalGenerator::new(&spec);
    let ids: Vec<_> = (0..3).map(|_| placement.store(dataset(100.0))).collect();
    arrivals
        .take(n)
        .map(|a| {
            TransferRequest::new(
                ids[a.tenant as usize % ids.len()],
                1,
                Priority::Normal,
                Seconds::new(a.at.seconds()),
            )
            .with_tenant(TenantId(a.tenant))
        })
        .collect()
}

fn goodput_at(rate: f64, seed: u64, spec: &AdmissionSpec) -> f64 {
    let mut placement = Placement::new(Bytes::from_terabytes(256.0));
    let requests = poisson_workload(&mut placement, 40, rate, seed);
    let mut sched = Scheduler::new(SimConfig::paper_default(), placement)
        .unwrap()
        .with_admission(spec.clone());
    for r in requests {
        sched.submit(r);
    }
    let out = sched.try_run().expect("valid requests");
    out.admission.unwrap().goodput_bytes_per_s
}

/// (a) Under shedding, goodput past the saturation knee plateaus: it never
/// collapses towards zero and never climbs unboundedly as offered load
/// grows without bound.
#[test]
fn goodput_plateaus_past_the_knee_under_shedding() {
    forall("goodput_plateaus_past_the_knee_under_shedding", 12, |g| {
        let seed = g.u64_in(0, u64::MAX);
        let spec = AdmissionSpec {
            max_pending_global: g.usize_in(2, 8),
            max_pending_per_tenant: 8,
            policy: OverloadPolicy::ShedLowestPriority,
            ..AdmissionSpec::default()
        };
        // Service time per single-cart request is 17.2 s; sweep offered
        // load from well under to well past saturation (~0.058 req/s).
        let rates = [0.01, 0.03, 0.06, 0.12, 0.25, 0.5, 1.0];
        let goodputs: Vec<f64> = rates.iter().map(|&r| goodput_at(r, seed, &spec)).collect();
        let peak = goodputs.iter().cloned().fold(0.0, f64::max);
        assert!(peak > 0.0);
        let knee = goodputs.iter().position(|&gp| gp >= 0.95 * peak).unwrap();
        for w in goodputs[knee..].windows(2) {
            // Monotonically non-increasing past the knee, modulo a small
            // tolerance for queue-composition noise at these sample sizes.
            assert!(
                w[1] <= w[0] * 1.10 + 1e-9,
                "goodput climbed past the knee: {goodputs:?}"
            );
        }
        // Plateau, not collapse: the most-overloaded point still delivers.
        assert!(
            *goodputs.last().unwrap() >= 0.5 * peak,
            "goodput collapsed under overload: {goodputs:?}"
        );
    });
}

/// (b) Retry backoff is a pure function of (spec, seed, request, attempt),
/// and full open-loop schedules are bit-identical across runs.
#[test]
fn retry_backoff_is_deterministic_across_runs() {
    forall("retry_backoff_is_deterministic_across_runs", 16, |g| {
        let retry = RetryBudgetSpec {
            max_attempts_per_request: g.u32_in(1, 6),
            tokens_per_tenant: g.u32_in(0, 32),
            backoff_base: Seconds::new(g.f64_in(0.0, 30.0)),
            backoff_multiplier: g.f64_in(1.0, 4.0),
            backoff_cap: Seconds::new(g.f64_in(30.0, 300.0)),
            jitter_fraction: g.f64_in(0.0, 1.0),
        };
        let seed = g.u64_in(0, u64::MAX);
        let req = RequestId(g.u64_in(0, u64::MAX));
        for attempt in 0..8 {
            let a = retry_backoff(&retry, seed, req, attempt);
            let b = retry_backoff(&retry, seed, req, attempt);
            assert_eq!(a, b);
            assert!(a.seconds() >= 0.0);
            assert!(a.seconds() <= retry.backoff_cap.seconds() * (1.0 + retry.jitter_fraction));
        }

        // The same open-loop scheduler, built and run twice, produces
        // byte-identical outcomes (including admission reports).
        let mut placement = Placement::new(Bytes::from_terabytes(256.0));
        let requests = poisson_workload(&mut placement, 24, g.f64_in(0.02, 0.3), seed);
        let spec = AdmissionSpec {
            max_pending_global: 6,
            policy: OverloadPolicy::ShedLowestPriority,
            retry,
            ..AdmissionSpec::default()
        };
        let faults = FaultAwareness {
            loss_probability: 0.2,
            max_attempts: 3,
            seed: seed ^ 1,
            downtime: Vec::new(),
        };
        let run = || {
            let mut sched = Scheduler::new(SimConfig::paper_default(), placement.clone())
                .unwrap()
                .with_faults(faults.clone())
                .with_admission(spec.clone());
            for r in &requests {
                sched.submit(*r);
            }
            sched.try_run().expect("valid requests")
        };
        let (first, second) = (run(), run());
        assert_eq!(first, second);
    });
}

/// (b, continued) Arrival generators resumed from a checkpointed state
/// continue bit-identically with the original stream.
#[test]
fn arrival_streams_resume_bit_identically() {
    forall("arrival_streams_resume_bit_identically", 24, |g| {
        let rate = g.f64_in(0.001, 50.0);
        let spec = ArrivalSpec::poisson(
            rate,
            Seconds::new(g.f64_in(10.0, 1000.0)),
            g.u64_in(0, u64::MAX),
        )
        .with_tenants(g.u32_in(1, 8))
        .with_deadlines(Seconds::new(g.f64_in(0.0, 100.0)), g.f64_in(0.0, 1.0));
        let mut original = ArrivalGenerator::new(&spec);
        let mut reference = ArrivalGenerator::new(&spec);
        let skip = g.usize_in(0, 16);
        for _ in 0..skip {
            if original.next_arrival().is_none() {
                break;
            }
        }
        for _ in 0..skip {
            if reference.next_arrival().is_none() {
                break;
            }
        }
        let json = original.state().to_json();
        let restored_state = dhl_sim::ArrivalState::from_json(&json).unwrap();
        let resumed = ArrivalGenerator::restore(&spec, &restored_state);
        let a: Vec<_> = resumed.take(32).collect();
        let b: Vec<_> = reference.take(32).collect();
        assert_eq!(a, b);
    });
}

/// (c) With no admission spec installed, the serve loop refuses nothing:
/// the outcome carries no admission report, ignores the per-request
/// tenant/deadline fields, and is bit-identical run to run.
#[test]
fn disabled_admission_is_bit_identical_to_closed_loop() {
    forall(
        "disabled_admission_is_bit_identical_to_closed_loop",
        16,
        |g| {
            let seed = g.u64_in(0, u64::MAX);
            let n = g.usize_in(1, 10);
            let tb = g.f64_in(10.0, 2000.0);
            let build = |tag: bool| {
                let mut placement = Placement::new(Bytes::from_terabytes(256.0));
                let id = placement.store(dataset(tb));
                let mut sched = Scheduler::new(SimConfig::paper_default(), placement)
                    .unwrap()
                    .with_faults(FaultAwareness {
                        loss_probability: 0.1,
                        max_attempts: 3,
                        seed,
                        downtime: Vec::new(),
                    });
                for i in 0..n {
                    let mut req =
                        TransferRequest::new(id, 1, Priority::Normal, Seconds::new(i as f64));
                    if tag {
                        // Tenant and deadline annotations must be inert when no
                        // admission spec is installed.
                        req = req
                            .with_tenant(TenantId(7))
                            .with_deadline(Seconds::new(1.0));
                    }
                    sched.submit(req);
                }
                sched.try_run().expect("valid requests")
            };
            let plain = build(false);
            let tagged = build(true);
            assert!(plain.admission.is_none());
            assert!(tagged.admission.is_none());
            assert_eq!(plain.completed, tagged.completed);
            assert_eq!(plain.makespan, tagged.makespan);
            assert_eq!(plain.total_energy, tagged.total_energy);
            assert_eq!(plain.track_utilisation, tagged.track_utilisation);
        },
    );
}
