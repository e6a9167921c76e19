//! Admission control, backpressure, deadlines, and retry budgets for
//! open-loop serving (ROADMAP item 1).
//!
//! The scheduler has one serve loop. Without an [`AdmissionSpec`] it
//! refuses nothing: every request is admitted before the first service
//! decision. With one installed (`Scheduler::with_admission`), requests
//! are admitted in arrival order as the track frees up, against bounded
//! per-tenant and global pending queues; deadline-infeasible requests are
//! turned away at the door, docking-station saturation backpressures
//! admission, and retries draw on per-tenant token buckets with
//! deterministic exponential backoff + jitter instead of unbounded
//! re-enqueue. None of this accounting runs without a spec, so schedules
//! and metric snapshots there are those of the original closed-loop
//! scheduler (pinned by `tests/serve_golden.rs`).
//!
//! Determinism notes:
//!
//! - Admission decisions are pure functions of the (sanitised) spec and the
//!   simulated timeline — no randomness at the door.
//! - Retry backoff jitter derives a fresh RNG per `(seed, request, attempt)`
//!   via [`retry_backoff`], so backoff sequences are invariant across
//!   thread counts, replica fan-outs, and checkpoint/resume: replaying a
//!   request recomputes exactly the same waits.
//! - All numeric inputs are clamped with the PR-3 `FailureModel`
//!   discipline by [`AdmissionSpec::sanitised`], applied when the spec is
//!   installed.

use dhl_obs::SloSummary;
use dhl_rng::{DeterministicRng, Rng};
use dhl_units::Seconds;

use crate::scheduler::RequestId;

/// Tenant identity for multi-tenant accounting and fairness bounds.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct TenantId(pub u32);

/// What to do with a new arrival when the system is overloaded (pending
/// queue full or docking stations past the backpressure watermark).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum OverloadPolicy {
    /// Turn the arrival away.
    #[default]
    Reject,
    /// Drop the lowest-priority pending request to make room, provided it
    /// is strictly lower-priority than the arrival (latest-arrived victim
    /// among equals, so the oldest work survives); otherwise reject the
    /// arrival.
    ShedLowestPriority,
    /// Admit the arrival anyway, demoted to [`Priority::Background`] with
    /// its deadline dropped — served only when capacity frees up. Hard
    /// queue bounds still reject (the bound is the bound).
    ///
    /// [`Priority::Background`]: crate::scheduler::Priority::Background
    DegradeToBestEffort,
}

/// Retry budget: bounded attempts with deterministic exponential backoff +
/// jitter, drawn against a per-tenant token bucket.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct RetryBudgetSpec {
    /// Attempts per cart (first try included). Clamped to ≥ 1.
    pub max_attempts_per_request: u32,
    /// Retry tokens per tenant for the whole run: every retry (attempt
    /// ≥ 2, any of the tenant's requests) consumes one. Zero disables
    /// retries entirely.
    pub tokens_per_tenant: u32,
    /// Backoff before the first retry.
    pub backoff_base: Seconds,
    /// Multiplier per further attempt (clamped to ≥ 1).
    pub backoff_multiplier: f64,
    /// Upper bound on any single backoff wait (before jitter).
    pub backoff_cap: Seconds,
    /// Uniform jitter as a fraction of the backoff (clamped into `[0, 1]`):
    /// the wait is `backoff × (1 + jitter × U[0,1))`.
    pub jitter_fraction: f64,
}

impl Default for RetryBudgetSpec {
    fn default() -> Self {
        Self {
            max_attempts_per_request: 3,
            tokens_per_tenant: 16,
            backoff_base: Seconds::new(5.0),
            backoff_multiplier: 2.0,
            backoff_cap: Seconds::new(120.0),
            jitter_fraction: 0.25,
        }
    }
}

/// Configuration for open-loop admission control. Off by default: a
/// scheduler without one behaves exactly as before this layer existed.
#[derive(Clone, PartialEq, Debug)]
pub struct AdmissionSpec {
    /// Global bound on admitted-but-unserved requests. Clamped to ≥ 1.
    pub max_pending_global: usize,
    /// Per-tenant bound on admitted-but-unserved requests. Clamped to ≥ 1.
    pub max_pending_per_tenant: usize,
    /// What to do with arrivals that hit an overload condition.
    pub policy: OverloadPolicy,
    /// Reject (or degrade) arrivals whose earliest estimated delivery
    /// already misses their deadline.
    pub deadline_aware: bool,
    /// Backpressure watermark: when the fraction of the destination's
    /// docking stations still busy at arrival time reaches this value, the
    /// arrival is treated as overload. `1.0` disables dock backpressure.
    pub dock_busy_watermark: f64,
    /// Retry budget and backoff shape.
    pub retry: RetryBudgetSpec,
    /// Seed for the backoff-jitter derivation (a per-request stream is
    /// split from it; see [`retry_backoff`]).
    pub seed: u64,
}

impl Default for AdmissionSpec {
    fn default() -> Self {
        Self {
            max_pending_global: 64,
            max_pending_per_tenant: 16,
            policy: OverloadPolicy::Reject,
            deadline_aware: false,
            dock_busy_watermark: 1.0,
            retry: RetryBudgetSpec::default(),
            seed: 0,
        }
    }
}

impl AdmissionSpec {
    /// The spec with every numeric field clamped into its sane range (the
    /// PR-3 `FailureModel` discipline): zero queue bounds become 1,
    /// non-finite watermarks disable backpressure, backoff times clamp to
    /// non-negative finite values, the multiplier to ≥ 1, the jitter
    /// fraction into `[0, 1]`, and the attempt budget to ≥ 1.
    #[must_use]
    pub fn sanitised(mut self) -> Self {
        fn nonneg(s: Seconds) -> Seconds {
            let v = s.seconds();
            if v.is_finite() {
                Seconds::new(v.max(0.0))
            } else {
                Seconds::ZERO
            }
        }
        self.max_pending_global = self.max_pending_global.max(1);
        self.max_pending_per_tenant = self.max_pending_per_tenant.max(1);
        self.dock_busy_watermark = if self.dock_busy_watermark.is_finite() {
            self.dock_busy_watermark.clamp(0.0, 1.0)
        } else {
            1.0
        };
        self.retry.max_attempts_per_request = self.retry.max_attempts_per_request.max(1);
        self.retry.backoff_base = nonneg(self.retry.backoff_base);
        self.retry.backoff_cap = nonneg(self.retry.backoff_cap);
        self.retry.backoff_multiplier = if self.retry.backoff_multiplier.is_finite() {
            self.retry.backoff_multiplier.clamp(1.0, 1e6)
        } else {
            1.0
        };
        self.retry.jitter_fraction = if self.retry.jitter_fraction.is_finite() {
            self.retry.jitter_fraction.clamp(0.0, 1.0)
        } else {
            0.0
        };
        self
    }
}

/// Deterministic backoff before retry number `attempt − 1` (i.e. before the
/// given `attempt ≥ 2` departs; attempt 1 is the first try and waits
/// nothing).
///
/// The jitter RNG is derived by splitmix-style mixing of the spec seed,
/// the request id, and the attempt index, so the wait is a pure function
/// of those three values — identical across thread counts, schedulers, and
/// checkpoint/resume replays.
#[must_use]
pub fn retry_backoff(
    retry: &RetryBudgetSpec,
    seed: u64,
    request: RequestId,
    attempt: u32,
) -> Seconds {
    if attempt < 2 {
        return Seconds::ZERO;
    }
    let base = retry.backoff_base.seconds().max(0.0);
    if base == 0.0 {
        return Seconds::ZERO;
    }
    let cap = retry.backoff_cap.seconds().max(0.0);
    let mult = if retry.backoff_multiplier.is_finite() {
        retry.backoff_multiplier.max(1.0)
    } else {
        1.0
    };
    // Exponent grows with each further retry; i32 cast is safe (≤ 1024).
    let exp = i32::try_from((attempt - 2).min(1024)).expect("bounded");
    let capped = (base * mult.powi(exp)).min(cap).max(0.0);
    let jitter = if retry.jitter_fraction.is_finite() {
        retry.jitter_fraction.clamp(0.0, 1.0)
    } else {
        0.0
    };
    if jitter == 0.0 {
        return Seconds::new(capped);
    }
    let mut rng = DeterministicRng::seed_from_u64(
        seed ^ request.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(attempt).wrapping_mul(0xBF58_476D_1CE4_E5B9),
    );
    Seconds::new(capped * (1.0 + jitter * rng.random_f64()))
}

/// Per-tenant SLO accounting from one open-loop run.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct TenantSlo {
    /// The tenant.
    pub tenant: TenantId,
    /// Arrivals offered by this tenant.
    pub offered: u64,
    /// Arrivals admitted (including degraded).
    pub admitted: u64,
    /// Requests served to completion (outcome recorded).
    pub served: u64,
    /// Arrivals turned away (queue bound, deadline, or backpressure).
    pub rejected: u64,
    /// Admitted requests dropped by shed-lowest-priority.
    pub shed: u64,
    /// Arrivals admitted at degraded (best-effort) class.
    pub degraded: u64,
    /// Retry attempts charged to this tenant's token bucket.
    pub retries: u64,
    /// Shards abandoned (budget or token exhaustion).
    pub abandoned_shards: u64,
    /// Served requests with a deadline that delivered in time.
    pub deadline_hits: u64,
    /// Served requests with a deadline that delivered late (or not fully).
    pub deadline_misses: u64,
    /// Payload bytes of shards actually delivered.
    pub delivered_bytes: f64,
    /// Delivery-latency distribution (arrival → last shard docked).
    pub latency: SloSummary,
}

impl TenantSlo {
    /// Fraction of deadline-bearing served requests that delivered in time
    /// (1.0 when none carried deadlines).
    #[must_use]
    pub fn deadline_hit_ratio(&self) -> f64 {
        let total = self.deadline_hits + self.deadline_misses;
        if total == 0 {
            1.0
        } else {
            self.deadline_hits as f64 / total as f64
        }
    }
}

/// Run-level admission/SLO report, attached to `ScheduleOutcome::admission`
/// when open-loop serving is enabled.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct AdmissionReport {
    /// Total arrivals offered to the admission controller.
    pub offered: u64,
    /// Arrivals admitted into the pending queue (including degraded).
    pub admitted: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Arrivals rejected because a queue bound was hit.
    pub rejected_queue_full: u64,
    /// Arrivals rejected because their deadline was already infeasible.
    pub rejected_deadline: u64,
    /// Arrivals rejected by dock-saturation backpressure.
    pub rejected_backpressure: u64,
    /// Admitted requests dropped by shed-lowest-priority.
    pub shed: u64,
    /// Arrivals admitted at degraded (best-effort) class.
    pub degraded: u64,
    /// Retry attempts granted across all tenants.
    pub retries: u64,
    /// Retries denied because a tenant's token bucket ran dry.
    pub retry_tokens_exhausted: u64,
    /// Shards abandoned across all served requests.
    pub abandoned_shards: u64,
    /// Served deadline-bearing requests that delivered in time.
    pub deadline_hits: u64,
    /// Served deadline-bearing requests that delivered late or not fully.
    pub deadline_misses: u64,
    /// Payload bytes offered (sum of dataset sizes of all arrivals).
    pub offered_bytes: f64,
    /// Payload bytes of shards actually delivered.
    pub delivered_bytes: f64,
    /// Delivered bytes ÷ makespan (0 for an empty run).
    pub goodput_bytes_per_s: f64,
    /// Ids of rejected arrivals, in arrival order.
    pub rejected_ids: Vec<RequestId>,
    /// Ids of shed requests, in shed order.
    pub shed_ids: Vec<RequestId>,
    /// Per-tenant SLO accounting, sorted by tenant id.
    pub tenants: Vec<TenantSlo>,
}

impl AdmissionReport {
    /// Fraction of deadline-bearing served requests that delivered in time
    /// (1.0 when none carried deadlines).
    #[must_use]
    pub fn deadline_hit_ratio(&self) -> f64 {
        let total = self.deadline_hits + self.deadline_misses;
        if total == 0 {
            1.0
        } else {
            self.deadline_hits as f64 / total as f64
        }
    }

    /// Arrivals turned away for any reason (not counting sheds).
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full + self.rejected_deadline + self.rejected_backpressure
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitised_clamps_degenerate_inputs() {
        let nasty = AdmissionSpec {
            max_pending_global: 0,
            max_pending_per_tenant: 0,
            policy: OverloadPolicy::Reject,
            deadline_aware: true,
            dock_busy_watermark: f64::NAN,
            retry: RetryBudgetSpec {
                max_attempts_per_request: 0,
                tokens_per_tenant: 5,
                backoff_base: Seconds::new(-3.0),
                backoff_multiplier: f64::NEG_INFINITY,
                backoff_cap: Seconds::new(f64::NAN),
                jitter_fraction: 7.0,
            },
            seed: 1,
        }
        .sanitised();
        assert_eq!(nasty.max_pending_global, 1);
        assert_eq!(nasty.max_pending_per_tenant, 1);
        assert_eq!(nasty.dock_busy_watermark, 1.0);
        assert_eq!(nasty.retry.max_attempts_per_request, 1);
        assert_eq!(nasty.retry.backoff_base, Seconds::ZERO);
        assert_eq!(nasty.retry.backoff_cap, Seconds::ZERO);
        assert_eq!(nasty.retry.backoff_multiplier, 1.0);
        assert_eq!(nasty.retry.jitter_fraction, 1.0);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let retry = RetryBudgetSpec {
            jitter_fraction: 0.0,
            ..RetryBudgetSpec::default()
        };
        let b = |attempt| retry_backoff(&retry, 0, RequestId(1), attempt).seconds();
        assert_eq!(b(1), 0.0, "first attempt never waits");
        assert_eq!(b(2), 5.0);
        assert_eq!(b(3), 10.0);
        assert_eq!(b(4), 20.0);
        assert_eq!(b(9), 120.0, "capped");
        assert_eq!(b(40), 120.0, "stays capped without overflow");
    }

    #[test]
    fn backoff_jitter_is_bounded_and_a_pure_function() {
        let retry = RetryBudgetSpec::default();
        for attempt in 2..8 {
            for req in 0..16 {
                let a = retry_backoff(&retry, 9, RequestId(req), attempt);
                let b = retry_backoff(&retry, 9, RequestId(req), attempt);
                assert_eq!(a, b, "pure in (seed, request, attempt)");
                let bare = retry_backoff(
                    &RetryBudgetSpec {
                        jitter_fraction: 0.0,
                        ..retry
                    },
                    9,
                    RequestId(req),
                    attempt,
                );
                assert!(a >= bare && a.seconds() <= bare.seconds() * 1.25 + 1e-12);
            }
        }
        // Different requests draw different jitter (almost surely).
        let a = retry_backoff(&retry, 9, RequestId(1), 2);
        let b = retry_backoff(&retry, 9, RequestId(2), 2);
        assert_ne!(a, b);
    }

    #[test]
    fn hit_ratio_defaults_to_one_without_deadlines() {
        let r = AdmissionReport::default();
        assert_eq!(r.deadline_hit_ratio(), 1.0);
        let t = TenantSlo {
            tenant: TenantId(3),
            ..TenantSlo::default()
        };
        assert_eq!(t.deadline_hit_ratio(), 1.0);
    }
}
