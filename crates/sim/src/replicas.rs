//! Seeded Monte-Carlo replicas (§V, §VI evaluation scale).
//!
//! The paper's figures are built from many seeded simulator replicas; this
//! module runs those replicas one after another and merges their results
//! deterministically:
//!
//! - [`run_replicas`] — N seeded [`DhlSystem`] runs of the same
//!   configuration. Replica 0 keeps the configured seeds (a 1-replica set
//!   is exactly a single run); replica `i` derives per-stream seeds via a
//!   splitmix64 mix of the base seed and `i`.
//! - [`ReplicaReport`] — per-replica reports in replica order, a merged
//!   [`MetricsSnapshot`] (counter sums, log₂-histogram bucket merges, gauges
//!   last-write-wins by replica index, wall-clock gauges dropped), and
//!   [`ReplicaStats`] aggregates (mean/p50/p95/95 % CI) over the headline
//!   reliability and integrity outcomes.
//!
//! `tests/replicas.rs` pins [`run_replicas`] against the hand-written
//! loop: each seeded replica run on its own and merged in index order.
//!
//! With [`RecoveryOptions`], replicas additionally checkpoint themselves
//! periodically (see [`crate::checkpoint`]) and restart from the last
//! checkpoint when they crash, up to a bounded restart budget. Because
//! checkpoint resume is bit-identical, a replica that crashed and recovered
//! produces exactly the report it would have produced uninterrupted — so
//! the merged [`ReplicaReport`] is unchanged by crashes.

use dhl_obs::MetricsSnapshot;
use serde::{Deserialize, Serialize};

use dhl_units::{Bytes, Seconds};

use crate::config::SimConfig;
use crate::report::BulkTransferReport;
use crate::system::{DhlSystem, SimError};

/// The splitmix64 finaliser — a cheap, well-mixed 64-bit permutation.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives replica `index`'s seed from a base seed: independent,
/// deterministic streams per replica.
fn mix_seed(base: u64, index: u64) -> u64 {
    splitmix64(base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The configuration replica `index` runs: identical physics, with the
/// stochastic stream seeds re-derived per replica. Replica 0 keeps the base
/// seeds untouched, so a 1-replica set reproduces a single run exactly.
/// (The fault stream needs no rewrite: [`DhlSystem::new`] derives it from
/// the reliability seed.)
#[must_use]
pub fn replica_config(mut cfg: SimConfig, index: u64) -> SimConfig {
    if index == 0 {
        return cfg;
    }
    if let Some(r) = cfg.reliability.as_mut() {
        r.seed = mix_seed(r.seed, index);
    }
    if let Some(i) = cfg.integrity.as_mut() {
        i.seed = mix_seed(i.seed, index);
    }
    cfg
}

/// Summary statistics over one per-replica outcome.
///
/// Percentiles are nearest-rank over the sorted replica samples; `ci95` is
/// the half-width of the normal-approximation 95 % confidence interval on
/// the mean (`1.96 · s / √n`, sample standard deviation; 0 when `n < 2`).
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct ReplicaStats {
    /// Sample mean.
    pub mean: f64,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 95th percentile.
    pub p95: f64,
    /// Half-width of the 95 % confidence interval on the mean.
    pub ci95: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl ReplicaStats {
    /// Statistics over raw samples (all zeros when empty).
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let n = samples.len();
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let nearest_rank = |q: f64| {
            let rank = ((q * n as f64).ceil() as usize).max(1);
            sorted[rank - 1]
        };
        let ci95 = if n < 2 {
            0.0
        } else {
            let var = sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            1.96 * var.sqrt() / (n as f64).sqrt()
        };
        Self {
            mean,
            p50: nearest_rank(0.50),
            p95: nearest_rank(0.95),
            ci95,
            min: sorted[0],
            max: sorted[n - 1],
        }
    }
}

/// Merged outcome of a replica set.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct ReplicaReport {
    /// Per-replica reports, in replica (seed) order.
    pub reports: Vec<BulkTransferReport>,
    /// Replica metrics merged in replica order: counters summed, histograms
    /// merged bucket-wise, gauges last-write-wins. Wall-clock pacing gauges
    /// (names containing `"wall"`) are dropped — they legitimately differ
    /// between runs and would break cross-run comparability.
    pub metrics: MetricsSnapshot,
    /// Completion time (s) across replicas.
    pub completion_time: ReplicaStats,
    /// Net energy (J) across replicas.
    pub total_energy: ReplicaStats,
    /// In-flight SSD failures across replicas.
    pub ssd_failures: ReplicaStats,
    /// RAID-uncovered data-loss events across replicas.
    pub data_loss_events: ReplicaStats,
    /// Recovery redeliveries across replicas ([`ReliabilityReport`]).
    ///
    /// [`ReliabilityReport`]: crate::report::ReliabilityReport
    pub redeliveries: ReplicaStats,
    /// Wasted retry time (s) across replicas ([`ReliabilityReport`]).
    ///
    /// [`ReliabilityReport`]: crate::report::ReliabilityReport
    pub retry_time: ReplicaStats,
    /// Silently corrupted shards across replicas ([`IntegrityReport`]).
    ///
    /// [`IntegrityReport`]: crate::report::IntegrityReport
    pub shards_corrupted: ReplicaStats,
    /// Deliveries re-shipped after over-tolerance corruption
    /// ([`IntegrityReport`]).
    ///
    /// [`IntegrityReport`]: crate::report::IntegrityReport
    pub deliveries_reshipped: ReplicaStats,
}

impl ReplicaReport {
    /// Builds the merged view from per-replica reports (in replica order).
    #[must_use]
    pub fn from_reports(reports: Vec<BulkTransferReport>) -> Self {
        let mut metrics = MetricsSnapshot::default();
        for r in &reports {
            metrics.merge(&r.metrics);
        }
        metrics.gauges.retain(|(name, _)| !name.contains("wall"));
        let stat = |f: fn(&BulkTransferReport) -> f64| {
            ReplicaStats::from_samples(&reports.iter().map(f).collect::<Vec<_>>())
        };
        Self {
            metrics,
            completion_time: stat(|r| r.completion_time.seconds()),
            total_energy: stat(|r| r.total_energy.value()),
            ssd_failures: stat(|r| r.ssd_failures as f64),
            data_loss_events: stat(|r| r.data_loss_events as f64),
            redeliveries: stat(|r| r.reliability.redeliveries as f64),
            retry_time: stat(|r| r.reliability.retry_time.seconds()),
            shards_corrupted: stat(|r| r.integrity.shards_corrupted as f64),
            deliveries_reshipped: stat(|r| r.integrity.deliveries_reshipped as f64),
            reports,
        }
    }

    /// Number of replicas that ran.
    #[must_use]
    pub fn replica_count(&self) -> usize {
        self.reports.len()
    }
}

/// Deterministic crash injection for exercising replica recovery: replica
/// `replica` "crashes" (its in-memory simulator is dropped) the first
/// `crashes` times its clock reaches `at_time`, and must restart from its
/// last periodic checkpoint.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct CrashInjection {
    /// Index of the replica that crashes.
    pub replica: u64,
    /// Simulation time at which the crash fires.
    pub at_time: Seconds,
    /// How many times the replica crashes before staying up.
    pub crashes: u32,
}

/// Crash-recovery policy for replica runs.
#[derive(Clone, PartialEq, Debug)]
pub struct RecoveryOptions {
    /// Simulation-time spacing between periodic checkpoints. A crash loses
    /// at most this much simulated progress.
    pub checkpoint_interval: Seconds,
    /// Restarts allowed per replica before the run fails with
    /// [`SimError::RestartBudgetExhausted`].
    pub max_restarts: u32,
    /// Deterministic crash injection (tests and audits; `None` in
    /// production use, where crashes come from the host).
    pub crash_hook: Option<CrashInjection>,
}

impl Default for RecoveryOptions {
    /// Checkpoint every 300 simulated seconds, allow 3 restarts, no
    /// injected crashes.
    fn default() -> Self {
        Self {
            checkpoint_interval: Seconds::new(300.0),
            max_restarts: 3,
            crash_hook: None,
        }
    }
}

/// Runs one replica to completion under a recovery policy: periodic
/// checkpoints, and restart-from-last-checkpoint when the crash hook fires.
fn run_recoverable(
    cfg: SimConfig,
    dataset: Bytes,
    replica: u64,
    recovery: &RecoveryOptions,
) -> Result<BulkTransferReport, SimError> {
    let interval = recovery.checkpoint_interval.seconds().max(0.0);
    let mut crashes_remaining = recovery
        .crash_hook
        .filter(|h| h.replica == replica)
        .map_or(0, |h| h.crashes);
    let mut restarts: u32 = 0;
    let mut sys = DhlSystem::new(cfg.clone())?;
    sys.begin_bulk_transfer(dataset)?;
    let mut last_checkpoint = sys.checkpoint();
    loop {
        // Advance at least one event per step even when the interval is
        // shorter than the event spacing, so the loop always progresses.
        let horizon = match sys.queue.next_time() {
            None => Seconds::new(f64::INFINITY),
            Some(t) => Seconds::new(t.seconds().max(sys.now().seconds() + interval)),
        };
        let drained = sys.run_until(horizon)?;
        let crash_due = crashes_remaining > 0
            && recovery
                .crash_hook
                .is_some_and(|h| sys.now().seconds() >= h.at_time.seconds());
        if crash_due {
            crashes_remaining -= 1;
            if restarts == recovery.max_restarts {
                return Err(SimError::RestartBudgetExhausted { replica, restarts });
            }
            restarts += 1;
            // The crash: the live simulator is gone; only the checkpoint
            // survives. Resume replays the lost window bit-identically.
            drop(sys);
            sys = DhlSystem::resume(cfg.clone(), &last_checkpoint)?;
            continue;
        }
        if drained {
            return Ok(sys.finish());
        }
        last_checkpoint = sys.checkpoint();
    }
}

/// Runs `replicas` seeded bulk-transfer simulations of `cfg`, in replica
/// order, and merges the outcomes. Replica `i` runs
/// [`replica_config`]`(cfg, i)`. On failure the error of the lowest-indexed
/// failing replica is returned, and later replicas do not run.
///
/// With a `recovery` policy every replica checkpoints itself each
/// `recovery.checkpoint_interval` of simulated time, and a replica that
/// crashes (via `recovery.crash_hook`) restarts from its last checkpoint,
/// up to `recovery.max_restarts` times. Checkpoint resume is bit-identical,
/// so the merged report equals the crash-free outcome.
///
/// # Examples
///
/// ```rust
/// use dhl_sim::{run_replicas, ReliabilitySpec, SimConfig};
/// use dhl_units::Bytes;
///
/// let mut cfg = SimConfig::paper_default();
/// cfg.reliability = Some(ReliabilitySpec::typical());
/// let merged = run_replicas(&cfg, Bytes::from_petabytes(1.0), 4, None).unwrap();
/// assert_eq!(merged.replica_count(), 4);
/// assert!(merged.completion_time.mean > 0.0);
/// ```
///
/// # Errors
///
/// The first (by replica index) [`SimError`] any replica produced,
/// including [`SimError::RestartBudgetExhausted`] when a replica crashes
/// more than `recovery.max_restarts` times.
pub fn run_replicas(
    cfg: &SimConfig,
    dataset: Bytes,
    replicas: usize,
    recovery: Option<&RecoveryOptions>,
) -> Result<ReplicaReport, SimError> {
    let reports = (0..replicas as u64)
        .map(|index| {
            let c = replica_config(cfg.clone(), index);
            match recovery {
                None => DhlSystem::new(c)?.run_bulk_transfer(dataset),
                Some(recovery) => run_recoverable(c, dataset, index, recovery),
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ReplicaReport::from_reports(reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IntegritySpec, ReliabilitySpec};

    #[test]
    fn replica_zero_keeps_base_seeds() {
        let mut cfg = SimConfig::paper_default();
        cfg.reliability = Some(ReliabilitySpec::typical());
        cfg.integrity = Some(IntegritySpec::typical());
        let base = cfg.clone();
        let zero = replica_config(cfg, 0);
        assert_eq!(
            zero.reliability.as_ref().unwrap().seed,
            base.reliability.as_ref().unwrap().seed
        );
        assert_eq!(
            zero.integrity.as_ref().unwrap().seed,
            base.integrity.as_ref().unwrap().seed
        );
    }

    #[test]
    fn replica_seeds_are_distinct_and_deterministic() {
        let mut cfg = SimConfig::paper_default();
        cfg.reliability = Some(ReliabilitySpec::typical());
        let seed_of = |i| {
            replica_config(cfg.clone(), i)
                .reliability
                .as_ref()
                .unwrap()
                .seed
        };
        let seeds: Vec<u64> = (0..32).map(seed_of).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "per-replica seeds collide");
        assert_eq!(seed_of(7), seed_of(7), "seed derivation is deterministic");
    }

    #[test]
    fn stats_match_hand_computation() {
        let s = ReplicaStats::from_samples(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.p50, 2.0); // nearest rank: ceil(0.5·4) = 2nd of sorted
        assert_eq!(s.p95, 4.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        // s² = (2.25+0.25+0.25+2.25)/3 = 5/3; ci = 1.96·√(5/3)/2.
        assert!((s.ci95 - 1.96 * (5.0f64 / 3.0).sqrt() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn stats_of_one_sample_have_zero_ci() {
        let s = ReplicaStats::from_samples(&[8.6]);
        assert_eq!(s.mean, 8.6);
        assert_eq!(s.p50, 8.6);
        assert_eq!(s.p95, 8.6);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn stats_of_empty_are_zero() {
        assert_eq!(ReplicaStats::from_samples(&[]), ReplicaStats::default());
    }

    #[test]
    fn one_replica_set_equals_a_single_run() {
        let mut cfg = SimConfig::paper_default();
        cfg.reliability = Some(ReliabilitySpec::typical());
        let dataset = dhl_units::Bytes::from_terabytes(512.0);
        let single = DhlSystem::new(cfg.clone())
            .unwrap()
            .run_bulk_transfer(dataset)
            .unwrap();
        let set = run_replicas(&cfg, dataset, 1, None).unwrap();
        assert_eq!(set.reports.len(), 1);
        assert_eq!(set.reports[0], single);
        assert_eq!(set.completion_time.mean, single.completion_time.seconds());
        assert_eq!(set.completion_time.ci95, 0.0);
    }

    #[test]
    fn merged_metrics_drop_wall_clock_gauges_and_sum_counters() {
        let cfg = SimConfig::paper_default();
        let dataset = dhl_units::Bytes::from_terabytes(512.0);
        let single = DhlSystem::new(cfg.clone())
            .unwrap()
            .run_bulk_transfer(dataset)
            .unwrap();
        let set = run_replicas(&cfg, dataset, 3, None).unwrap();
        assert!(set
            .metrics
            .gauges
            .iter()
            .all(|(name, _)| !name.contains("wall")));
        assert_eq!(
            set.metrics.counter("sim.events"),
            single.metrics.counter("sim.events").map(|e| e * 3),
            "identical seeds without stochastic specs: counters sum"
        );
    }

    #[test]
    fn crashed_replicas_recover_to_the_same_merged_result() {
        let mut cfg = SimConfig::paper_default();
        cfg.reliability = Some(ReliabilitySpec::typical());
        let dataset = Bytes::from_petabytes(1.0);
        let clean = run_replicas(&cfg, dataset, 4, None).unwrap();
        let recovery = RecoveryOptions {
            checkpoint_interval: Seconds::new(15.0),
            max_restarts: 3,
            crash_hook: Some(CrashInjection {
                replica: 2,
                at_time: Seconds::new(20.0),
                crashes: 2,
            }),
        };
        // The hook really fires mid-run: with no restart budget it is fatal.
        let strict = RecoveryOptions {
            max_restarts: 0,
            ..recovery.clone()
        };
        assert!(matches!(
            run_replicas(&cfg, dataset, 4, Some(&strict)),
            Err(SimError::RestartBudgetExhausted { replica: 2, .. })
        ));
        let recovered = run_replicas(&cfg, dataset, 4, Some(&recovery)).unwrap();
        assert_eq!(
            recovered.reports, clean.reports,
            "recovery must not change any replica's report"
        );
        assert_eq!(recovered.metrics, clean.metrics);
        assert_eq!(recovered.completion_time, clean.completion_time);
    }

    #[test]
    fn recovery_without_crashes_matches_the_plain_path() {
        let mut cfg = SimConfig::paper_default();
        cfg.integrity = Some(IntegritySpec::typical());
        let dataset = Bytes::from_terabytes(512.0);
        let clean = run_replicas(&cfg, dataset, 2, None).unwrap();
        let recovered = run_replicas(&cfg, dataset, 2, Some(&RecoveryOptions::default())).unwrap();
        assert_eq!(recovered.reports, clean.reports);
        assert_eq!(recovered.metrics, clean.metrics);
    }

    #[test]
    fn restart_budget_exhaustion_is_an_error() {
        let cfg = SimConfig::paper_default();
        let recovery = RecoveryOptions {
            checkpoint_interval: Seconds::new(50.0),
            max_restarts: 1,
            // at_time 0 fires at the very first checkpoint horizon, so the
            // budget is exhausted regardless of how long the run would take.
            crash_hook: Some(CrashInjection {
                replica: 0,
                at_time: Seconds::ZERO,
                crashes: 10,
            }),
        };
        let err = run_replicas(&cfg, Bytes::from_petabytes(1.0), 2, Some(&recovery)).unwrap_err();
        match err {
            SimError::RestartBudgetExhausted { replica, restarts } => {
                assert_eq!(replica, 0);
                assert_eq!(restarts, 1);
            }
            other => panic!("expected RestartBudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn invalid_config_is_an_error() {
        let mut cfg = SimConfig::paper_default();
        cfg.num_carts = 0;
        let err = run_replicas(&cfg, Bytes::from_terabytes(1.0), 4, None).unwrap_err();
        assert!(matches!(err, SimError::Config(_)), "{err:?}");
    }
}
