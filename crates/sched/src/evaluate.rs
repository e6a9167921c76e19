//! Side-by-side policy evaluation.
//!
//! Capacity planning repeatedly asks "how would this workload have fared
//! under a different discipline?" — FIFO vs shortest-job-first, with or
//! without fault/integrity awareness. Each scenario is an independent
//! scheduler over the same configuration, placement, and request mix; they
//! run one after another and come back in submission order.

use dhl_sim::SimConfig;

use crate::admission::AdmissionSpec;
use crate::placement::Placement;
use crate::scheduler::{
    DockRecoveryAwareness, FaultAwareness, IntegrityAwareness, Policy, ScheduleOutcome, Scheduler,
    SchedulerError, TransferRequest,
};

/// One scheduling discipline to evaluate against the shared workload.
#[derive(Clone, PartialEq, Debug)]
pub struct Scenario {
    /// Display label carried through to the outcome.
    pub label: String,
    /// Ordering discipline within a priority class.
    pub policy: Policy,
    /// Optional fault awareness (loss retries, downtime windows).
    pub faults: Option<FaultAwareness>,
    /// Optional integrity awareness (verify-on-dock, reshipments).
    pub integrity: Option<IntegrityAwareness>,
    /// Optional dock-recovery awareness (controller crashes stalling
    /// dockings for the recovery policy's latency).
    pub dock_recovery: Option<DockRecoveryAwareness>,
    /// Optional open-loop admission control (bounded queues, deadlines,
    /// backpressure, retry budgets).
    pub admission: Option<AdmissionSpec>,
}

impl Scenario {
    /// A scenario with the given label and policy, no awareness layers.
    #[must_use]
    pub fn new(label: impl Into<String>, policy: Policy) -> Self {
        Self {
            label: label.into(),
            policy,
            faults: None,
            integrity: None,
            dock_recovery: None,
            admission: None,
        }
    }

    /// Adds scheduler-level fault awareness.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultAwareness) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Adds scheduler-level integrity awareness.
    #[must_use]
    pub fn with_integrity(mut self, integrity: IntegrityAwareness) -> Self {
        self.integrity = Some(integrity);
        self
    }

    /// Adds scheduler-level dock-recovery awareness, for comparing how
    /// controller-recovery policies (journal replay vs rebuild-from-scan)
    /// ripple through availability and latency.
    #[must_use]
    pub fn with_dock_recovery(mut self, dock_recovery: DockRecoveryAwareness) -> Self {
        self.dock_recovery = Some(dock_recovery);
        self
    }

    /// Switches the scenario to open-loop serving under admission control.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionSpec) -> Self {
        self.admission = Some(admission);
        self
    }
}

/// A completed scenario: the label it ran under and the full schedule.
#[derive(Clone, PartialEq, Debug)]
pub struct ScenarioOutcome {
    /// The scenario's label.
    pub label: String,
    /// The discipline that produced the schedule.
    pub policy: Policy,
    /// The schedule itself.
    pub outcome: ScheduleOutcome,
}

/// Runs every scenario, in order, against the same configuration,
/// placement, and request mix.
///
/// Outcomes are returned in scenario order; on failure the error from the
/// earliest-indexed failing scenario is returned.
///
/// # Errors
///
/// Returns the first scenario's [`SchedulerError`] — an invalid
/// configuration, an unknown dataset, or a non-rack destination.
pub fn evaluate(
    cfg: &SimConfig,
    placement: &Placement,
    requests: &[TransferRequest],
    scenarios: Vec<Scenario>,
) -> Result<Vec<ScenarioOutcome>, SchedulerError> {
    scenarios
        .into_iter()
        .map(|scenario| {
            let mut sched =
                Scheduler::new(cfg.clone(), placement.clone())?.with_policy(scenario.policy);
            if let Some(faults) = scenario.faults {
                sched = sched.with_faults(faults);
            }
            if let Some(integrity) = scenario.integrity {
                sched = sched.with_integrity(integrity);
            }
            if let Some(dock_recovery) = scenario.dock_recovery {
                sched = sched.with_dock_recovery(dock_recovery);
            }
            if let Some(admission) = scenario.admission {
                sched = sched.with_admission(admission);
            }
            for request in requests {
                sched.submit(*request);
            }
            Ok(ScenarioOutcome {
                label: scenario.label,
                policy: scenario.policy,
                outcome: sched.try_run()?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use crate::scheduler::Priority;
    use dhl_sim::DockControllerFaultSpec;
    use dhl_storage::datasets;
    use dhl_units::{Bytes, Seconds};

    fn workload() -> (Placement, Vec<TransferRequest>) {
        let mut placement = Placement::new(Bytes::from_terabytes(256.0));
        let a = placement.store(datasets::laion_5b());
        let b = placement.store(datasets::common_crawl());
        let requests = vec![
            TransferRequest::new(b, 1, Priority::Normal, Seconds::ZERO),
            TransferRequest::new(a, 1, Priority::Urgent, Seconds::new(5.0)),
        ];
        (placement, requests)
    }

    fn scenarios() -> Vec<Scenario> {
        vec![
            Scenario::new("fifo", Policy::PriorityFifo),
            Scenario::new("sjf", Policy::ShortestJobFirst),
            Scenario::new("fifo+downtime", Policy::PriorityFifo).with_faults(
                FaultAwareness::downtime_only(vec![(Seconds::new(10.0), Seconds::new(20.0))]),
            ),
            Scenario::new("sjf+verify", Policy::ShortestJobFirst)
                .with_integrity(IntegrityAwareness::verification_only(Seconds::new(3.0))),
            Scenario::new("fifo+dock-replay", Policy::PriorityFifo)
                .with_dock_recovery(dock_recovery(DockControllerFaultSpec::journal_replay())),
            Scenario::new("fifo+dock-rescan", Policy::PriorityFifo)
                .with_dock_recovery(dock_recovery(DockControllerFaultSpec::rebuild_from_scan())),
        ]
    }

    fn dock_recovery(mut spec: DockControllerFaultSpec) -> DockRecoveryAwareness {
        // High enough that crashes reliably strike the 37-docking workload.
        spec.crash_probability_per_docking = 0.5;
        DockRecoveryAwareness::from_spec(&spec, Bytes::from_terabytes(256.0), 21)
    }

    #[test]
    fn outcomes_come_back_in_scenario_order() {
        let (placement, requests) = workload();
        let cfg = SimConfig::paper_default();
        let outcomes = evaluate(&cfg, &placement, &requests, scenarios()).unwrap();
        let labels: Vec<&str> = outcomes.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "fifo",
                "sjf",
                "fifo+downtime",
                "sjf+verify",
                "fifo+dock-replay",
                "fifo+dock-rescan",
            ]
        );
    }

    #[test]
    fn scenarios_differ_where_the_discipline_matters() {
        let (placement, requests) = workload();
        let cfg = SimConfig::paper_default();
        let outcomes = evaluate(&cfg, &placement, &requests, scenarios()).unwrap();
        // Downtime windows can only delay the schedule.
        assert!(outcomes[2].outcome.makespan >= outcomes[0].outcome.makespan);
        // Verify-on-dock charges scrub time on every delivery.
        assert!(outcomes[3].outcome.makespan > outcomes[1].outcome.makespan);
        // Every scenario completed the full request mix.
        for o in &outcomes {
            assert_eq!(o.outcome.completed.len(), requests.len());
        }
    }

    #[test]
    fn recovery_policies_are_comparable_side_by_side() {
        let (placement, requests) = workload();
        let cfg = SimConfig::paper_default();
        let outcomes = evaluate(&cfg, &placement, &requests, scenarios()).unwrap();
        let (clean, replay, rescan) = (&outcomes[0], &outcomes[4], &outcomes[5]);
        let crashes = |o: &ScenarioOutcome| {
            o.outcome
                .completed
                .iter()
                .map(|r| r.dock_crashes)
                .sum::<u64>()
        };
        // Same seed, same hazard: the two policies see identical crash draws
        // and differ only in how long each recovery stalls the dock.
        assert_eq!(crashes(replay), crashes(rescan));
        assert!(crashes(replay) > 0, "50% hazard over 37 dockings");
        assert!(replay.outcome.makespan > clean.outcome.makespan);
        assert!(
            rescan.outcome.makespan > replay.outcome.makespan,
            "re-scanning 256 TB per crash dwarfs a 30 s journal replay"
        );
        let downtime = |o: &ScenarioOutcome| o.outcome.metrics.gauge("sched.dock_downtime_s");
        assert!(downtime(rescan).unwrap() > downtime(replay).unwrap());
    }

    #[test]
    fn first_error_in_scenario_order_wins() {
        let (placement, _) = workload();
        let cfg = SimConfig::paper_default();
        // Destination 0 is the library, not a rack.
        let bad = vec![TransferRequest::new(
            crate::placement::DatasetId(0),
            0,
            Priority::Normal,
            Seconds::ZERO,
        )];
        let err = evaluate(&cfg, &placement, &bad, scenarios()).unwrap_err();
        assert_eq!(err, SchedulerError::InvalidDestination(0));
    }
}
