//! The four operations a user of the reproduction runs, each timed at the
//! boundaries of the layers it calls into and checked against a reference
//! result computed once at set-up.

use std::time::{Duration, Instant};

use dhl_bench::ReportFn;
use dhl_sched::scheduler::{ScheduleOutcome, Scheduler};
use dhl_sim::{BulkTransferReport, Checkpoint, DhlSystem};
use dhl_units::{Bytes, Seconds};

use crate::inputs::{self, Inputs, Workload};

/// Checkpoint/resume cycles the checkpoint operation makes per mission.
const CHECKPOINTS: u32 = 8;

/// Host time of one campus mission, split at the `DhlSystem` API.
pub struct MissionStats {
    /// `DhlSystem::new`.
    pub build: Duration,
    /// `run_multi_rack`: the event queue, handlers and kinematics.
    pub run: Duration,
    pub events: u64,
}

/// Host time of one open-loop serving run, split at the `Scheduler` API.
pub struct ServeStats {
    /// `Scheduler::new` and the admission and fault set-up.
    pub build: Duration,
    /// `submit` of every arrival.
    pub submit: Duration,
    /// `try_run`: admission control, the service queue and the dock bank.
    pub run: Duration,
    pub arrivals: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub shed: u64,
    pub retries: u64,
}

/// Host time of one mission run through checkpoint/resume cycles.
pub struct CheckpointStats {
    /// `DhlSystem::new`, `begin_multi_rack` and `finish`.
    pub build: Duration,
    /// Every `run_until` slice.
    pub run: Duration,
    /// `DhlSystem::checkpoint`.
    pub capture: Duration,
    /// `Checkpoint::to_json`.
    pub encode: Duration,
    /// `Checkpoint::from_json`.
    pub decode: Duration,
    /// `DhlSystem::resume`.
    pub resume: Duration,
    pub events: u64,
    pub cycles: u32,
    pub json_bytes: u64,
}

/// Host time of one regeneration of every paper table and figure, per
/// renderer in `dhl_bench::all_reports()` order.
pub struct PaperStats {
    pub render: Vec<Duration>,
}

/// The set-up inputs plus the reference results every timed operation is
/// checked against.
pub struct Bench {
    inputs: Inputs,
    reports: Vec<(&'static str, ReportFn, String)>,
    mission_ref: BulkTransferReport,
    serve_ref: ScheduleOutcome,
    checkpoint_every: Seconds,
}

impl Bench {
    /// Generates the inputs and computes the reference results, checking
    /// them against invariants that do not depend on the code under test
    /// being deterministic.
    pub fn setup(workload: Workload, seed: u64) -> Result<Self, String> {
        let reports: Vec<(&'static str, ReportFn, String)> = dhl_bench::all_reports()
            .into_iter()
            .map(|(name, render)| (name, render, render()))
            .collect();
        let inputs = inputs::generate(workload, seed, reports.len());

        let campus = &inputs.campus;
        let mission_ref = DhlSystem::new(campus.cfg.clone())
            .and_then(|mut sys| sys.run_multi_rack(&campus.demands))
            .map_err(|e| format!("reference mission: {e}"))?;
        let owed: u64 = campus.demands.iter().map(|(_, b)| b.as_u64()).sum();
        if mission_ref.delivered != Bytes::new(owed) {
            return Err(format!(
                "reference mission delivered {} of {owed} bytes",
                mission_ref.delivered.as_u64()
            ));
        }
        let capacity = campus.cfg.cart_capacity;
        for &(rack, bytes) in &campus.demands {
            let want = bytes.div_ceil(capacity);
            let got = mission_ref
                .deliveries_by_endpoint
                .iter()
                .find(|(ep, _)| *ep == rack)
                .map_or(0, |&(_, n)| n);
            if got != want {
                return Err(format!(
                    "reference mission made {got} deliveries to rack {rack}, owed {want}"
                ));
            }
        }
        let cycles = f64::from(CHECKPOINTS + 1);
        let checkpoint_every = Seconds::new(mission_ref.completion_time.seconds() / cycles);

        let serve_ref = serve_outcome(&inputs, true)?.0;
        let admission = serve_ref
            .admission
            .as_ref()
            .ok_or("open-loop run returned no admission report")?;
        let offered = inputs.serving.requests.len() as u64;
        if admission.offered != offered
            || admission.admitted + admission.rejected() != offered
            || admission.served + admission.shed != admission.admitted
            || serve_ref.completed.len() as u64 != admission.served
        {
            return Err(format!(
                "reference serving run does not balance: offered {} of {offered}, admitted {}, \
                 rejected {}, served {}, shed {}, completed {}",
                admission.offered,
                admission.admitted,
                admission.rejected(),
                admission.served,
                admission.shed,
                serve_ref.completed.len()
            ));
        }

        Ok(Self {
            inputs,
            reports,
            mission_ref,
            serve_ref,
            checkpoint_every,
        })
    }

    /// The paper renderers' names, in `dhl_bench::all_reports()` order.
    pub fn report_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.reports.iter().map(|(name, _, _)| *name)
    }

    /// A campus mission from `DhlSystem::new` to its report.
    pub fn mission(&self, metrics: bool) -> Result<MissionStats, String> {
        let campus = &self.inputs.campus;
        let start = Instant::now();
        let mut sys = DhlSystem::new(campus.cfg.clone()).map_err(|e| e.to_string())?;
        if !metrics {
            sys.set_metrics_enabled(false);
        }
        let built = Instant::now();
        let report = sys
            .run_multi_rack(&campus.demands)
            .map_err(|e| e.to_string())?;
        let done = Instant::now();
        if report != self.mission_ref {
            return Err("mission report differs from the reference".into());
        }
        Ok(MissionStats {
            build: built - start,
            run: done - built,
            events: report.events_processed,
        })
    }

    /// An open-loop serving run from `Scheduler::new` to its outcome.
    pub fn serve(&self, metrics: bool) -> Result<ServeStats, String> {
        let (outcome, stats) = serve_outcome(&self.inputs, metrics)?;
        if outcome != self.serve_ref {
            return Err("serving outcome differs from the reference".into());
        }
        Ok(stats)
    }

    /// One line on what the reference runs did, for the log.
    pub fn describe(&self) -> String {
        let (m, campus) = (&self.mission_ref, &self.inputs.campus);
        let rel = &m.reliability;
        let owed: f64 = campus.demands.iter().map(|(_, b)| b.terabytes()).sum();
        let a = self.serve_ref.admission.as_ref();
        format!(
            "campus: {} racks, {} carts, {:.0} TB owed, {} events, {} deliveries, \
             {} redeliveries, {} stalls, {} dock crashes, {} reshipped; \
             serving: {} arrivals, {} admitted, {} rejected, {} shed, {} retries",
            campus.demands.len(),
            campus.cfg.num_carts,
            owed,
            m.events_processed,
            m.deliveries,
            rel.redeliveries,
            rel.cart_stalls,
            rel.dock_controller_crashes,
            m.integrity.deliveries_reshipped,
            self.inputs.serving.requests.len(),
            a.map_or(0, |a| a.admitted),
            a.map_or(0, |a| a.rejected()),
            a.map_or(0, |a| a.shed),
            a.map_or(0, |a| a.retries),
        )
    }

    /// The campus mission again, stopped at evenly spaced simulated times:
    /// each stop captures a checkpoint, encodes it to JSON, drops the
    /// system, decodes the JSON and resumes. The resumed mission must
    /// report exactly what the uninterrupted one did.
    pub fn checkpoint_cycle(&self) -> Result<CheckpointStats, String> {
        let campus = &self.inputs.campus;
        let mut stats = CheckpointStats {
            build: Duration::ZERO,
            run: Duration::ZERO,
            capture: Duration::ZERO,
            encode: Duration::ZERO,
            decode: Duration::ZERO,
            resume: Duration::ZERO,
            events: 0,
            cycles: 0,
            json_bytes: 0,
        };
        let mut t = Instant::now();
        let mut lap = |into: &mut Duration| {
            let now = Instant::now();
            *into += now - t;
            t = now;
        };
        let mut sys = DhlSystem::new(campus.cfg.clone()).map_err(|e| e.to_string())?;
        sys.begin_multi_rack(&campus.demands)
            .map_err(|e| e.to_string())?;
        lap(&mut stats.build);
        for stop in 1..=CHECKPOINTS {
            let horizon = Seconds::new(self.checkpoint_every.seconds() * f64::from(stop));
            let drained = sys.run_until(horizon).map_err(|e| e.to_string())?;
            lap(&mut stats.run);
            if drained {
                return Err(format!("mission ended before checkpoint {stop}"));
            }
            let checkpoint = sys.checkpoint();
            lap(&mut stats.capture);
            let json = checkpoint.to_json();
            lap(&mut stats.encode);
            drop(sys);
            let restored = Checkpoint::from_json(&json).map_err(|e| e.to_string())?;
            lap(&mut stats.decode);
            sys = DhlSystem::resume(campus.cfg.clone(), &restored).map_err(|e| e.to_string())?;
            lap(&mut stats.resume);
            stats.cycles += 1;
            stats.json_bytes += json.len() as u64;
        }
        sys.run_until(Seconds::new(f64::INFINITY))
            .map_err(|e| e.to_string())?;
        lap(&mut stats.run);
        let report = sys.finish();
        lap(&mut stats.build);
        if report != self.mission_ref {
            return Err("resumed mission differs from the uninterrupted one".into());
        }
        stats.events = report.events_processed;
        Ok(stats)
    }

    /// Regenerates every paper table and figure; each must match the text
    /// rendered at set-up byte for byte.
    pub fn paper(&self) -> Result<PaperStats, String> {
        let mut render = vec![Duration::ZERO; self.reports.len()];
        for &i in &self.inputs.paper_order {
            let (name, report, want) = &self.reports[i];
            let start = Instant::now();
            let text = report();
            render[i] = start.elapsed();
            if text != *want {
                return Err(format!("{name} differs from its set-up rendering"));
            }
        }
        Ok(PaperStats { render })
    }
}

fn serve_outcome(inputs: &Inputs, metrics: bool) -> Result<(ScheduleOutcome, ServeStats), String> {
    let serving = &inputs.serving;
    let start = Instant::now();
    let mut sched = Scheduler::new(serving.cfg.clone(), serving.placement.clone())
        .map_err(|e| e.to_string())?
        .with_admission(serving.admission.clone());
    if let Some(faults) = &serving.faults {
        sched = sched.with_faults(faults.clone());
    }
    if !metrics {
        sched.set_metrics_enabled(false);
    }
    let built = Instant::now();
    for &request in &serving.requests {
        sched.submit(request);
    }
    let submitted = Instant::now();
    let outcome = sched.try_run().map_err(|e| e.to_string())?;
    let done = Instant::now();
    let admission = outcome
        .admission
        .as_ref()
        .ok_or("open-loop run returned no admission report")?;
    let stats = ServeStats {
        build: built - start,
        submit: submitted - built,
        run: done - submitted,
        arrivals: serving.requests.len() as u64,
        admitted: admission.admitted,
        rejected: admission.rejected(),
        shed: admission.shed,
        retries: admission.retries,
    };
    Ok((outcome, stats))
}
