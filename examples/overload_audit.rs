//! Overload audit (§III-D management software under stress): drive the
//! scheduler open-loop with Poisson and bursty arrivals, sweep offered load
//! through the saturation knee, and show admission control turning overload
//! into a goodput *plateau* — bounded queues, deadline-aware rejection,
//! dock-saturation backpressure, and budgeted retries with deterministic
//! exponential backoff.
//!
//! ```text
//! cargo run --example overload_audit
//! DHL_OVERLOAD_FAST=1 cargo run --example overload_audit          # CI-sized
//! DHL_OVERLOAD_AUDIT_JSON=out.json cargo run --example overload_audit
//! ```

use datacentre_hyperloop::sched::placement::Placement;
use datacentre_hyperloop::sched::{
    AdmissionSpec, FaultAwareness, OverloadPolicy, Policy, Priority, Scheduler, TenantId,
    TransferRequest,
};
use datacentre_hyperloop::sim::{ArrivalGenerator, ArrivalProcess, ArrivalSpec, SimConfig};
use datacentre_hyperloop::storage::datasets::{Dataset, DatasetKind};
use datacentre_hyperloop::units::{Bytes, Seconds};

const TENANTS: u32 = 3;

/// One tenant dataset per modulus class: 1, 2, or 3 carts (256 TB each).
fn tenant_dataset(tenant: u32) -> Dataset {
    let carts = (tenant % 3) + 1;
    Dataset {
        name: format!("tenant-{tenant}").into(),
        size: Bytes::from_terabytes(256.0 * f64::from(carts)),
        kind: DatasetKind::BigData,
    }
}

/// Per-tenant summary row: (tenant id, deadline-hit ratio, p95 latency).
type TenantRow = (u32, f64, f64);

struct SweepPoint {
    rate: f64,
    offered: u64,
    admitted: u64,
    rejected: u64,
    shed: u64,
    served: u64,
    retries: u64,
    deadline_hit_ratio: f64,
    goodput_gb_s: f64,
}

fn run_at(
    rate: f64,
    n_requests: usize,
    spec: &AdmissionSpec,
    process: Option<ArrivalProcess>,
) -> Result<(SweepPoint, Vec<TenantRow>), Box<dyn std::error::Error>> {
    run_workload(rate, n_requests, spec, process, false)
}

/// `uniform` flattens every tenant to Normal priority, so FIFO service
/// order matches admission order and the deadline-feasibility estimate is
/// exact up to retries.
fn run_workload(
    rate: f64,
    n_requests: usize,
    spec: &AdmissionSpec,
    process: Option<ArrivalProcess>,
    uniform: bool,
) -> Result<(SweepPoint, Vec<TenantRow>), Box<dyn std::error::Error>> {
    let mut placement = Placement::new(Bytes::from_terabytes(256.0));
    let ids: Vec<_> = (0..TENANTS)
        .map(|t| placement.store(tenant_dataset(t)))
        .collect();

    let mut arrival_spec = ArrivalSpec::poisson(rate, Seconds::new(1e12), 99)
        .with_tenants(TENANTS)
        .with_deadlines(Seconds::new(600.0), 0.25);
    if let Some(process) = process {
        arrival_spec.process = process;
    }
    let arrivals = ArrivalGenerator::new(&arrival_spec);

    let mut sched = Scheduler::new(SimConfig::paper_default(), placement)?
        .with_policy(Policy::PriorityFifo)
        .with_admission(spec.clone())
        .with_faults(FaultAwareness {
            loss_probability: 0.05,
            max_attempts: 8, // sampling only: the retry *budget* rules open-loop
            seed: 17,
            downtime: Vec::new(),
        });
    for a in arrivals.take(n_requests) {
        let mut req = TransferRequest::new(
            ids[a.tenant as usize % ids.len()],
            1,
            if a.tenant == 0 && !uniform {
                Priority::Urgent
            } else {
                Priority::Normal
            },
            Seconds::new(a.at.seconds()),
        )
        .with_tenant(TenantId(a.tenant));
        if let Some(deadline) = a.deadline {
            req = req.with_deadline(deadline);
        }
        sched.submit(req);
    }
    let out = sched.try_run()?;
    let report = out.admission.expect("open-loop run carries a report");
    let tenants: Vec<TenantRow> = report
        .tenants
        .iter()
        .map(|t| (t.tenant.0, t.latency.p99, t.deadline_hit_ratio()))
        .collect();
    Ok((
        SweepPoint {
            rate,
            offered: report.offered,
            admitted: report.admitted,
            rejected: report.rejected(),
            shed: report.shed,
            served: report.served,
            retries: report.retries,
            deadline_hit_ratio: report.deadline_hit_ratio(),
            goodput_gb_s: report.goodput_bytes_per_s / 1e9,
        },
        tenants,
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fast = std::env::var("DHL_OVERLOAD_FAST").is_ok();
    let n_requests = if fast { 48 } else { 160 };

    // Tenants average two carts per request: service ≈ 2 × 17.2 s round
    // trips, so the track saturates near 1 / 34.4 ≈ 0.029 req/s.
    let saturation = 1.0 / 34.4;
    let multipliers: &[f64] = if fast {
        &[0.5, 1.0, 2.0, 4.0]
    } else {
        &[0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    };

    let spec = AdmissionSpec {
        max_pending_global: 24,
        max_pending_per_tenant: 12,
        policy: OverloadPolicy::ShedLowestPriority,
        // Deadline awareness is demonstrated separately below: with it on,
        // infeasible requests are turned away at the door before queue
        // bounds (and hence shedding) ever engage.
        deadline_aware: false,
        dock_busy_watermark: 1.0,
        ..AdmissionSpec::default()
    };

    println!(
        "Open-loop overload sweep ({TENANTS} tenants, Poisson arrivals, shed-lowest-priority):"
    );
    println!(
        "  {:>8} {:>8} {:>9} {:>9} {:>6} {:>7} {:>8} {:>9} {:>10}",
        "load",
        "offered",
        "admitted",
        "rejected",
        "shed",
        "served",
        "retries",
        "ddl-hit",
        "goodput"
    );
    let mut points = Vec::new();
    for &m in multipliers {
        let (point, _) = run_at(saturation * m, n_requests, &spec, None)?;
        println!(
            "  {:>7.2}x {:>8} {:>9} {:>9} {:>6} {:>7} {:>8} {:>8.0}% {:>7.1} GB/s",
            m,
            point.offered,
            point.admitted,
            point.rejected,
            point.shed,
            point.served,
            point.retries,
            point.deadline_hit_ratio * 100.0,
            point.goodput_gb_s
        );
        points.push(point);
    }

    // The knee: the first load whose goodput is within 5% of the peak.
    let peak = points.iter().map(|p| p.goodput_gb_s).fold(0.0, f64::max);
    let knee = points
        .iter()
        .position(|p| p.goodput_gb_s >= 0.95 * peak)
        .expect("peak is attained");
    println!(
        "\n  goodput knee at {:.1}x saturation ({:.1} GB/s peak); past the knee the",
        points[knee].rate / saturation,
        peak
    );
    println!("  controller sheds/rejects excess load instead of letting goodput collapse:");
    let last = points.last().expect("non-empty sweep");
    println!(
        "  at {:.1}x offered load goodput holds {:.0}% of peak.",
        last.rate / saturation,
        last.goodput_gb_s / peak * 100.0
    );
    assert!(
        last.goodput_gb_s >= 0.5 * peak,
        "overload must plateau, not collapse"
    );
    // Retry budgets bound cleanup traffic: never more than the per-tenant
    // token allowance across the whole run.
    let budget = spec.retry.tokens_per_tenant as u64 * u64::from(TENANTS);
    for p in &points {
        assert!(p.retries <= budget, "retries exceeded the token budget");
    }

    // Per-tenant SLO detail at the knee.
    let (_, tenants) = run_at(points[knee].rate, n_requests, &spec, None)?;
    println!("\nPer-tenant SLO at the knee (p99 delivery latency, deadline-hit ratio):");
    for (tenant, p99, hit) in &tenants {
        println!(
            "  tenant {tenant}: p99 {p99:>7.1} s, deadline hits {:.0}%",
            hit * 100.0
        );
    }

    // Deadline-aware admission: the same overloaded mix, but infeasible
    // requests are refused at the door (earliest-completion estimate vs
    // deadline) instead of queueing only to miss.
    let deadline_spec = AdmissionSpec {
        deadline_aware: true,
        ..spec.clone()
    };
    let (deadline_point, _) =
        run_workload(saturation * 2.0, n_requests, &deadline_spec, None, true)?;
    let (deadline_base, _) = run_workload(saturation * 2.0, n_requests, &spec, None, true)?;
    println!(
        "\nDeadline-aware admission at 2x saturation: {} of {} turned away up front;\n  the {} admitted hit {:.0}% of their deadlines (vs {:.0}% without the check).",
        deadline_point.rejected,
        deadline_point.offered,
        deadline_point.admitted,
        deadline_point.deadline_hit_ratio * 100.0,
        deadline_base.deadline_hit_ratio * 100.0
    );

    // Bursty arrivals: an on/off (MMPP-style) source at the same mean rate
    // stresses the bounded queue far harder than Poisson — backpressure and
    // shedding absorb the bursts.
    let burst = ArrivalProcess::OnOffBurst {
        on_rate_per_second: saturation * 6.0,
        off_rate_per_second: 0.0,
        mean_on_duration: Seconds::new(300.0),
        mean_off_duration: Seconds::new(600.0),
    };
    let (burst_point, _) = run_at(saturation * 2.0, n_requests, &spec, Some(burst))?;
    println!(
        "\nBursty (on/off) arrivals at 6x-saturation peaks: {} offered, {} shed + {} rejected,\n  goodput {:.1} GB/s — the controller rides out bursts without collapse.",
        burst_point.offered,
        burst_point.shed,
        burst_point.rejected,
        burst_point.goodput_gb_s
    );

    // CI snapshot: DHL_OVERLOAD_AUDIT_JSON=<path> writes the deterministic
    // sweep (no wall-clock gauges), which CI diffs against
    // tests/golden/overload_audit_fast.json in fast mode.
    if let Ok(path) = std::env::var("DHL_OVERLOAD_AUDIT_JSON") {
        let mut json = String::from("{\n  \"sweep\": [\n");
        let rows: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    "    {{\"rate_per_s\": {}, \"offered\": {}, \"admitted\": {}, \"rejected\": {}, \"shed\": {}, \"served\": {}, \"retries\": {}, \"deadline_hit_ratio\": {}, \"goodput_gb_s\": {}}}",
                    p.rate,
                    p.offered,
                    p.admitted,
                    p.rejected,
                    p.shed,
                    p.served,
                    p.retries,
                    p.deadline_hit_ratio,
                    p.goodput_gb_s
                )
            })
            .collect();
        json.push_str(&rows.join(",\n"));
        json.push_str("\n  ],\n  \"tenants_at_knee\": [\n");
        let rows: Vec<String> = tenants
            .iter()
            .map(|(tenant, p99, hit)| {
                format!(
                    "    {{\"tenant\": {tenant}, \"p99_s\": {p99}, \"deadline_hit_ratio\": {hit}}}"
                )
            })
            .collect();
        json.push_str(&rows.join(",\n"));
        json.push_str(&format!(
            "\n  ],\n  \"burst\": {{\"offered\": {}, \"shed\": {}, \"rejected\": {}, \"goodput_gb_s\": {}}}\n}}\n",
            burst_point.offered, burst_point.shed, burst_point.rejected, burst_point.goodput_gb_s
        ));
        std::fs::write(&path, json)?;
        println!("\n  (deterministic overload snapshot written to {path})");
    }
    Ok(())
}
