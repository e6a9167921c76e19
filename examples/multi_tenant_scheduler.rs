//! Multi-tenant scheduling (§III-D): three teams share one DHL — an urgent
//! training job, a normal analytics refresh, and a background backup — and
//! the management software arbitrates the track.
//!
//! ```text
//! cargo run --example multi_tenant_scheduler
//! ```

use datacentre_hyperloop::sched::placement::Placement;
use datacentre_hyperloop::sched::scheduler::{
    IntegrityAwareness, Policy, Priority, Scheduler, TransferRequest,
};
use datacentre_hyperloop::sched::DataState;
use datacentre_hyperloop::sim::SimConfig;
use datacentre_hyperloop::storage::datasets;
use datacentre_hyperloop::units::{Bytes, Seconds};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The library holds three tenants' datasets on 256 TB carts.
    let mut placement = Placement::new(Bytes::from_terabytes(256.0));
    let training = placement.store(datasets::laion_5b()); // 250 TB, 1 cart
    let analytics = placement.store(datasets::common_crawl()); // 9 PB, 36 carts
    let backup = placement.store(datasets::genomics_17pb()); // 17 PB, 68 carts
    println!(
        "library: {} carts provisioned, {} occupied\n",
        placement.cart_count(),
        placement.occupied_carts()
    );

    let mut sched = Scheduler::new(SimConfig::paper_default(), placement)?;
    let ids = [
        (
            "backup (background)",
            sched.submit(TransferRequest::new(
                backup,
                1,
                Priority::Background,
                Seconds::ZERO,
            )),
        ),
        (
            "analytics (normal)",
            sched.submit(
                TransferRequest::new(analytics, 1, Priority::Normal, Seconds::ZERO)
                    .with_dwell(Seconds::new(30.0)),
            ),
        ),
        (
            "training (urgent)",
            sched.submit(TransferRequest::new(
                training,
                1,
                Priority::Urgent,
                Seconds::new(5.0),
            )),
        ),
    ];

    let outcome = sched.try_run()?;
    println!(
        "{:<24} {:>10} {:>12} {:>12} {:>10}",
        "request", "carts", "delivered s", "done s", "energy kJ"
    );
    for (name, id) in ids {
        let r = outcome
            .completed
            .iter()
            .find(|o| o.id == id)
            .expect("all requests complete");
        println!(
            "{:<24} {:>10} {:>12.1} {:>12.1} {:>10.1}",
            name,
            r.deliveries,
            r.delivered.seconds(),
            r.completed.seconds(),
            r.energy.kilojoules()
        );
    }
    println!(
        "\nmakespan {:.0} s, track utilisation {:.0}%, total energy {:.2} MJ",
        outcome.makespan.seconds(),
        outcome.track_utilisation * 100.0,
        outcome.total_energy.megajoules()
    );

    // What if the operator had picked a different discipline? Run the
    // same workload under every candidate policy, one scheduler each.
    let mut placement = Placement::new(Bytes::from_terabytes(256.0));
    let training = placement.store(datasets::laion_5b());
    let analytics = placement.store(datasets::common_crawl());
    let backup = placement.store(datasets::genomics_17pb());
    let requests = [
        TransferRequest::new(backup, 1, Priority::Background, Seconds::ZERO),
        TransferRequest::new(analytics, 1, Priority::Normal, Seconds::ZERO)
            .with_dwell(Seconds::new(30.0)),
        TransferRequest::new(training, 1, Priority::Urgent, Seconds::new(5.0)),
    ];
    println!(
        "\n{:<24} {:>12} {:>12} {:>12}",
        "policy", "makespan s", "util %", "energy MJ"
    );
    let verify = IntegrityAwareness::verification_only(Seconds::new(3.0));
    for (label, policy, integrity) in [
        ("priority FIFO", Policy::PriorityFifo, None),
        ("shortest job first", Policy::ShortestJobFirst, None),
        ("FIFO + verify-on-dock", Policy::PriorityFifo, Some(verify)),
    ] {
        let mut candidate =
            Scheduler::new(SimConfig::paper_default(), placement.clone())?.with_policy(policy);
        if let Some(integrity) = integrity {
            candidate = candidate.with_integrity(integrity);
        }
        for request in requests {
            candidate.submit(request);
        }
        let outcome = candidate.try_run()?;
        println!(
            "{:<24} {:>12.0} {:>12.0} {:>12.2}",
            label,
            outcome.makespan.seconds(),
            outcome.track_utilisation * 100.0,
            outcome.total_energy.megajoules()
        );
    }

    // Availability: mid-transit, the training data is unreadable.
    let t = Seconds::new(10.0);
    println!(
        "\nat t = {:.0} s the training dataset is {:?}",
        t.seconds(),
        sched.availability().state_at(training, t)
    );
    assert_ne!(
        sched.availability().state_at(training, Seconds::new(1e6)),
        DataState::InTransit
    );
    Ok(())
}
