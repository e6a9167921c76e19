//! Property-based tests for the management-software layer.

use dhl_rng::check::{forall, Gen};
use dhl_sched::placement::Placement;
use dhl_sched::scheduler::{FaultAwareness, Priority, Scheduler, TransferRequest};
use dhl_sim::SimConfig;
use dhl_storage::datasets::{Dataset, DatasetKind};
use dhl_units::{Bytes, Seconds};

fn dataset(tb: f64) -> Dataset {
    Dataset {
        name: "prop".into(),
        size: Bytes::from_terabytes(tb),
        kind: DatasetKind::BigData,
    }
}

fn sizes(g: &mut Gen, max_len: usize, lo: f64, hi: f64) -> Vec<f64> {
    let n = g.usize_in(1, max_len);
    (0..n).map(|_| g.f64_in(lo, hi)).collect()
}

#[test]
fn placement_carts_cover_any_dataset() {
    forall("placement_carts_cover_any_dataset", 48, |g| {
        let tb = g.f64_in(1.0, 50_000.0);
        let mut p = Placement::new(Bytes::from_terabytes(256.0));
        let id = p.store(dataset(tb));
        let carts = p.carts_of(id).unwrap();
        let total: Bytes = carts.iter().map(|c| p.contents_of(*c).unwrap().bytes).sum();
        assert_eq!(total, Bytes::from_terabytes(tb));
        assert_eq!(
            carts.len() as u64,
            Bytes::from_terabytes(tb).div_ceil(Bytes::from_terabytes(256.0))
        );
    });
}

#[test]
fn store_evict_store_reuses_slots() {
    forall("store_evict_store_reuses_slots", 48, |g| {
        let sizes = sizes(g, 8, 1.0, 5_000.0);
        let mut p = Placement::new(Bytes::from_terabytes(256.0));
        let ids: Vec<_> = sizes.iter().map(|&tb| p.store(dataset(tb))).collect();
        let peak = p.cart_count();
        for id in &ids {
            assert!(p.evict(*id));
        }
        assert_eq!(p.occupied_carts(), 0);
        // Restoring the same datasets never grows the pool.
        for &tb in &sizes {
            let _ = p.store(dataset(tb));
        }
        assert_eq!(p.cart_count(), peak);
    });
}

#[test]
fn schedule_serialises_without_overlap() {
    forall("schedule_serialises_without_overlap", 48, |g| {
        let sizes = sizes(g, 5, 1.0, 2_000.0);
        let mut p = Placement::new(Bytes::from_terabytes(256.0));
        let ids: Vec<_> = sizes.iter().map(|&tb| p.store(dataset(tb))).collect();
        let mut sched = Scheduler::new(SimConfig::paper_default(), p).unwrap();
        for id in &ids {
            sched.submit(TransferRequest::new(
                *id,
                1,
                Priority::Normal,
                Seconds::ZERO,
            ));
        }
        let out = sched.try_run().expect("valid requests");
        assert_eq!(out.completed.len(), ids.len());
        // Total track time equals movements × trip time (serial track, no
        // dwell): utilisation is 100 % and makespan = Σ movements × 8.6 s.
        let total_movements: u64 = out.completed.iter().map(|o| 2 * o.deliveries).sum();
        assert!((out.makespan.seconds() - total_movements as f64 * 8.6).abs() < 1e-6);
        assert!((out.track_utilisation - 1.0).abs() < 1e-9);
    });
}

#[test]
fn priorities_always_finish_urgent_first() {
    forall("priorities_always_finish_urgent_first", 48, |g| {
        let urgent_tb = g.f64_in(1.0, 500.0);
        let background_tb = g.f64_in(1.0, 500.0);
        let mut p = Placement::new(Bytes::from_terabytes(256.0));
        let u = p.store(dataset(urgent_tb));
        let b = p.store(dataset(background_tb));
        let mut sched = Scheduler::new(SimConfig::paper_default(), p).unwrap();
        let bid = sched.submit(TransferRequest::new(
            b,
            1,
            Priority::Background,
            Seconds::ZERO,
        ));
        let uid = sched.submit(TransferRequest::new(u, 1, Priority::Urgent, Seconds::ZERO));
        let out = sched.try_run().expect("valid requests");
        let pos = |id| out.completed.iter().position(|o| o.id == id).unwrap();
        assert!(out.completed[pos(uid)].started <= out.completed[pos(bid)].started);
    });
}

#[test]
fn makespan_is_at_least_the_largest_request() {
    forall("makespan_is_at_least_the_largest_request", 48, |g| {
        let sizes = sizes(g, 6, 1.0, 3_000.0);
        let mut p = Placement::new(Bytes::from_terabytes(256.0));
        let ids: Vec<_> = sizes.iter().map(|&tb| p.store(dataset(tb))).collect();
        let mut sched = Scheduler::new(SimConfig::paper_default(), p).unwrap();
        for id in ids {
            sched.submit(TransferRequest::new(id, 1, Priority::Normal, Seconds::ZERO));
        }
        let out = sched.try_run().expect("valid requests");
        let max_single = sizes
            .iter()
            .map(|&tb| Bytes::from_terabytes(tb).div_ceil(Bytes::from_terabytes(256.0)))
            .max()
            .unwrap();
        assert!(out.makespan.seconds() >= (2 * max_single) as f64 * 8.6 - 1e-6);
    });
}

#[test]
fn transit_time_is_bounded_by_makespan() {
    forall("transit_time_is_bounded_by_makespan", 48, |g| {
        let tb = g.f64_in(1.0, 3_000.0);
        let mut p = Placement::new(Bytes::from_terabytes(256.0));
        let id = p.store(dataset(tb));
        let mut sched = Scheduler::new(SimConfig::paper_default(), p).unwrap();
        sched.submit(TransferRequest::new(id, 1, Priority::Normal, Seconds::ZERO));
        let out = sched.try_run().expect("valid requests");
        let transit = sched.availability().total_transit_time(id);
        assert!(transit.seconds() <= out.makespan.seconds() + 1e-6);
        assert!(transit.seconds() > 0.0);
    });
}

#[test]
fn lossy_schedules_never_lose_deliveries_within_budget() {
    forall(
        "lossy_schedules_never_lose_deliveries_within_budget",
        24,
        |g| {
            // Shard losses below the retry budget must never shrink the
            // delivered byte count — retries extend the schedule instead.
            let tb = g.f64_in(256.0, 2_000.0);
            let loss = g.f64_in(0.0, 0.5);
            let seed = g.u64_in(0, u64::MAX);
            let mut p = Placement::new(Bytes::from_terabytes(256.0));
            let id = p.store(dataset(tb));
            let mut sched = Scheduler::new(SimConfig::paper_default(), p)
                .unwrap()
                .with_faults(FaultAwareness {
                    loss_probability: loss,
                    max_attempts: u32::MAX,
                    seed,
                    downtime: Vec::new(),
                });
            sched.submit(TransferRequest::new(id, 1, Priority::Normal, Seconds::ZERO));
            let out = sched.try_run().expect("valid requests");
            let o = &out.completed[0];
            assert_eq!(o.abandoned, 0);
            let shards = Bytes::from_terabytes(tb).div_ceil(Bytes::from_terabytes(256.0));
            assert_eq!(o.deliveries, shards);
            // Every redelivery adds a full round trip to the makespan.
            assert!(out.makespan.seconds() >= (2 * (shards + o.redeliveries)) as f64 * 8.6 - 1e-6);
        },
    );
}
