//! Engine event-throughput benches: queue churn against the reference
//! heap, full-system steady state, the checkpoint-heavy variant, and the
//! launch-backlog scaling check on a 16-rack campus. The
//! same cases run inside `report --json`, where the CI gate checks them
//! under the `sim/events_per_sec` prefix.

fn main() {
    let cases = dhl_bench::events_per_sec_cases();
    assert!(cases.iter().all(|c| c.result.mean_ns > 0.0));
}
