//! Property-based tests for the storage substrate.

use dhl_rng::check::forall;
use dhl_storage::cart::{CartStorage, PcieGeneration, PcieLink};
use dhl_storage::connectors::{ConnectorKind, DockingConnector};
use dhl_storage::datasets::{Dataset, DatasetKind};
use dhl_storage::devices::StorageDevice;
use dhl_storage::failure::{FailureModel, RaidConfig};
use dhl_storage::integrity::CorruptionModel;
use dhl_storage::thermal::ThermalModel;
use dhl_units::{Bytes, Seconds, Watts};

#[test]
fn shards_always_cover_the_dataset() {
    forall("shards_always_cover_the_dataset", 256, |g| {
        let size = g.u64_in(1, 1 << 52);
        let chunk = g.u64_in(1, 1 << 42);
        let d = Dataset {
            name: "prop".into(),
            size: Bytes::new(size),
            kind: DatasetKind::BigData,
        };
        let shards: Vec<Bytes> = d.shards(Bytes::new(chunk)).collect();
        let total: Bytes = shards.iter().sum();
        assert_eq!(total, d.size);
        assert_eq!(shards.len() as u64, size.div_ceil(chunk));
        // every shard but the last is exactly chunk-sized
        for s in &shards[..shards.len().saturating_sub(1)] {
            assert_eq!(s.as_u64(), chunk);
        }
        assert!(shards.last().unwrap().as_u64() <= chunk);
    });
}

#[test]
fn cart_capacity_scales_linearly() {
    forall("cart_capacity_scales_linearly", 256, |g| {
        let n = g.u32_in(1, 1024);
        let cart = CartStorage::new(StorageDevice::sabrent_rocket_4_plus(), n);
        assert_eq!(cart.capacity().as_u64(), u64::from(n) * 8_000_000_000_000);
    });
}

#[test]
fn docked_bandwidth_never_exceeds_either_limit() {
    forall("docked_bandwidth_never_exceeds_either_limit", 256, |g| {
        let n = g.u32_in(1, 256);
        let lanes = g.u32_in(1, 128);
        let cart = CartStorage::new(StorageDevice::sabrent_rocket_4_plus(), n);
        let link = PcieLink::new(PcieGeneration::Gen6, lanes);
        let eff = cart.docked_read_bandwidth(link);
        assert!(eff.value() <= cart.aggregate_read_bandwidth().value() + 1e-6);
        assert!(eff.value() <= link.bandwidth().value() + 1e-6);
    });
}

#[test]
fn failure_probability_is_monotone_in_time() {
    forall("failure_probability_is_monotone_in_time", 256, |g| {
        let afr = g.f64_in(0.0, 0.99);
        let (t1, t2) = (g.f64_in(0.0, 1e9), g.f64_in(0.0, 1e9));
        let m = FailureModel::new(afr);
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        assert!(m.failure_probability(Seconds::new(lo)) <= m.failure_probability(Seconds::new(hi)));
    });
}

#[test]
fn failure_probability_is_a_probability() {
    forall("failure_probability_is_a_probability", 256, |g| {
        let afr = g.f64_in(0.0, 0.999);
        let t = g.f64_in(0.0, 1e12);
        let p = FailureModel::new(afr).failure_probability(Seconds::new(t));
        assert!((0.0..=1.0).contains(&p));
    });
}

#[test]
fn raid_survival_is_monotone_in_parity() {
    forall("raid_survival_is_monotone_in_parity", 256, |g| {
        let data = g.u32_in(1, 64);
        let parity = g.u32_in(0, 16);
        let p = g.f64_in(0.0, 1.0);
        let less = RaidConfig::new(data, parity)
            .unwrap()
            .trip_survival_probability(p);
        let more = RaidConfig::new(data, parity + 1)
            .unwrap()
            .trip_survival_probability(p);
        // Note: adding a parity drive also adds a drive that can fail, but
        // tolerance grows faster than exposure, so survival never drops
        // (both layouts must lose > parity drives, and the larger layout
        // tolerates one more).
        assert!(more >= less - 1e-12);
    });
}

#[test]
fn raid_survival_is_antitone_in_failure_probability() {
    forall(
        "raid_survival_is_antitone_in_failure_probability",
        256,
        |g| {
            // Riskier drives can only hurt: survival is non-increasing in the
            // per-drive trip failure probability for every layout.
            let raid = RaidConfig::new(g.u32_in(1, 64), g.u32_in(0, 16)).unwrap();
            let (p1, p2) = (g.f64_in(0.0, 1.0), g.f64_in(0.0, 1.0));
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let safer = raid.trip_survival_probability(lo);
            let riskier = raid.trip_survival_probability(hi);
            assert!(
                riskier <= safer + 1e-12,
                "survival rose from {safer} to {riskier} as p went {lo} -> {hi}"
            );
            // And both ends pin to certainty.
            assert!((raid.trip_survival_probability(0.0) - 1.0).abs() < 1e-12);
            assert!(raid.trip_survival_probability(1.0) < 1e-12);
        },
    );
}

#[test]
fn raid_survival_composes_with_sanitised_failure_models() {
    forall(
        "raid_survival_composes_with_sanitised_failure_models",
        256,
        |g| {
            // End-to-end over the AFR sanitisation: whatever scalar reaches
            // FailureModel::new (including the non-finite values it now
            // rejects), the composed trip survival stays a probability and
            // keeps both PR-1 monotonicities.
            let afr = match g.u32_in(0, 4) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => g.f64_in(-2.0, 3.0),
                _ => g.f64_in(0.0, 0.999),
            };
            let exposure = Seconds::new(g.f64_in(0.0, 1e9));
            let p = FailureModel::new(afr).failure_probability(exposure);
            assert!((0.0..=1.0).contains(&p), "AFR {afr} gave p {p}");
            let raid = RaidConfig::new(g.u32_in(1, 64), g.u32_in(0, 16)).unwrap();
            let s = raid.trip_survival_probability(p);
            assert!((0.0..=1.0).contains(&s), "AFR {afr} gave survival {s}");
            let more_parity = RaidConfig::new(
                raid.total_drives() - raid.parity_drives(),
                raid.parity_drives() + 1,
            )
            .unwrap()
            .trip_survival_probability(p);
            assert!(more_parity >= s - 1e-12);
        },
    );
}

#[test]
fn corruption_probability_is_a_probability() {
    forall("corruption_probability_is_a_probability", 256, |g| {
        let model = CorruptionModel {
            bit_rot_hazard_per_second: g.f64_in(0.0, 1e-3),
            wear_multiplier: g.f64_in(0.0, 10.0),
            mating_error_per_cycle: g.f64_in(0.0, 1.0),
            thermal_multiplier: g.f64_in(1.0, 10.0),
        };
        assert!(model.validate().is_ok());
        // Inputs deliberately include out-of-range and non-finite values:
        // the model clamps rather than propagates.
        let exposure = match g.u32_in(0, 3) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            _ => g.f64_in(-1e6, 1e7),
        };
        let wear = g.f64_in(-1.0, 3.0);
        let conn = g.f64_in(-1.0, 3.0);
        let p = model.shard_corruption_probability(Seconds::new(exposure), wear, conn);
        assert!((0.0..=1.0).contains(&p), "got {p}");
    });
}

#[test]
fn corruption_probability_is_monotone_in_every_hazard_input() {
    forall(
        "corruption_probability_is_monotone_in_every_hazard_input",
        256,
        |g| {
            let model = CorruptionModel {
                bit_rot_hazard_per_second: g.f64_in(1e-9, 1e-4),
                wear_multiplier: g.f64_in(0.0, 5.0),
                mating_error_per_cycle: g.f64_in(0.0, 0.01),
                thermal_multiplier: g.f64_in(1.0, 6.0),
            };
            let t = g.f64_in(0.0, 1e6);
            let dt = g.f64_in(0.0, 1e6);
            let wear = g.f64_in(0.0, 1.0);
            let dwear = g.f64_in(0.0, 1.0 - wear);
            let conn = g.f64_in(0.0, 1.0);
            let dconn = g.f64_in(0.0, 1.0 - conn);
            let base = model.shard_corruption_probability(Seconds::new(t), wear, conn);
            let eps = 1e-15;
            let longer = model.shard_corruption_probability(Seconds::new(t + dt), wear, conn);
            assert!(longer >= base - eps, "exposure: {base} -> {longer}");
            let worn = model.shard_corruption_probability(Seconds::new(t), wear + dwear, conn);
            assert!(worn >= base - eps, "wear: {base} -> {worn}");
            let frayed = model.shard_corruption_probability(Seconds::new(t), wear, conn + dconn);
            assert!(frayed >= base - eps, "connector: {base} -> {frayed}");
        },
    );
}

#[test]
fn sampled_corruptions_never_exceed_shard_count() {
    forall("sampled_corruptions_never_exceed_shard_count", 128, |g| {
        let model = CorruptionModel {
            bit_rot_hazard_per_second: g.f64_in(0.0, 1e-2),
            wear_multiplier: g.f64_in(0.0, 5.0),
            mating_error_per_cycle: g.f64_in(0.0, 1.0),
            thermal_multiplier: g.f64_in(1.0, 4.0),
        };
        let shards = g.u64_in(0, 512);
        let exposure = Seconds::new(g.f64_in(0.0, 1e9));
        let wear = g.f64_in(0.0, 1.0);
        let conn = g.f64_in(0.0, 1.0);
        let n = model.sample_corrupted_shards(g.rng(), shards, exposure, wear, conn);
        assert!(n <= shards);
    });
}

#[test]
fn raid_usable_capacity_never_exceeds_raw() {
    forall("raid_usable_capacity_never_exceeds_raw", 256, |g| {
        let data = g.u32_in(1, 64);
        let parity = g.u32_in(0, 64);
        let raw = g.u64_in(0, 1 << 50);
        let raid = RaidConfig::new(data, parity).unwrap();
        assert!(raid.usable_capacity(Bytes::new(raw)) <= Bytes::new(raw));
    });
}

#[test]
fn thermal_limit_is_monotone_in_budget() {
    forall("thermal_limit_is_monotone_in_budget", 256, |g| {
        let (w1, w2) = (g.f64_in(0.0, 10_000.0), g.f64_in(0.0, 10_000.0));
        let (lo, hi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
        let cart = CartStorage::paper_large();
        let a = ThermalModel::new(Watts::new(lo), 0.9).max_concurrent_ssds(&cart);
        let b = ThermalModel::new(Watts::new(hi), 0.9).max_concurrent_ssds(&cart);
        assert!(a <= b);
    });
}

#[test]
fn connector_wear_is_exact() {
    forall("connector_wear_is_exact", 64, |g| {
        let kind = if g.bool() {
            ConnectorKind::M2
        } else {
            ConnectorKind::UsbC
        };
        let cycles = g.u32_in(0, 500);
        let mut conn = DockingConnector::new(kind);
        let mut succeeded = 0u32;
        for _ in 0..cycles {
            if conn.mate().is_ok() {
                succeeded += 1;
            }
        }
        assert_eq!(succeeded, cycles.min(kind.rated_cycles()));
        assert_eq!(conn.cycles_used(), succeeded);
    });
}
