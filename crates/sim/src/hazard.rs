//! The hazard model that [`crate::DhlSystem`], the scheduler's serve loop
//! and [`crate::api::DhlApi`] share: one seeding rule for the three hazard
//! streams ([`HazardStreams::new`]), and one draw per hazard on its spec.

use dhl_rng::{DeterministicRng, Rng};
use dhl_units::{Bytes, Joules, Seconds};

use crate::config::{DockControllerFaultSpec, IntegritySpec, ReliabilitySpec, SimConfig};

/// The seeded hazard streams of one run; each is present when its spec is.
#[derive(Clone, Debug)]
pub struct HazardStreams {
    /// In-flight SSD failures, seeded by `SimConfig::reliability`'s seed.
    pub reliability: Option<DeterministicRng>,
    /// Stalls, leaks and dock-controller crashes (`SimConfig::faults`),
    /// seeded by the reliability seed (0 without one) XOR a constant, so
    /// fault injection never perturbs SSD-failure sampling.
    pub fault: Option<DeterministicRng>,
    /// Silent corruption, seeded by `SimConfig::integrity`'s seed.
    pub integrity: Option<DeterministicRng>,
}

impl HazardStreams {
    /// The streams a run under `cfg` starts from.
    #[must_use]
    pub fn new(cfg: &SimConfig) -> Self {
        let reliability_seed = cfg.reliability.as_ref().map(|r| r.seed);
        Self {
            reliability: reliability_seed.map(DeterministicRng::seed_from_u64),
            fault: cfg.faults.as_ref().map(|_| {
                let seed = reliability_seed.unwrap_or(0);
                DeterministicRng::seed_from_u64(seed ^ 0xFA17_1A7E_D051_C0DE)
            }),
            integrity: (cfg.integrity.as_ref()).map(|i| DeterministicRng::seed_from_u64(i.seed)),
        }
    }
}

impl ReliabilitySpec {
    /// The SSDs one movement loses over `exposure`, and whether that is
    /// more than the RAID layout tolerates (the payload is lost).
    pub fn sample_in_flight(&self, rng: &mut impl Rng, exposure: Seconds) -> (u32, bool) {
        let failed = (self.failure).sample_failures(rng, self.ssds_per_cart, exposure);
        (failed, !self.raid.tolerates(failed))
    }
}

impl DockControllerFaultSpec {
    /// One loaded rack docking: `None` if the controller holds, else the
    /// recovery latency for a cart carrying `payload` and the energy the
    /// recovery draws.
    pub fn sample_crash(&self, rng: &mut impl Rng, payload: Bytes) -> Option<(Seconds, Joules)> {
        if !rng.random_bool(self.crash_probability_per_docking) {
            return None;
        }
        let downtime = self.recovery_time(payload);
        Some((downtime, self.recovery_power * downtime))
    }
}

/// What verify-on-dock costs one delivery, before its verdict.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Scrub {
    /// Shards checksummed.
    pub shards: u64,
    /// Dock time the scrub takes.
    pub time: Seconds,
    /// Energy the scrub draws.
    pub energy: Joules,
}

/// The verdict on a scrubbed delivery.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum Verdict {
    /// Every shard verified.
    Clean,
    /// Corruption within RAID tolerance, rebuilt at the dock in this time.
    Rebuilt(Seconds),
    /// Corruption beyond RAID tolerance: the payload must be reshipped.
    Reshipped,
}

impl IntegritySpec {
    /// Checksum granularity: a fully loaded cart of `cart_capacity` splits
    /// into `shards_per_cart` equal shards.
    fn shard_size(&self, cart_capacity: Bytes) -> Bytes {
        Bytes::new((cart_capacity.as_u64() / u64::from(self.shards_per_cart)).max(1))
    }

    /// The scrub of a delivered `payload`, on carts of `cart_capacity`.
    #[must_use]
    pub fn scrub(&self, payload: Bytes, cart_capacity: Bytes) -> Scrub {
        let time = Seconds::new(payload.as_f64() / self.verify_bandwidth_bytes_per_second);
        Scrub {
            shards: payload.div_ceil(self.shard_size(cart_capacity)),
            time,
            energy: self.verify_power * time,
        }
    }

    /// Draws how many of a scrub's `shards` a trip of `trip_time` corrupted,
    /// at the cart's NAND `wear` and `connector_wear` fractions, and judges
    /// them against the RAID layout.
    pub fn verdict(
        &self,
        rng: &mut impl Rng,
        shards: u64,
        trip_time: Seconds,
        wear: f64,
        connector_wear: f64,
        cart_capacity: Bytes,
    ) -> (u64, Verdict) {
        let corrupted =
            (self.corruption).sample_corrupted_shards(rng, shards, trip_time, wear, connector_wear);
        let verdict = if corrupted == 0 {
            Verdict::Clean
        } else if u32::try_from(corrupted).is_ok_and(|c| self.raid.tolerates(c)) {
            let rebuilt_bytes = corrupted as f64 * self.shard_size(cart_capacity).as_f64();
            Verdict::Rebuilt(Seconds::new(
                rebuilt_bytes / self.reconstruct_bandwidth_bytes_per_second,
            ))
        } else {
            Verdict::Reshipped
        };
        (corrupted, verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultSpec;
    use dhl_storage::failure::RaidConfig;
    use dhl_storage::integrity::CorruptionModel;
    use dhl_units::Watts;

    #[test]
    fn the_fault_stream_is_seeded_from_the_reliability_seed() {
        let mut cfg = SimConfig::paper_default();
        cfg.faults = Some(FaultSpec::recovery_only());
        let seeded = |cfg: &SimConfig| HazardStreams::new(cfg).fault.unwrap().state();
        let unseeded = seeded(&cfg);
        cfg.reliability = Some(ReliabilitySpec {
            seed: 9,
            ..ReliabilitySpec::typical()
        });
        assert_eq!(
            seeded(&cfg),
            DeterministicRng::seed_from_u64(9 ^ 0xFA17_1A7E_D051_C0DE).state()
        );
        assert_ne!(seeded(&cfg), unseeded);
        let streams = HazardStreams::new(&SimConfig::paper_default());
        assert!(streams.reliability.is_none() && streams.fault.is_none());
        assert!(streams.integrity.is_none());
    }

    #[test]
    fn a_crash_charges_its_recovery_at_the_recovery_power() {
        let mut rng = DeterministicRng::seed_from_u64(1);
        let payload = Bytes::from_terabytes(256.0);
        let sure = DockControllerFaultSpec {
            crash_probability_per_docking: 1.0,
            recovery_power: Watts::new(100.0),
            ..DockControllerFaultSpec::rebuild_from_scan()
        };
        let (time, energy) = sure.sample_crash(&mut rng, payload).unwrap();
        assert!((time.seconds() - 32_000.0).abs() < 1e-6);
        assert!((energy.value() - 3.2e6).abs() < 1e-3);
        let never = DockControllerFaultSpec {
            crash_probability_per_docking: 0.0,
            ..sure
        };
        assert_eq!(never.sample_crash(&mut rng, payload), None);
    }

    #[test]
    fn verdicts_split_at_the_raid_tolerance() {
        let cap = Bytes::from_terabytes(256.0);
        let spec = |p: f64, parity: u32| IntegritySpec {
            corruption: CorruptionModel {
                mating_error_per_cycle: p,
                ..CorruptionModel::disabled()
            },
            raid: RaidConfig::new(32, parity).expect("valid layout"),
            ..IntegritySpec::typical()
        };
        let scrub = spec(0.0, 0).scrub(cap, cap);
        assert_eq!(scrub.shards, 32);
        assert!((scrub.time.seconds() - 4_000.0).abs() < 1e-9);
        assert!((scrub.energy.value() - 320.0 * 4_000.0).abs() < 1e-6);
        assert_eq!(spec(0.0, 0).scrub(Bytes::ZERO, cap).shards, 0);

        let mut rng = DeterministicRng::seed_from_u64(2);
        let trip = Seconds::new(8.6);
        let verdict = |p, parity, rng: &mut DeterministicRng| {
            spec(p, parity).verdict(rng, 32, trip, 0.0, 0.0, cap)
        };
        assert_eq!(verdict(0.0, 0, &mut rng), (0, Verdict::Clean));
        assert_eq!(verdict(1.0, 0, &mut rng), (32, Verdict::Reshipped));
        // 32 shards of 8 TB at 16 GB/s.
        let rebuild = Seconds::new(32.0 * 8e12 / 16e9);
        assert_eq!(verdict(1.0, 32, &mut rng), (32, Verdict::Rebuilt(rebuild)));
    }
}
