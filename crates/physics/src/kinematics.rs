//! Trip kinematics: velocity profiles over the track (§IV-A, Table VI).

use dhl_units::{Metres, MetresPerSecond, MetresPerSecondSquared, Seconds};

use crate::PhysicsError;

/// Which trip-time accounting to use.
///
/// The paper's Table VI times are consistent with counting the ramp overhead
/// **once** (`T = L/v + v/2a`): 8.6 s for 200 m/s over 500 m, 7.8 s for
/// 300 m/s. A full symmetric trapezoid (accelerate, cruise, decelerate)
/// gives `T = L/v + v/a`; the deceleration ramp's overhead is presumably
/// absorbed into the generous 3 s docking allowance. Both are provided; the
/// paper-matching variant is the default.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum TimeModel {
    /// `T_motion = L/v + v/(2a)` — matches every row of Table VI.
    #[default]
    PaperSingleRamp,
    /// `T_motion = L/v + v/a` — full symmetric trapezoidal profile.
    FullTrapezoid,
}

/// Kinematics of one cart trip down a track.
///
/// # Examples
///
/// ```rust
/// use dhl_physics::{TimeModel, TripKinematics};
/// use dhl_units::{Metres, MetresPerSecond, MetresPerSecondSquared};
///
/// let kin = TripKinematics::new(
///     Metres::new(500.0),
///     MetresPerSecond::new(200.0),
///     MetresPerSecondSquared::new(1000.0),
/// ).unwrap();
/// // Table VI row 2: motion takes 2.6 s (8.6 s including 6 s of docking).
/// assert!((kin.motion_time(TimeModel::PaperSingleRamp).seconds() - 2.6).abs() < 1e-12);
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct TripKinematics {
    track_length: Metres,
    cruise_speed: MetresPerSecond,
    acceleration: MetresPerSecondSquared,
}

/// Per-phase breakdown of a full trapezoidal trip, from
/// [`TripKinematics::phases`].
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct MotionPhases {
    /// Time on the acceleration ramp (`v/a`).
    pub accel_time: Seconds,
    /// Distance covered on the acceleration ramp (`v²/2a`).
    pub accel_distance: Metres,
    /// Time cruising at top speed.
    pub cruise_time: Seconds,
    /// Distance cruised at top speed.
    pub cruise_distance: Metres,
    /// Time on the deceleration ramp (symmetric with acceleration).
    pub decel_time: Seconds,
    /// Distance covered on the deceleration ramp.
    pub decel_distance: Metres,
}

impl MotionPhases {
    /// Total trip time across all phases.
    #[must_use]
    pub fn total_time(&self) -> Seconds {
        self.accel_time + self.cruise_time + self.decel_time
    }

    /// Total distance across all phases.
    #[must_use]
    pub fn total_distance(&self) -> Metres {
        self.accel_distance + self.cruise_distance + self.decel_distance
    }
}

impl TripKinematics {
    /// Describes a trip of `track_length` at `cruise_speed`, ramping at
    /// `acceleration`.
    ///
    /// # Errors
    ///
    /// - [`PhysicsError::NonPositive`] if any argument is not positive;
    /// - [`PhysicsError::TrackTooShort`] if the track cannot fit both the
    ///   acceleration and deceleration ramps (`L < v²/a`).
    pub fn new(
        track_length: Metres,
        cruise_speed: MetresPerSecond,
        acceleration: MetresPerSecondSquared,
    ) -> Result<Self, PhysicsError> {
        for (what, value) in [
            ("track length", track_length.value()),
            ("cruise speed", cruise_speed.value()),
            ("acceleration", acceleration.value()),
        ] {
            if value.is_nan() || value <= 0.0 {
                return Err(PhysicsError::NonPositive { what, value });
            }
        }
        let ramps = cruise_speed.value() * cruise_speed.value() / acceleration.value();
        if ramps > track_length.value() {
            return Err(PhysicsError::TrackTooShort {
                track: track_length.value(),
                required: ramps,
            });
        }
        Ok(Self {
            track_length,
            cruise_speed,
            acceleration,
        })
    }

    /// Track length of this trip.
    #[must_use]
    pub fn track_length(&self) -> Metres {
        self.track_length
    }

    /// Cruise (maximum) speed of this trip.
    #[must_use]
    pub fn cruise_speed(&self) -> MetresPerSecond {
        self.cruise_speed
    }

    /// Ramp acceleration of this trip.
    #[must_use]
    pub fn acceleration(&self) -> MetresPerSecondSquared {
        self.acceleration
    }

    /// Motion time (excluding docking) under the chosen [`TimeModel`].
    #[must_use]
    pub fn motion_time(&self, model: TimeModel) -> Seconds {
        let base = self.track_length / self.cruise_speed;
        let ramp_overhead = self.cruise_speed / self.acceleration;
        match model {
            TimeModel::PaperSingleRamp => base + ramp_overhead * 0.5,
            TimeModel::FullTrapezoid => base + ramp_overhead,
        }
    }

    /// Full per-phase breakdown of the symmetric trapezoidal profile.
    ///
    /// `phases().total_time()` equals
    /// `motion_time(TimeModel::FullTrapezoid)` and
    /// `phases().total_distance()` equals the track length.
    #[must_use]
    pub fn phases(&self) -> MotionPhases {
        let ramp_time = self.cruise_speed / self.acceleration;
        let ramp_distance = Metres::new(
            self.cruise_speed.value() * self.cruise_speed.value()
                / (2.0 * self.acceleration.value()),
        );
        let cruise_distance = self.track_length - ramp_distance - ramp_distance;
        MotionPhases {
            accel_time: ramp_time,
            accel_distance: ramp_distance,
            cruise_time: cruise_distance / self.cruise_speed,
            cruise_distance,
            decel_time: ramp_time,
            decel_distance: ramp_distance,
        }
    }

    /// Average speed over the whole track under the chosen model.
    #[must_use]
    pub fn average_speed(&self, model: TimeModel) -> MetresPerSecond {
        self.track_length / self.motion_time(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kin(l: f64, v: f64) -> TripKinematics {
        TripKinematics::new(
            Metres::new(l),
            MetresPerSecond::new(v),
            MetresPerSecondSquared::new(1000.0),
        )
        .unwrap()
    }

    #[test]
    fn paper_motion_times_match_table_vi() {
        // Table VI trip times minus the 6 s docking allowance.
        let cases = [
            (500.0, 100.0, 5.05),
            (500.0, 200.0, 2.6),
            (500.0, 300.0, 1.8166666666666667),
            (100.0, 200.0, 0.6),
            (1000.0, 200.0, 5.1),
        ];
        for (l, v, expect) in cases {
            let t = kin(l, v).motion_time(TimeModel::PaperSingleRamp).seconds();
            assert!(
                (t - expect).abs() < 1e-12,
                "length {l} speed {v}: got {t}, expected {expect}"
            );
        }
    }

    #[test]
    fn trapezoid_adds_one_more_half_ramp() {
        let k = kin(500.0, 200.0);
        let single = k.motion_time(TimeModel::PaperSingleRamp).seconds();
        let full = k.motion_time(TimeModel::FullTrapezoid).seconds();
        assert!((full - single - 0.1).abs() < 1e-12); // v/2a = 0.1 s
    }

    #[test]
    fn phases_are_self_consistent() {
        let k = kin(500.0, 200.0);
        let p = k.phases();
        assert!((p.total_distance().value() - 500.0).abs() < 1e-9);
        assert!(
            (p.total_time().seconds() - k.motion_time(TimeModel::FullTrapezoid).seconds()).abs()
                < 1e-12
        );
        assert_eq!(p.accel_distance.value(), 20.0);
        assert_eq!(p.decel_distance.value(), 20.0);
        assert_eq!(p.cruise_distance.value(), 460.0);
        assert!((p.cruise_time.seconds() - 2.3).abs() < 1e-12);
    }

    #[test]
    fn track_exactly_two_ramps_has_zero_cruise() {
        // 200 m/s at 1000 m/s² needs 40 m for both ramps.
        let k = kin(40.0, 200.0);
        let p = k.phases();
        assert!(p.cruise_distance.value().abs() < 1e-9);
        assert!(p.cruise_time.seconds().abs() < 1e-9);
    }

    #[test]
    fn too_short_track_is_rejected() {
        let err = TripKinematics::new(
            Metres::new(39.9),
            MetresPerSecond::new(200.0),
            MetresPerSecondSquared::new(1000.0),
        )
        .unwrap_err();
        assert!(matches!(err, PhysicsError::TrackTooShort { .. }));
    }

    #[test]
    fn non_positive_inputs_are_rejected() {
        for (l, v, a) in [
            (0.0, 200.0, 1000.0),
            (500.0, 0.0, 1000.0),
            (500.0, 200.0, 0.0),
        ] {
            assert!(TripKinematics::new(
                Metres::new(l),
                MetresPerSecond::new(v),
                MetresPerSecondSquared::new(a),
            )
            .is_err());
        }
    }

    #[test]
    fn average_speed_is_below_cruise_speed() {
        let k = kin(500.0, 200.0);
        for model in [TimeModel::PaperSingleRamp, TimeModel::FullTrapezoid] {
            let avg = k.average_speed(model).value();
            assert!(avg < 200.0);
            assert!(avg > 150.0);
        }
    }

    #[test]
    fn default_time_model_is_paper() {
        assert_eq!(TimeModel::default(), TimeModel::PaperSingleRamp);
    }
}
