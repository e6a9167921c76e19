//! Error type for invalid physical configurations.

use core::fmt;

/// An invalid physical parameter or configuration.
///
/// Returned by fallible constructors throughout `dhl-physics`; each variant
/// carries the offending value so callers can report actionable messages.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum PhysicsError {
    /// An efficiency must lie in `(0, 1]`.
    InvalidEfficiency {
        /// The rejected value.
        value: f64,
    },
    /// A quantity that must be strictly positive was not.
    NonPositive {
        /// Which parameter was rejected.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A quantity fell outside the range it must lie in (an infinite speed
    /// or mass, a negative or non-finite duration).
    OutOfRange {
        /// Which parameter was rejected.
        what: &'static str,
        /// The rejected value.
        value: f64,
        /// The range it must lie in, in words.
        range: &'static str,
    },
    /// Mass fractions (magnets + fin) must sum to less than 1 so the payload
    /// and frame have non-zero budget.
    MassFractionsTooLarge {
        /// Sum of the configured fractions.
        sum: f64,
    },
    /// The track is shorter than the distance the LIM needs to reach (and
    /// shed) the requested cruise speed.
    TrackTooShort {
        /// Track length in metres.
        track: f64,
        /// Required ramp distance in metres.
        required: f64,
    },
    /// A regenerative-braking recovery fraction outside the literature's
    /// 16–70 % range (§VI).
    RecoveryOutOfRange {
        /// The rejected fraction.
        value: f64,
    },
}

impl fmt::Display for PhysicsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidEfficiency { value } => {
                write!(f, "efficiency must be in (0, 1], got {value}")
            }
            Self::NonPositive { what, value } => {
                write!(f, "{what} must be strictly positive, got {value}")
            }
            Self::OutOfRange { what, value, range } => {
                write!(f, "{what} must be {range}, got {value}")
            }
            Self::MassFractionsTooLarge { sum } => {
                write!(f, "magnet + fin mass fractions must sum below 1, got {sum}")
            }
            Self::TrackTooShort { track, required } => write!(
                f,
                "track of {track} m is shorter than the {required} m needed to accelerate and brake"
            ),
            Self::RecoveryOutOfRange { value } => write!(
                f,
                "regenerative recovery fraction must be within [0.16, 0.70], got {value}"
            ),
        }
    }
}

impl std::error::Error for PhysicsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = PhysicsError::InvalidEfficiency { value: 1.5 };
        assert_eq!(format!("{e}"), "efficiency must be in (0, 1], got 1.5");
        let e = PhysicsError::TrackTooShort {
            track: 10.0,
            required: 40.0,
        };
        assert!(format!("{e}").contains("10 m"));
        let e = PhysicsError::MassFractionsTooLarge { sum: 1.2 };
        assert!(format!("{e}").contains("1.2"));
    }

    #[test]
    fn implements_std_error() {
        fn takes_error<E: std::error::Error + Send + Sync>(_: E) {}
        takes_error(PhysicsError::NonPositive {
            what: "mass",
            value: 0.0,
        });
    }
}
