//! Strongly-typed physical quantities for the DHL models.
//!
//! Every model in this workspace computes with dimensioned newtypes rather
//! than bare `f64`s, so a joule can never be added to a watt and a decimal
//! terabyte can never be confused with a tebibyte ([C-NEWTYPE]).
//!
//! The two families of types are:
//!
//! - [`Bytes`]: an exact, integer byte count with decimal (`GB`..`PB`)
//!   constructors. The paper uses decimal units throughout
//!   (1 TB = 10¹² B), and so do we.
//! - `f64`-backed scalar quantities ([`Seconds`], [`Metres`], [`Joules`],
//!   [`Watts`], [`Kilograms`], [`Newtons`], [`MetresPerSecond`],
//!   [`MetresPerSecondSquared`], [`BytesPerSecond`], [`GigabitsPerSecond`],
//!   [`Usd`]) with physically meaningful cross-type arithmetic
//!   (`Watts * Seconds = Joules`, `Metres / MetresPerSecond = Seconds`, …).
//!
//! # Examples
//!
//! ```rust
//! use dhl_units::{Bytes, GigabitsPerSecond, Joules, Seconds, Watts};
//!
//! // 29 PB over a 400 Gb/s optical link takes 580 000 s (6.71 days):
//! let dataset = Bytes::from_petabytes(29.0);
//! let link = GigabitsPerSecond::new(400.0);
//! let time = link.transfer_time(dataset);
//! assert!((time.seconds() - 580_000.0).abs() < 1.0);
//!
//! // Two 12 W transceivers running for the whole transfer burn 13.92 MJ:
//! let energy: Joules = Watts::new(24.0) * time;
//! assert!((energy.megajoules() - 13.92).abs() < 0.001);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[macro_use]
mod macros;

mod bandwidth;
mod bytes;
mod kinematics;
mod money;
mod power;

pub use bandwidth::{BytesPerSecond, GigabitsPerSecond, GigabytesPerJoule};
pub use bytes::{Bytes, GIGABYTE, KILOBYTE, MEGABYTE, PETABYTE, TERABYTE};
pub use kinematics::{
    kinetic_energy, Kilograms, Metres, MetresPerSecond, MetresPerSecondSquared, Newtons,
};
pub use money::Usd;
pub use power::{Joules, Seconds, Watts};

/// Standard gravitational acceleration, used by the levitation drag model.
pub const STANDARD_GRAVITY: MetresPerSecondSquared = MetresPerSecondSquared::new(9.806_65);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gravity_is_standard() {
        assert!((STANDARD_GRAVITY.value() - 9.80665).abs() < 1e-12);
    }

    #[test]
    fn quantities_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Bytes>();
        assert_send_sync::<Seconds>();
        assert_send_sync::<Joules>();
        assert_send_sync::<Watts>();
        assert_send_sync::<Metres>();
        assert_send_sync::<MetresPerSecond>();
        assert_send_sync::<MetresPerSecondSquared>();
        assert_send_sync::<Kilograms>();
        assert_send_sync::<Newtons>();
        assert_send_sync::<BytesPerSecond>();
        assert_send_sync::<GigabitsPerSecond>();
        assert_send_sync::<GigabytesPerJoule>();
        assert_send_sync::<Usd>();
    }
}
