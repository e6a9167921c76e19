//! The DLRM training-iteration model (§IV-E).
//!
//! The paper trains "a DLRM ML model as used by Meta with their 29 PB data
//! set" and reports the time per gradient-descent iteration as a function of
//! communication power. One iteration ingests the full training shard set
//! and performs the model computations; ASTRA-sim overlaps computation with
//! communication and adds per-iteration collective/compute overhead.
//!
//! ASTRA-sim itself is not reproducible from the paper, so we model the
//! iteration as an affine function of the communication (ingest) time:
//!
//! ```text
//! T_iter = overlap · T_comm + overhead
//! ```
//!
//! with `overlap = 0.9272` and `overhead = 303 s`, calibrated by a
//! least-squares fit to the five published optical points of Table VII(a)
//! (A0 7680 s … C 159 000 s at 1.75 kW). The fit reproduces those five
//! points within 0.5 %; every DHL number is then *derived*, not fitted.

use dhl_units::{Bytes, Seconds};

/// A distributed-training workload whose iteration time is dominated by
/// ingesting a fixed dataset plus fixed per-iteration work.
#[derive(Clone, PartialEq, Debug)]
pub struct DlrmWorkload {
    /// Training data ingested per iteration.
    pub dataset: Bytes,
    /// Fraction of communication time exposed after compute overlap.
    pub comm_overlap: f64,
    /// Fixed per-iteration overhead (collectives + compute tail).
    pub fixed_overhead: Seconds,
}

impl DlrmWorkload {
    /// Communication-overlap factor fitted to Table VII(a)'s optical points.
    pub const PAPER_COMM_OVERLAP: f64 = 0.9272;
    /// Fixed overhead fitted to Table VII(a)'s optical points.
    pub const PAPER_FIXED_OVERHEAD: Seconds = Seconds::new(303.0);

    /// The paper's workload: Meta's 29 PB DLRM dataset with the calibrated
    /// overlap model.
    #[must_use]
    pub fn paper_dlrm() -> Self {
        Self {
            dataset: Bytes::from_petabytes(29.0),
            comm_overlap: Self::PAPER_COMM_OVERLAP,
            fixed_overhead: Self::PAPER_FIXED_OVERHEAD,
        }
    }

    /// Iteration time given the fabric's dataset delivery time.
    #[must_use]
    pub fn iteration_time(&self, comm_time: Seconds) -> Seconds {
        comm_time * self.comm_overlap + self.fixed_overhead
    }
}

impl Default for DlrmWorkload {
    fn default() -> Self {
        Self::paper_dlrm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workload_parameters() {
        let w = DlrmWorkload::paper_dlrm();
        assert_eq!(w.dataset.petabytes(), 29.0);
        assert!((w.comm_overlap - 0.9272).abs() < 1e-12);
        assert_eq!(w.fixed_overhead.seconds(), 303.0);
    }

    #[test]
    fn iteration_time_is_affine() {
        let w = DlrmWorkload::paper_dlrm();
        let t0 = w.iteration_time(Seconds::ZERO).seconds();
        let t1 = w.iteration_time(Seconds::new(1000.0)).seconds();
        let t2 = w.iteration_time(Seconds::new(2000.0)).seconds();
        assert_eq!(t0, 303.0);
        assert!(((t2 - t1) - (t1 - t0)).abs() < 1e-9);
    }

    #[test]
    fn calibration_reproduces_published_optical_points() {
        // Table VII(a): at 1.75 kW, route X affords 1750/P_X links and the
        // paper reports these iteration times.
        let w = DlrmWorkload::paper_dlrm();
        let cases: [(f64, f64); 5] = [
            (24.0, 7_680.0),       // A0
            (39.6, 12_500.0),      // A1
            (86.2875, 26_900.0),   // A2
            (301.2875, 93_300.0),  // B
            (516.2875, 159_000.0), // C
        ];
        for (route_power, paper_time) in cases {
            let links = 1750.0 / route_power;
            let comm = 580_000.0 / links;
            let t = w.iteration_time(Seconds::new(comm)).seconds();
            assert!(
                (t - paper_time).abs() / paper_time < 0.005,
                "route at {route_power} W: {t} vs paper {paper_time}"
            );
        }
    }
}
