//! Design-space exploration driver (§V-A, Table VI).

use dhl_units::{Bytes, Metres, MetresPerSecond};

use crate::bulk::{paper_dataset, BulkComparison};
use crate::config::DhlConfig;
use crate::launch::LaunchMetrics;

/// One evaluated design point: parameters, single-launch metrics, and the
/// bulk-transfer comparison.
#[derive(Clone, PartialEq, Debug)]
pub struct DsePoint {
    /// The design point's parameters.
    pub config: DhlConfig,
    /// Table VI's left half for this point.
    pub launch: LaunchMetrics,
    /// Table VI's right half for this point.
    pub comparison: BulkComparison,
}

impl DsePoint {
    /// Evaluates one design point against `dataset`.
    #[must_use]
    pub fn evaluate(config: DhlConfig, dataset: Bytes) -> Self {
        let launch = LaunchMetrics::evaluate(&config);
        let comparison = BulkComparison::evaluate(&config, dataset);
        Self {
            config,
            launch,
            comparison,
        }
    }
}

/// The exact 13 `(speed, length, ssd-count)` rows of Table VI, in paper
/// order.
pub const TABLE_VI_ROWS: [(f64, f64, u32); 13] = [
    (100.0, 500.0, 32),
    (200.0, 500.0, 32),
    (300.0, 500.0, 32),
    (200.0, 100.0, 32),
    (200.0, 500.0, 32),
    (200.0, 1000.0, 32),
    (200.0, 500.0, 16),
    (200.0, 500.0, 32),
    (200.0, 500.0, 64),
    (100.0, 500.0, 16),
    (100.0, 500.0, 64),
    (300.0, 500.0, 16),
    (300.0, 500.0, 64),
];

/// Evaluates the 13 Table VI rows against the paper's 29 PB dataset.
#[must_use]
pub fn paper_table_vi() -> Vec<DsePoint> {
    TABLE_VI_ROWS
        .iter()
        .map(|&(v, l, n)| {
            DsePoint::evaluate(
                DhlConfig::with_ssd_count(MetresPerSecond::new(v), Metres::new(l), n),
                paper_dataset(),
            )
        })
        .collect()
}

/// Evaluates the full cartesian product of the given parameter lists
/// against `dataset`, in row-major (speed-outermost) order.
#[must_use]
pub fn sweep(
    speeds: &[MetresPerSecond],
    lengths: &[Metres],
    ssd_counts: &[u32],
    dataset: Bytes,
) -> Vec<DsePoint> {
    let mut out = Vec::with_capacity(speeds.len() * lengths.len() * ssd_counts.len());
    for &v in speeds {
        for &l in lengths {
            for &n in ssd_counts {
                out.push(DsePoint::evaluate(
                    DhlConfig::with_ssd_count(v, l, n),
                    dataset,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_has_13_rows() {
        let rows = paper_table_vi();
        assert_eq!(rows.len(), 13);
        // Row 2 (index 1) is the bold default.
        assert!((rows[1].launch.energy.kilojoules() - 15.04).abs() < 0.01);
        assert!((rows[1].comparison.time_speedup - 295.8).abs() < 1.0);
    }

    #[test]
    fn sweep_covers_cartesian_product_in_order() {
        let speeds = [MetresPerSecond::new(100.0), MetresPerSecond::new(200.0)];
        let lengths = [Metres::new(500.0), Metres::new(1000.0)];
        let counts = [16, 32, 64];
        let points = sweep(&speeds, &lengths, &counts, paper_dataset());
        assert_eq!(points.len(), 12);
        assert_eq!(points[0].config.max_speed.value(), 100.0);
        assert_eq!(points[0].config.cart_capacity.terabytes(), 128.0);
        assert_eq!(points[11].config.max_speed.value(), 200.0);
        assert_eq!(points[11].config.track_length.value(), 1000.0);
        assert_eq!(points[11].config.cart_capacity.terabytes(), 512.0);
    }

    #[test]
    fn empty_sweep_is_empty() {
        assert!(sweep(&[], &[], &[], paper_dataset()).is_empty());
    }

    #[test]
    fn speed_monotonically_trades_energy_for_time() {
        // Along the speed axis at fixed length/capacity: faster = more
        // energy, less time.
        let speeds: Vec<MetresPerSecond> = [100.0, 150.0, 200.0, 250.0, 300.0]
            .map(MetresPerSecond::new)
            .into();
        let points = sweep(&speeds, &[Metres::new(500.0)], &[32], paper_dataset());
        for pair in points.windows(2) {
            assert!(pair[0].launch.energy < pair[1].launch.energy);
            assert!(pair[0].launch.trip_time > pair[1].launch.trip_time);
        }
    }
}
