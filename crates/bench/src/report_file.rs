//! Machine-readable benchmark reports and the perf-regression check.
//!
//! The `report` binary writes `BENCH_report.json` with this schema:
//!
//! ```json
//! {
//!   "schema": "dhl-bench-report/v1",
//!   "cases": [
//!     {"case": "render/fig2", "iters": 100, "mean_ns": 1.0,
//!      "min_ns": 0.9, "p50_ns": 1.0, "p95_ns": 1.2, "metrics": {...}}
//!   ]
//! }
//! ```
//!
//! `metrics` is a [`MetricsSnapshot`] export (or `null` for pure-timing
//! cases). The regression check parses a committed baseline with the same
//! schema and flags any case whose mean grew beyond the tolerance.

use std::collections::BTreeMap;

use dhl_obs::json::{self, JsonValue};
use dhl_obs::MetricsSnapshot;

use crate::harness::CaseResult;

/// Schema identifier stamped into (and required from) every report file.
pub const SCHEMA: &str = "dhl-bench-report/v1";

/// One exported case: timing statistics plus an optional observability
/// snapshot from the workload it measured.
#[derive(Clone, Debug)]
pub struct BenchCase {
    /// Timing statistics from [`crate::harness::bench_function`].
    pub result: CaseResult,
    /// Metrics recorded by the measured workload, if it carries any.
    pub metrics: Option<MetricsSnapshot>,
}

/// Renders a full report document (one case per line, for diffability).
#[must_use]
pub fn render_report(cases: &[BenchCase]) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"schema\":");
    json::write_escaped(&mut out, SCHEMA);
    out.push_str(",\"cases\":[");
    for (i, case) in cases.iter().enumerate() {
        out.push_str(if i > 0 { ",\n" } else { "\n" });
        out.push_str("{\"case\":");
        json::write_escaped(&mut out, &case.result.name);
        out.push_str(&format!(",\"iters\":{}", case.result.iters));
        for (key, value) in [
            ("mean_ns", case.result.mean_ns),
            ("min_ns", case.result.min_ns),
            ("p50_ns", case.result.p50_ns),
            ("p95_ns", case.result.p95_ns),
        ] {
            out.push_str(",\"");
            out.push_str(key);
            out.push_str("\":");
            json::write_f64(&mut out, value);
        }
        out.push_str(",\"metrics\":");
        match &case.metrics {
            Some(snapshot) => out.push_str(&snapshot.to_json()),
            None => out.push_str("null"),
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// A case read back from a report file. Only the fields the regression
/// check needs are extracted; `metrics` rides along as raw JSON.
#[derive(Clone, PartialEq, Debug)]
pub struct ParsedCase {
    /// Case name.
    pub case: String,
    /// Iterations measured.
    pub iters: u64,
    /// Mean wall-clock time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Median per-iteration time, nanoseconds.
    pub p50_ns: f64,
    /// 95th-percentile per-iteration time, nanoseconds.
    pub p95_ns: f64,
}

/// Parses a report document, validating the schema tag.
///
/// # Errors
///
/// A description of the first structural problem (bad JSON, wrong schema,
/// missing field).
pub fn parse_report(text: &str) -> Result<Vec<ParsedCase>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => return Err(format!("unsupported schema '{s}' (want '{SCHEMA}')")),
        None => return Err("missing 'schema' field".into()),
    }
    let cases = doc
        .get("cases")
        .and_then(JsonValue::as_array)
        .ok_or("missing 'cases' array")?;
    let field = |case: &JsonValue, name: &str| -> Result<f64, String> {
        case.get(name)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("case missing numeric '{name}'"))
    };
    cases
        .iter()
        .map(|case| {
            Ok(ParsedCase {
                case: case
                    .get("case")
                    .and_then(JsonValue::as_str)
                    .ok_or("case missing 'case' name")?
                    .to_string(),
                iters: field(case, "iters")? as u64,
                mean_ns: field(case, "mean_ns")?,
                p50_ns: field(case, "p50_ns")?,
                p95_ns: field(case, "p95_ns")?,
            })
        })
        .collect()
}

/// One flagged slowdown from [`compare`].
#[derive(Clone, PartialEq, Debug)]
pub struct Regression {
    /// Case name.
    pub case: String,
    /// Baseline mean, nanoseconds.
    pub baseline_ns: f64,
    /// Current mean, nanoseconds.
    pub current_ns: f64,
    /// `current / baseline`.
    pub ratio: f64,
}

/// Outcome of checking a current report against a baseline.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CheckOutcome {
    /// Cases whose mean grew beyond the tolerance.
    pub regressions: Vec<Regression>,
    /// Baseline cases absent from the current report (treated as failures:
    /// a silently dropped case would otherwise hide a regression forever).
    pub missing: Vec<String>,
    /// Baseline cases compared and found within tolerance.
    pub passed: usize,
}

impl CheckOutcome {
    /// Whether the check passed.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }
}

/// Compares `current` against `baseline`: a case regresses when its mean
/// exceeds `baseline * (1 + tolerance)`. Cases only present in `current`
/// (newly added benchmarks) are ignored.
#[must_use]
pub fn compare(current: &[ParsedCase], baseline: &[ParsedCase], tolerance: f64) -> CheckOutcome {
    let by_name: BTreeMap<&str, &ParsedCase> =
        current.iter().map(|c| (c.case.as_str(), c)).collect();
    let mut outcome = CheckOutcome::default();
    for base in baseline {
        match by_name.get(base.case.as_str()) {
            None => outcome.missing.push(base.case.clone()),
            Some(cur) if cur.mean_ns > base.mean_ns * (1.0 + tolerance) => {
                outcome.regressions.push(Regression {
                    case: base.case.clone(),
                    baseline_ns: base.mean_ns,
                    current_ns: cur.mean_ns,
                    ratio: cur.mean_ns / base.mean_ns,
                });
            }
            Some(_) => outcome.passed += 1,
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &str, mean_ns: f64) -> ParsedCase {
        ParsedCase {
            case: name.into(),
            iters: 10,
            mean_ns,
            p50_ns: mean_ns,
            p95_ns: mean_ns * 1.1,
        }
    }

    fn result(name: &str, mean_ns: f64) -> CaseResult {
        CaseResult {
            name: name.into(),
            iters: 10,
            mean_ns,
            min_ns: mean_ns * 0.9,
            p50_ns: mean_ns,
            p95_ns: mean_ns * 1.1,
        }
    }

    #[test]
    fn report_round_trips_through_the_parser() {
        let mut metrics = dhl_obs::MetricsRegistry::enabled();
        let events = metrics.register_counter("sim.events");
        metrics.add(events, 42);
        let cases = vec![
            BenchCase {
                result: result("render/fig2", 1_500.0),
                metrics: None,
            },
            BenchCase {
                result: result("sim/bulk", 2.5e6),
                metrics: Some(metrics.snapshot()),
            },
        ];
        let text = render_report(&cases);
        let parsed = parse_report(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], case("render/fig2", 1_500.0));
        assert_eq!(parsed[1].case, "sim/bulk");
        // The embedded metrics snapshot survives as valid JSON.
        let doc = dhl_obs::json::parse(&text).unwrap();
        let m = &doc.get("cases").and_then(JsonValue::as_array).unwrap()[1];
        let events = m
            .get("metrics")
            .and_then(|v| v.get("counters"))
            .and_then(|c| c.get("sim.events"))
            .and_then(JsonValue::as_f64);
        assert_eq!(events, Some(42.0));
    }

    #[test]
    fn schema_mismatches_are_rejected() {
        assert!(parse_report("{}").unwrap_err().contains("schema"));
        let wrong = r#"{"schema":"dhl-bench-report/v999","cases":[]}"#;
        assert!(parse_report(wrong).unwrap_err().contains("v999"));
        let no_cases = format!(r#"{{"schema":"{SCHEMA}"}}"#);
        assert!(parse_report(&no_cases).unwrap_err().contains("cases"));
    }

    #[test]
    fn compare_flags_only_slowdowns_beyond_tolerance() {
        let baseline = vec![case("a", 100.0), case("b", 100.0), case("c", 100.0)];
        let current = vec![
            case("a", 120.0), // +20% — within a 25% tolerance
            case("b", 130.0), // +30% — regression
            case("c", 50.0),  // faster — fine
            case("d", 999.0), // new case — ignored
        ];
        let outcome = compare(&current, &baseline, 0.25);
        assert_eq!(outcome.passed, 2);
        assert!(outcome.missing.is_empty());
        assert_eq!(outcome.regressions.len(), 1);
        assert_eq!(outcome.regressions[0].case, "b");
        assert!((outcome.regressions[0].ratio - 1.3).abs() < 1e-9);
        assert!(!outcome.is_ok());
    }

    #[test]
    fn dropped_cases_fail_the_check() {
        let baseline = vec![case("a", 100.0), case("gone", 100.0)];
        let current = vec![case("a", 100.0)];
        let outcome = compare(&current, &baseline, 0.25);
        assert_eq!(outcome.missing, vec!["gone".to_string()]);
        assert!(!outcome.is_ok());
    }

    #[test]
    fn identical_reports_always_pass() {
        let baseline = vec![case("a", 100.0), case("b", 2e9)];
        let outcome = compare(&baseline, &baseline, 0.0);
        assert!(outcome.is_ok());
        assert_eq!(outcome.passed, 2);
    }
}
