//! Regenerates every table and figure from the paper's evaluation section,
//! and drives the machine-readable benchmark suite.
//!
//! ```text
//! cargo run -p dhl-bench --bin report                    # every table/figure
//! cargo run -p dhl-bench --bin report table6             # one table
//! cargo run -p dhl-bench --bin report -- --json BENCH_report.json
//! cargo run -p dhl-bench --bin report -- --check BENCH_baseline.json \
//!     --tolerance 0.25 --json BENCH_report.json
//! ```
//!
//! `--json` runs the benchmark suite and writes a `dhl-bench-report/v1`
//! document; `--check` additionally compares against a baseline report and
//! exits non-zero on any regression (mean beyond the tolerance) or dropped
//! case. Set `DHL_BENCH_FAST=1` for the ~10× shorter CI smoke windows.

use dhl_bench::report_file;

struct Cli {
    json_path: Option<String>,
    check_path: Option<String>,
    tolerance: f64,
    reports: Vec<String>,
}

fn parse_args(args: Vec<String>) -> Result<Cli, String> {
    let mut cli = Cli {
        json_path: None,
        check_path: None,
        tolerance: 0.25,
        reports: Vec::new(),
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--json" => cli.json_path = Some(value_of("--json")?),
            "--check" => cli.check_path = Some(value_of("--check")?),
            "--tolerance" => {
                cli.tolerance = value_of("--tolerance")?
                    .parse::<f64>()
                    .map_err(|e| format!("bad --tolerance: {e}"))?;
                if !cli.tolerance.is_finite() || cli.tolerance < 0.0 {
                    return Err("--tolerance must be a non-negative number".into());
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            name => cli.reports.push(name.to_string()),
        }
    }
    Ok(cli)
}

fn run_suite(cli: &Cli) -> i32 {
    let cases = dhl_bench::run_bench_suite();
    let text = report_file::render_report(&cases);
    if let Some(path) = &cli.json_path {
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("cannot write {path}: {e}");
            return 2;
        }
        println!("wrote {path} ({} cases)", cases.len());
    }
    let Some(baseline_path) = &cli.check_path else {
        return 0;
    };
    let baseline = match std::fs::read_to_string(baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|t| report_file::parse_report(&t))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            return 2;
        }
    };
    let current = report_file::parse_report(&text).expect("own report is valid");
    let outcome = report_file::compare(&current, &baseline, cli.tolerance);
    println!(
        "perf check vs {baseline_path} (tolerance {:.0}%): {} passed, {} regressed, {} missing",
        cli.tolerance * 100.0,
        outcome.passed,
        outcome.regressions.len(),
        outcome.missing.len(),
    );
    for r in &outcome.regressions {
        println!(
            "  REGRESSION {:<44} {:>10.0} ns -> {:>10.0} ns ({:.2}x)",
            r.case, r.baseline_ns, r.current_ns, r.ratio
        );
    }
    for name in &outcome.missing {
        println!("  MISSING    {name} (in baseline but not measured)");
    }
    i32::from(!outcome.is_ok())
}

fn main() {
    let cli = match parse_args(std::env::args().skip(1).collect()) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    if cli.json_path.is_some() || cli.check_path.is_some() {
        std::process::exit(run_suite(&cli));
    }

    let reports = dhl_bench::all_reports();
    let wanted: Vec<&str> = if cli.reports.is_empty() {
        reports.iter().map(|(n, _)| *n).collect()
    } else {
        cli.reports.iter().map(String::as_str).collect()
    };
    for name in wanted {
        match reports.iter().find(|(n, _)| *n == name) {
            Some((_, render)) => {
                println!("{}", "=".repeat(78));
                println!("{}", render());
            }
            None => {
                eprintln!(
                    "unknown report '{name}'; available: {}",
                    reports
                        .iter()
                        .map(|(n, _)| *n)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                std::process::exit(2);
            }
        }
    }
}
