//! Regenerates every table and figure from the paper's evaluation section.
//!
//! ```text
//! cargo run -p dhl-bench --bin report                    # every table/figure
//! cargo run -p dhl-bench --bin report table6             # one table
//! ```
//!
//! An unknown report name or any `--` flag exits with status 2.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("unknown flag '{flag}'");
        std::process::exit(2);
    }

    let reports = dhl_bench::all_reports();
    let wanted: Vec<&str> = if args.is_empty() {
        reports.iter().map(|(n, _)| *n).collect()
    } else {
        args.iter().map(String::as_str).collect()
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
