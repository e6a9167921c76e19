//! Release-mode benchmark of the DHL reproduction.
//!
//! Times the four things a user of the reproduction runs: a campus DES
//! mission (`DhlSystem::run_multi_rack`), an open-loop serving run
//! (`Scheduler::try_run` under admission control), the same mission driven
//! through checkpoint/JSON/resume cycles, and a regeneration of every paper
//! table and figure. One round runs each once, in that order, and rounds
//! repeat until `--seconds` have passed; every result is checked against a
//! reference computed at set-up.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload clean --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it reports the host time of each operation and of
//! set-up (see [`steady`]), scaled to a reference
//! host speed by a calibration loop timed in every round (see
//! [`calibration`]). With `--trace 1` it reports, unscaled, where each
//! operation's time goes, measured at the API boundaries the benchmark
//! calls, and runs the mission and the serving run with metric recording
//! on and off in alternating order to measure what recording costs. The
//! last line of stdout is one JSON object: `{"correct", "attempted",
//! "failed", "metrics"}`.

mod calibration;
mod inputs;
mod ops;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use inputs::Workload;
use ops::Bench;

/// Rounds between two timed set-ups.
const SETUP_EVERY: u64 = 4;

/// Consecutive samples per block of [`steady`].
const BLOCK: usize = 10;

/// Renderers that fan their work out across threads (`parallel_map`).
const PARALLEL_RENDERERS: [&str; 2] = ["ablation", "sensitivity"];

const USAGE: &str =
    "usage: perfbench --workload <clean|faulty|large> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Operation counts and per-operation samples of one run.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Run {
    /// Runs one operation, counting it, and files its host time in
    /// milliseconds under `name` if it succeeded.
    fn timed<T>(
        &mut self,
        name: &'static str,
        op: impl FnOnce() -> Result<T, String>,
    ) -> Option<T> {
        self.attempted += 1;
        let start = Instant::now();
        let result = op();
        let elapsed = start.elapsed();
        match result {
            Ok(value) => {
                self.push(name, ms(elapsed));
                Some(value)
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {name} failed: {e}");
                None
            }
        }
    }

    fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    fn steady(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(f64::NAN, |v| steady(v))
    }

    fn round(&mut self, bench: &Bench) {
        let start = Instant::now();
        calibration::run();
        self.push("calibration_ms", ms(start.elapsed()));
        self.timed("mission_ms", || bench.mission(true));
        self.timed("serve_ms", || bench.serve(true));
        self.timed("checkpoint_ms", || bench.checkpoint_cycle());
        self.timed("paper_ms", || bench.paper());
    }

    fn traced_round(&mut self, bench: &Bench, round: u64) {
        // Metrics on and off back to back, swapping which goes first each
        // round so neither side always runs on a warmer cache.
        let order = if round.is_multiple_of(2) {
            [true, false]
        } else {
            [false, true]
        };
        for metrics in order {
            let name = if metrics { "mission.on" } else { "mission.off" };
            if let Some(s) = self.timed(name, || bench.mission(metrics)) {
                if metrics {
                    self.push("mission.build_us", us(s.build));
                    self.push("mission.run_ns_per_event", per(s.run, s.events));
                    self.push("mission.events", s.events as f64);
                }
            }
        }
        for metrics in order {
            let name = if metrics { "serve.on" } else { "serve.off" };
            if let Some(s) = self.timed(name, || bench.serve(metrics)) {
                if metrics {
                    self.push("serve.build_us", us(s.build));
                    self.push("serve.submit_ns_per_arrival", per(s.submit, s.arrivals));
                    self.push("serve.run_ns_per_arrival", per(s.run, s.arrivals));
                    self.push(
                        "serve.admitted_share",
                        s.admitted as f64 / s.arrivals as f64,
                    );
                    self.push("serve.rejected", s.rejected as f64);
                    self.push("serve.shed", s.shed as f64);
                    self.push("serve.retries", s.retries as f64);
                }
            }
        }
        if let Some(s) = self.timed("checkpoint_ms", || bench.checkpoint_cycle()) {
            let cycles = u64::from(s.cycles);
            self.push("checkpoint.build_us", us(s.build));
            self.push("checkpoint.run_ns_per_event", per(s.run, s.events));
            self.push("checkpoint.capture_us", per(s.capture, cycles) / 1e3);
            self.push("checkpoint.encode_ns_per_byte", per(s.encode, s.json_bytes));
            self.push("checkpoint.decode_ns_per_byte", per(s.decode, s.json_bytes));
            self.push("checkpoint.resume_us", per(s.resume, cycles) / 1e3);
            self.push("checkpoint.json_bytes", s.json_bytes as f64 / cycles as f64);
        }
        if let Some(s) = self.timed("paper_ms", || bench.paper()) {
            let (mut parallel, mut serial) = (Duration::ZERO, Duration::ZERO);
            for (name, time) in bench.report_names().zip(s.render) {
                if PARALLEL_RENDERERS.contains(&name) {
                    parallel += time;
                } else {
                    serial += time;
                }
            }
            self.push("paper.parallel_us", us(parallel));
            self.push("paper.serial_us", us(serial));
        }
    }

    /// Every end-to-end time, scaled by how much slower than the reference
    /// speed the host ran the calibration during this run: load from other
    /// tenants that lasts longer than a block of [`steady`] slows the
    /// calibration and the operations alike, and cancels.
    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let scale = calibration::REFERENCE_MS / self.steady("calibration_ms");
        let mut metrics: Vec<_> = ["mission_ms", "serve_ms", "checkpoint_ms", "paper_ms"]
            .into_iter()
            .map(|name| (name, self.steady(name) * scale, "ms"))
            .collect();
        metrics.push(("setup_s", self.steady("setup_ms") / 1e3 * scale, "s"));
        metrics
    }

    fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        let tax = |on: &str, off: &str| (self.steady(on) / self.steady(off) - 1.0) * 100.0;
        let mut metrics = vec![
            (
                "mission.metrics_tax_pct",
                tax("mission.on", "mission.off"),
                "%",
            ),
            ("serve.metrics_tax_pct", tax("serve.on", "serve.off"), "%"),
        ];
        for (name, unit) in [
            ("mission.build_us", "us"),
            ("mission.run_ns_per_event", "ns"),
            ("mission.events", "count"),
            ("serve.build_us", "us"),
            ("serve.submit_ns_per_arrival", "ns"),
            ("serve.run_ns_per_arrival", "ns"),
            ("serve.admitted_share", "ratio"),
            ("serve.rejected", "count"),
            ("serve.shed", "count"),
            ("serve.retries", "count"),
            ("checkpoint.build_us", "us"),
            ("checkpoint.run_ns_per_event", "ns"),
            ("checkpoint.capture_us", "us"),
            ("checkpoint.encode_ns_per_byte", "ns"),
            ("checkpoint.decode_ns_per_byte", "ns"),
            ("checkpoint.resume_us", "us"),
            ("checkpoint.json_bytes", "bytes"),
            ("paper.parallel_us", "us"),
            ("paper.serial_us", "us"),
        ] {
            metrics.push((name, self.steady(name), unit));
        }
        metrics
    }

    /// One line per sampled quantity on stderr: the sample count, the
    /// reported value, the median and the 90th percentile.
    fn summarise(&self) {
        for (name, v) in &self.samples {
            eprintln!(
                "perfbench: {name:<32} n={:<5} steady={:<12.6} p50={:<12.6} p90={:.6}",
                v.len(),
                steady(v),
                quantile(v, 0.5),
                quantile(v, 0.9)
            );
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nanoseconds of `d` per unit of work.
fn per(d: Duration, work: u64) -> f64 {
    d.as_secs_f64() * 1e9 / work as f64
}

/// The median, over blocks of [`BLOCK`] consecutive samples, of each
/// block's smallest. On a shared host, load from other tenants only ever
/// adds time and comes and goes within a second; the fastest of ten
/// consecutive runs sheds it, and the median over blocks sheds a block in
/// which every run was slowed. A trailing partial block is dropped.
fn steady(values: &[f64]) -> f64 {
    let mins: Vec<f64> = values
        .chunks(BLOCK)
        .filter(|block| block.len() == BLOCK || values.len() < BLOCK)
        .map(|block| block.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    quantile(&mins, 0.5)
}

/// The `q` quantile of `values`, interpolating between order statistics.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Set-up generates the inputs and computes the reference results. It
    // runs again every few rounds, so that its time is taken over the same
    // mix of host load as the operations'.
    let mut run = Run::default();
    let setup = || Bench::setup(args.workload, args.seed);
    let Some(bench) = run.timed("setup_ms", setup) else {
        return ExitCode::FAILURE;
    };
    eprintln!("perfbench: {}", bench.describe());

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut round = 0;
    while round == 0 || Instant::now() < deadline {
        if args.trace {
            run.traced_round(&bench, round);
        } else {
            run.round(&bench);
        }
        round += 1;
        if round % SETUP_EVERY == 0 {
            run.timed("setup_ms", setup);
        }
    }
    run.summarise();

    let metrics = if args.trace {
        run.per_layer()
    } else {
        run.end_to_end()
    };
    let finite = metrics.iter().all(|(_, value, _)| value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0 && finite,
        run.attempted,
        run.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
