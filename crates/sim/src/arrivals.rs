//! Open-loop request arrival generation (ROADMAP item 1).
//!
//! The closed-loop scheduler drains a fixed queue, so the system can never
//! be *overloaded* — offered load always equals served load. This module
//! supplies the missing half of an overload experiment: deterministic
//! open-loop arrival processes that keep offering work whether or not the
//! track can absorb it.
//!
//! Two processes are modelled:
//!
//! - [`ArrivalProcess::Poisson`]: memoryless arrivals at a constant rate
//!   (inverse-CDF exponential inter-arrival times);
//! - [`ArrivalProcess::OnOffBurst`]: an MMPP-style two-state modulated
//!   process — an *on* phase at a burst rate and an *off* phase at a
//!   (possibly zero) background rate, with exponentially distributed phase
//!   durations. This is the workload shape ingest pipelines actually
//!   produce: long quiet stretches punctuated by correlated bursts that
//!   saturate the docking stations.
//!
//! Every draw comes from one dedicated [`DeterministicRng`] stream seeded
//! by [`ArrivalSpec::seed`], so a given spec always yields the same
//! arrival trace, independent of thread count or host. The generator is
//! checkpointable in the PR-6 style: [`ArrivalGenerator::state`] captures
//! the RNG words, clock, and phase; [`ArrivalGenerator::restore`] resumes
//! to a bit-identical suffix, and [`ArrivalState::to_json`] /
//! [`ArrivalState::from_json`] round-trip the state losslessly through the
//! `dhl-obs` JSON codec.
//!
//! Numeric inputs follow the same clamp discipline `FailureModel` got in
//! PR 3: non-finite or negative rates clamp to zero, degenerate phase
//! durations clamp to one second, fractions clamp into `[0, 1]`, and a
//! zero tenant count clamps to one — a malformed spec degrades to a quiet
//! generator instead of panicking or spinning.

use dhl_rng::{DeterministicRng, Rng};
use dhl_units::Seconds;

use crate::codec::{codec_struct, read_document, Codec};

/// The stochastic process driving inter-arrival times.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate_per_second`.
    Poisson {
        /// Mean arrivals per second.
        rate_per_second: f64,
    },
    /// MMPP-style two-state burst process: exponential-duration *on*
    /// phases at `on_rate_per_second` alternating with *off* phases at
    /// `off_rate_per_second` (zero for silent gaps).
    OnOffBurst {
        /// Arrival rate while the source is bursting.
        on_rate_per_second: f64,
        /// Background arrival rate between bursts (may be zero).
        off_rate_per_second: f64,
        /// Mean duration of an *on* phase.
        mean_on_duration: Seconds,
        /// Mean duration of an *off* phase.
        mean_off_duration: Seconds,
    },
}

/// Configuration for one open-loop arrival stream.
///
/// Off-by-default in the sense of the PR-3/PR-6 convention: nothing in the
/// simulator consumes arrivals unless a caller explicitly builds a
/// generator and feeds the emitted requests into a scheduler.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ArrivalSpec {
    /// The inter-arrival process.
    pub process: ArrivalProcess,
    /// Number of tenants arrivals are attributed to (round-robin-free:
    /// each arrival draws its tenant uniformly). Clamped to ≥ 1.
    pub tenants: u32,
    /// Generation horizon: no arrivals at or beyond this time.
    pub horizon: Seconds,
    /// Base deadline slack granted to every request, measured from its
    /// arrival. Zero disables deadlines (emitted `deadline` is `None`).
    pub deadline_slack: Seconds,
    /// Extra uniform jitter on the slack as a fraction of
    /// `deadline_slack` (clamped into `[0, 1]`): the effective slack is
    /// `slack × (1 + jitter × U[0,1))`.
    pub deadline_jitter_fraction: f64,
    /// Seed for the dedicated arrival RNG stream.
    pub seed: u64,
}

impl ArrivalSpec {
    /// A Poisson stream at `rate_per_second` over `horizon` for one tenant,
    /// without deadlines.
    #[must_use]
    pub fn poisson(rate_per_second: f64, horizon: Seconds, seed: u64) -> Self {
        Self {
            process: ArrivalProcess::Poisson { rate_per_second },
            tenants: 1,
            horizon,
            deadline_slack: Seconds::ZERO,
            deadline_jitter_fraction: 0.0,
            seed,
        }
    }

    /// Spreads arrivals over `tenants` tenants.
    #[must_use]
    pub fn with_tenants(mut self, tenants: u32) -> Self {
        self.tenants = tenants;
        self
    }

    /// Grants every request `slack` of deadline headroom with `jitter`
    /// fractional spread.
    #[must_use]
    pub fn with_deadlines(mut self, slack: Seconds, jitter: f64) -> Self {
        self.deadline_slack = slack;
        self.deadline_jitter_fraction = jitter;
        self
    }

    /// The spec with every numeric field clamped into its sane range
    /// (the PR-3 `FailureModel` discipline): non-finite or negative rates
    /// and durations become `0`, degenerate phase means become one second,
    /// fractions clamp into `[0, 1]`, and `tenants == 0` becomes `1`.
    #[must_use]
    pub fn sanitised(mut self) -> Self {
        fn rate(r: f64) -> f64 {
            if r.is_finite() {
                r.max(0.0)
            } else {
                0.0
            }
        }
        fn nonneg(s: Seconds) -> Seconds {
            let v = s.seconds();
            if v.is_finite() {
                Seconds::new(v.max(0.0))
            } else {
                Seconds::ZERO
            }
        }
        self.process = match self.process {
            ArrivalProcess::Poisson { rate_per_second } => ArrivalProcess::Poisson {
                rate_per_second: rate(rate_per_second),
            },
            ArrivalProcess::OnOffBurst {
                on_rate_per_second,
                off_rate_per_second,
                mean_on_duration,
                mean_off_duration,
            } => {
                // Phase means below a microsecond (or malformed) would make
                // the generator spin through phases; clamp to one second.
                let phase = |s: Seconds| {
                    let v = s.seconds();
                    if v.is_finite() && v >= 1e-6 {
                        s
                    } else {
                        Seconds::new(1.0)
                    }
                };
                ArrivalProcess::OnOffBurst {
                    on_rate_per_second: rate(on_rate_per_second),
                    off_rate_per_second: rate(off_rate_per_second),
                    mean_on_duration: phase(mean_on_duration),
                    mean_off_duration: phase(mean_off_duration),
                }
            }
        };
        self.tenants = self.tenants.max(1);
        self.horizon = nonneg(self.horizon);
        self.deadline_slack = nonneg(self.deadline_slack);
        self.deadline_jitter_fraction = if self.deadline_jitter_fraction.is_finite() {
            self.deadline_jitter_fraction.clamp(0.0, 1.0)
        } else {
            0.0
        };
        self
    }
}

/// One emitted request arrival.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct Arrival {
    /// Tenant the request belongs to, in `0..spec.tenants`.
    pub tenant: u32,
    /// Arrival time.
    pub at: Seconds,
    /// Absolute delivery deadline, when the spec grants slack.
    pub deadline: Option<Seconds>,
}

/// Checkpointable generator state (PR-6 machinery): everything needed to
/// resume a generator to a bit-identical suffix.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ArrivalState {
    /// The RNG stream's word state.
    pub rng: [u64; 4],
    /// Simulated clock of the last emitted arrival (or 0 initially).
    pub clock: f64,
    /// Whether an `OnOffBurst` process is currently in its *on* phase.
    pub in_on_phase: bool,
    /// When the current phase ends (`OnOffBurst` only; `+∞` for Poisson).
    pub phase_ends_at: f64,
    /// Arrivals emitted so far.
    pub emitted: u64,
}

impl ArrivalState {
    /// Serialises the state to compact JSON (lossless: RNG words ride the
    /// codec's exact `UInt` path, times use Rust's round-trip `f64`
    /// formatting, and the non-finite Poisson phase end maps to `null`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Parses a state serialised by [`ArrivalState::to_json`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        read_document::<Self>(text).map_err(|e| format!("arrival state: {e}"))
    }
}

codec_struct!(ArrivalState {
    rng,
    clock,
    in_on_phase,
    phase_ends_at: null => f64::INFINITY,
    emitted,
});

/// Deterministic open-loop arrival generator over one [`ArrivalSpec`].
///
/// Implements [`Iterator`]; the stream ends at the spec's horizon.
#[derive(Clone, Debug)]
pub struct ArrivalGenerator {
    spec: ArrivalSpec,
    rng: DeterministicRng,
    clock: f64,
    in_on_phase: bool,
    phase_ends_at: f64,
    emitted: u64,
}

impl ArrivalGenerator {
    /// Builds a generator over the sanitised spec.
    #[must_use]
    pub fn new(spec: &ArrivalSpec) -> Self {
        let spec = spec.sanitised();
        let mut rng = DeterministicRng::seed_from_u64(spec.seed);
        let (in_on_phase, phase_ends_at) = match spec.process {
            ArrivalProcess::Poisson { .. } => (true, f64::INFINITY),
            ArrivalProcess::OnOffBurst {
                mean_on_duration, ..
            } => {
                // The stream opens in an *on* phase whose duration is the
                // generator's very first draw.
                let d = exponential(&mut rng, mean_on_duration.seconds());
                (true, d)
            }
        };
        Self {
            spec,
            rng,
            clock: 0.0,
            in_on_phase,
            phase_ends_at,
            emitted: 0,
        }
    }

    /// Captures the generator's resumable state.
    #[must_use]
    pub fn state(&self) -> ArrivalState {
        ArrivalState {
            rng: self.rng.state(),
            clock: self.clock,
            in_on_phase: self.in_on_phase,
            phase_ends_at: self.phase_ends_at,
            emitted: self.emitted,
        }
    }

    /// Rebuilds a generator from a captured state; the resumed stream is
    /// bit-identical to the stream the original would have produced.
    #[must_use]
    pub fn restore(spec: &ArrivalSpec, state: &ArrivalState) -> Self {
        Self {
            spec: spec.sanitised(),
            rng: DeterministicRng::from_state(state.rng),
            clock: state.clock,
            in_on_phase: state.in_on_phase,
            phase_ends_at: state.phase_ends_at,
            emitted: state.emitted,
        }
    }

    fn current_rate(&self) -> f64 {
        match self.spec.process {
            ArrivalProcess::Poisson { rate_per_second } => rate_per_second,
            ArrivalProcess::OnOffBurst {
                on_rate_per_second,
                off_rate_per_second,
                ..
            } => {
                if self.in_on_phase {
                    on_rate_per_second
                } else {
                    off_rate_per_second
                }
            }
        }
    }

    fn advance_phase(&mut self) {
        let ArrivalProcess::OnOffBurst {
            mean_on_duration,
            mean_off_duration,
            ..
        } = self.spec.process
        else {
            return;
        };
        self.clock = self.phase_ends_at;
        self.in_on_phase = !self.in_on_phase;
        let mean = if self.in_on_phase {
            mean_on_duration.seconds()
        } else {
            mean_off_duration.seconds()
        };
        self.phase_ends_at = self.clock + exponential(&mut self.rng, mean);
    }

    /// The next arrival, or `None` once the horizon is reached.
    pub fn next_arrival(&mut self) -> Option<Arrival> {
        let horizon = self.spec.horizon.seconds();
        loop {
            if self.clock >= horizon {
                return None;
            }
            let rate = self.current_rate();
            if rate <= 0.0 {
                // Silent phase: nothing arrives until it ends (a silent
                // Poisson stream never produces anything).
                if self.phase_ends_at.is_finite() {
                    self.advance_phase();
                    continue;
                }
                return None;
            }
            let gap = exponential(&mut self.rng, 1.0 / rate);
            let candidate = self.clock + gap;
            if candidate >= self.phase_ends_at {
                // The draw fell past the phase boundary: discard it and
                // re-draw in the next phase (memorylessness makes the
                // discarded tail exchangeable for a fresh draw).
                self.advance_phase();
                continue;
            }
            if candidate >= horizon {
                self.clock = horizon;
                return None;
            }
            self.clock = candidate;
            self.emitted += 1;
            let tenant = if self.spec.tenants > 1 {
                self.rng.random_range_u64(0, u64::from(self.spec.tenants)) as u32
            } else {
                0
            };
            let deadline = if self.spec.deadline_slack > Seconds::ZERO {
                let jitter = self.spec.deadline_jitter_fraction * self.rng.random_f64();
                Some(Seconds::new(
                    candidate + self.spec.deadline_slack.seconds() * (1.0 + jitter),
                ))
            } else {
                None
            };
            return Some(Arrival {
                tenant,
                at: Seconds::new(candidate),
                deadline,
            });
        }
    }
}

impl Iterator for ArrivalGenerator {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        self.next_arrival()
    }
}

/// Inverse-CDF exponential draw with the given mean (0 for degenerate
/// means): `-mean · ln(1 - u)` with `u ∈ [0, 1)`.
fn exponential(rng: &mut DeterministicRng, mean: f64) -> f64 {
    if !mean.is_finite() || mean <= 0.0 {
        return 0.0;
    }
    let u = rng.random_f64();
    -mean * (1.0 - u).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson(rate: f64, horizon: f64, seed: u64) -> ArrivalSpec {
        ArrivalSpec::poisson(rate, Seconds::new(horizon), seed)
    }

    #[test]
    fn poisson_rate_is_roughly_honoured() {
        let n = ArrivalGenerator::new(&poisson(2.0, 10_000.0, 7)).count();
        // 20 000 expected; a 5 % band is ~7σ.
        assert!((19_000..21_000).contains(&n), "{n}");
    }

    #[test]
    fn arrivals_are_strictly_ordered_and_inside_the_horizon() {
        let spec = poisson(5.0, 500.0, 3).with_tenants(8);
        let mut last = 0.0;
        for a in ArrivalGenerator::new(&spec) {
            assert!(a.at.seconds() > last);
            assert!(a.at.seconds() < 500.0);
            assert!(a.tenant < 8);
            last = a.at.seconds();
        }
    }

    #[test]
    fn same_seed_same_trace_different_seed_different_trace() {
        let spec = poisson(1.0, 1_000.0, 42).with_tenants(4);
        let a: Vec<_> = ArrivalGenerator::new(&spec).collect();
        let b: Vec<_> = ArrivalGenerator::new(&spec).collect();
        assert_eq!(a, b);
        let mut other = spec;
        other.seed = 43;
        let c: Vec<_> = ArrivalGenerator::new(&other).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn deadlines_carry_slack_and_bounded_jitter() {
        let spec = poisson(1.0, 1_000.0, 9).with_deadlines(Seconds::new(60.0), 0.5);
        for a in ArrivalGenerator::new(&spec) {
            let d = a.deadline.expect("slack configured").seconds();
            let slack = d - a.at.seconds();
            assert!((60.0..90.0).contains(&slack), "{slack}");
        }
        let bare = poisson(1.0, 1_000.0, 9);
        assert!(ArrivalGenerator::new(&bare).all(|a| a.deadline.is_none()));
    }

    #[test]
    fn bursts_cluster_arrivals() {
        let spec = ArrivalSpec {
            process: ArrivalProcess::OnOffBurst {
                on_rate_per_second: 10.0,
                off_rate_per_second: 0.0,
                mean_on_duration: Seconds::new(10.0),
                mean_off_duration: Seconds::new(100.0),
            },
            ..poisson(0.0, 20_000.0, 11)
        };
        let arrivals: Vec<_> = ArrivalGenerator::new(&spec).collect();
        assert!(arrivals.len() > 100, "{}", arrivals.len());
        // Mean rate ≈ 10 × 10/110 ≈ 0.9/s, far below the on-rate: the
        // same count under plain Poisson at the on-rate would be 200 000.
        assert!(arrivals.len() < 40_000);
        // Bursty: the median gap is much smaller than the mean gap.
        let mut gaps: Vec<f64> = arrivals
            .windows(2)
            .map(|w| w[1].at.seconds() - w[0].at.seconds())
            .collect();
        gaps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = gaps[gaps.len() / 2];
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!(median * 3.0 < mean, "median {median} mean {mean}");
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let spec = ArrivalSpec {
            process: ArrivalProcess::OnOffBurst {
                on_rate_per_second: 4.0,
                off_rate_per_second: 0.5,
                mean_on_duration: Seconds::new(20.0),
                mean_off_duration: Seconds::new(50.0),
            },
            ..poisson(0.0, 5_000.0, 21)
        }
        .with_tenants(16)
        .with_deadlines(Seconds::new(120.0), 0.25);
        let mut full = ArrivalGenerator::new(&spec);
        let head: Vec<_> = (0..500).filter_map(|_| full.next_arrival()).collect();
        assert_eq!(head.len(), 500);
        let state = full.state();
        // Round-trip the state through JSON, as a crash-recovery would.
        let restored_state = ArrivalState::from_json(&state.to_json()).unwrap();
        assert_eq!(state, restored_state);
        let resumed = ArrivalGenerator::restore(&spec, &restored_state);
        let tail_full: Vec<_> = full.collect();
        let tail_resumed: Vec<_> = resumed.collect();
        assert_eq!(tail_full, tail_resumed);
    }

    #[test]
    fn state_json_rejects_malformed_input() {
        assert!(ArrivalState::from_json("{}").is_err());
        assert!(ArrivalState::from_json("not json").is_err());
        let state = ArrivalGenerator::new(&poisson(1.0, 10.0, 1)).state();
        let mut mangled = state;
        mangled.phase_ends_at = f64::INFINITY;
        // ∞ maps to null and back.
        let back = ArrivalState::from_json(&mangled.to_json()).unwrap();
        assert_eq!(back, mangled);
    }

    #[test]
    fn malformed_specs_clamp_instead_of_panicking() {
        let nasty = ArrivalSpec {
            process: ArrivalProcess::OnOffBurst {
                on_rate_per_second: f64::NAN,
                off_rate_per_second: -3.0,
                mean_on_duration: Seconds::new(f64::INFINITY),
                mean_off_duration: Seconds::new(-1.0),
            },
            tenants: 0,
            horizon: Seconds::new(f64::NAN),
            deadline_slack: Seconds::new(-5.0),
            deadline_jitter_fraction: f64::NAN,
            seed: 0,
        };
        let clean = nasty.sanitised();
        match clean.process {
            ArrivalProcess::OnOffBurst {
                on_rate_per_second,
                off_rate_per_second,
                mean_on_duration,
                mean_off_duration,
            } => {
                assert_eq!(on_rate_per_second, 0.0);
                assert_eq!(off_rate_per_second, 0.0);
                assert_eq!(mean_on_duration, Seconds::new(1.0));
                assert_eq!(mean_off_duration, Seconds::new(1.0));
            }
            ArrivalProcess::Poisson { .. } => panic!("process kind must survive"),
        }
        assert_eq!(clean.tenants, 1);
        assert_eq!(clean.horizon, Seconds::ZERO);
        assert_eq!(clean.deadline_slack, Seconds::ZERO);
        assert_eq!(clean.deadline_jitter_fraction, 0.0);
        // Both rates zero: the generator terminates immediately.
        assert_eq!(ArrivalGenerator::new(&clean).count(), 0);
        // A silent plain-Poisson stream also terminates.
        assert_eq!(
            ArrivalGenerator::new(&poisson(-1.0, 100.0, 5)).count(),
            0,
            "negative rate clamps to silence"
        );
    }
}
