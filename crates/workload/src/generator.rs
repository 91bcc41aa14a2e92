//! Open-loop load shapes (§4.1): diurnal, spiky, and replayed arrivals.
//!
//! Constant and exponential (Poisson) processes live in
//! [`firm_sim::arrival`]; this module adds the time-varying shapes the
//! paper drives its benchmarks with.

use std::sync::Arc;

use firm_sim::{ArrivalProcess, ArrivalRecord, SimDuration, SimRng, SimTime};

/// Sinusoidal diurnal load: `rate(t) = base · (1 + amplitude·sin(2πt/p))`.
#[derive(Debug, Clone)]
pub struct DiurnalArrivals {
    base: f64,
    amplitude: f64,
    period: SimDuration,
}

impl DiurnalArrivals {
    /// Creates a diurnal process.
    ///
    /// # Panics
    ///
    /// Panics unless `base > 0`, `0 ≤ amplitude < 1`, and `period > 0`.
    pub fn new(base: f64, amplitude: f64, period: SimDuration) -> Self {
        assert!(base > 0.0, "base rate must be positive");
        assert!(
            (0.0..1.0).contains(&amplitude),
            "amplitude must be in [0, 1)"
        );
        assert!(period > SimDuration::ZERO, "period must be positive");
        DiurnalArrivals {
            base,
            amplitude,
            period,
        }
    }

    fn rate_at(&self, now: SimTime) -> f64 {
        let phase = (now.as_secs_f64() / self.period.as_secs_f64()) * std::f64::consts::TAU;
        self.base * (1.0 + self.amplitude * phase.sin())
    }
}

impl ArrivalProcess for DiurnalArrivals {
    fn next_interarrival(&mut self, now: SimTime, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(rng.exponential(self.rate_at(now)))
    }

    fn nominal_rate(&self, now: SimTime) -> f64 {
        self.rate_at(now)
    }
}

/// Periodic load spikes: base Poisson rate with multiplicative bursts.
#[derive(Debug, Clone)]
pub struct SpikeArrivals {
    base: f64,
    spike_multiplier: f64,
    spike_every: SimDuration,
    spike_duration: SimDuration,
}

impl SpikeArrivals {
    /// Creates a spiky process: every `spike_every`, the rate jumps to
    /// `base · spike_multiplier` for `spike_duration`.
    ///
    /// # Panics
    ///
    /// Panics unless rates and durations are positive and the spike fits
    /// in its period.
    pub fn new(
        base: f64,
        spike_multiplier: f64,
        spike_every: SimDuration,
        spike_duration: SimDuration,
    ) -> Self {
        assert!(base > 0.0 && spike_multiplier >= 1.0, "invalid rates");
        assert!(
            SimDuration::ZERO < spike_duration && spike_duration < spike_every,
            "spike must fit in its period"
        );
        SpikeArrivals {
            base,
            spike_multiplier,
            spike_every,
            spike_duration,
        }
    }

    fn rate_at(&self, now: SimTime) -> f64 {
        let into_period = now.as_micros() % self.spike_every.as_micros();
        if into_period < self.spike_duration.as_micros() {
            self.base * self.spike_multiplier
        } else {
            self.base
        }
    }
}

impl ArrivalProcess for SpikeArrivals {
    fn next_interarrival(&mut self, now: SimTime, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(rng.exponential(self.rate_at(now)))
    }

    fn nominal_rate(&self, now: SimTime) -> f64 {
        self.rate_at(now)
    }
}

/// A recorded arrival sequence: absolute arrival offsets from the start
/// of an episode, plus the span the recording covers.
///
/// A trace is plain, cheaply clonable data (the offsets live behind an
/// [`Arc`]), so it can sit inside a scenario catalog and be compared,
/// stored, and shipped to worker threads like any other load shape.
/// Build one from a live run's [`firm_sim::Simulation::arrival_log`]
/// with [`ReplayTrace::from_records`], or synthesize an "incident
/// recording" from any other shape with [`ReplayTrace::synthesize`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayTrace {
    /// Arrival offsets from episode start, microseconds, nondecreasing.
    offsets_us: Arc<Vec<u64>>,
    /// The span the recording covers (≥ the last offset).
    span_us: u64,
}

impl ReplayTrace {
    /// Builds a trace from raw offsets (µs from episode start).
    ///
    /// # Panics
    ///
    /// Panics if `offsets_us` is empty or unsorted, or if `span` does
    /// not cover the last offset.
    pub fn from_offsets(offsets_us: Vec<u64>, span: SimDuration) -> Self {
        assert!(!offsets_us.is_empty(), "a replay trace needs arrivals");
        assert!(
            offsets_us.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be nondecreasing"
        );
        let span_us = span.as_micros();
        assert!(
            span_us >= *offsets_us.last().expect("non-empty"),
            "span must cover the last arrival"
        );
        assert!(span_us > 0, "span must be positive");
        ReplayTrace {
            offsets_us: Arc::new(offsets_us),
            span_us,
        }
    }

    /// Builds a trace from a recorded arrival log, re-based so the first
    /// window starts at `start` and covers `span`.
    pub fn from_records(records: &[ArrivalRecord], start: SimTime, span: SimDuration) -> Self {
        let base = start.as_micros();
        let offsets = records
            .iter()
            .map(|r| r.at.as_micros().saturating_sub(base))
            .collect();
        ReplayTrace::from_offsets(offsets, span)
    }

    /// Synthesizes a recording by sampling another load shape for
    /// `duration` with a dedicated RNG stream — a deterministic stand-in
    /// for a captured production incident.
    ///
    /// # Panics
    ///
    /// Panics if the sampled shape produces no arrival within
    /// `duration`.
    pub fn synthesize(shape: &LoadShape, duration: SimDuration, seed: u64) -> Self {
        let mut process = shape.build();
        let mut rng = SimRng::new(seed);
        let mut offsets = Vec::new();
        let mut now = SimTime::ZERO;
        loop {
            let gap = process.next_interarrival(now, &mut rng);
            now += gap;
            if now.as_micros() > duration.as_micros() {
                break;
            }
            offsets.push(now.as_micros());
        }
        ReplayTrace::from_offsets(offsets, duration)
    }

    /// Number of recorded arrivals.
    pub fn len(&self) -> usize {
        self.offsets_us.len()
    }

    /// True when the trace records no arrivals (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.offsets_us.is_empty()
    }

    /// The recorded span.
    pub fn span(&self) -> SimDuration {
        SimDuration::from_micros(self.span_us)
    }

    /// Arrival offsets from episode start, µs.
    pub fn offsets_us(&self) -> &[u64] {
        &self.offsets_us
    }

    /// Mean arrival rate over the recorded span, req/s.
    pub fn mean_rate(&self) -> f64 {
        self.offsets_us.len() as f64 / (self.span_us as f64 / 1e6)
    }

    /// Per-second arrival counts over the span (the replay's
    /// nominal-rate profile).
    fn second_buckets(&self) -> Vec<f64> {
        let n = self.span_us.div_ceil(1_000_000).max(1) as usize;
        let mut buckets = vec![0.0; n];
        for &off in self.offsets_us.iter() {
            let idx = ((off / 1_000_000) as usize).min(n - 1);
            buckets[idx] += 1.0;
        }
        buckets
    }
}

/// Replays a [`ReplayTrace`] as an [`ArrivalProcess`]: arrivals land at
/// exactly the recorded offsets. When the trace is exhausted it wraps
/// around, repeating the recording from the episode's next multiple of
/// the span — so a 30 s incident recording can drive a 120 s run.
#[derive(Debug, Clone)]
pub struct ReplayArrivals {
    trace: ReplayTrace,
    /// Next offset index to replay.
    idx: usize,
    /// Absolute µs base of the current repetition of the trace.
    cycle_base_us: u64,
    /// Per-second rate profile for `nominal_rate`.
    buckets: Vec<f64>,
}

impl ReplayArrivals {
    /// Creates the process from a recording.
    pub fn new(trace: ReplayTrace) -> Self {
        let buckets = trace.second_buckets();
        ReplayArrivals {
            trace,
            idx: 0,
            cycle_base_us: 0,
            buckets,
        }
    }
}

impl ArrivalProcess for ReplayArrivals {
    fn next_interarrival(&mut self, now: SimTime, _rng: &mut SimRng) -> SimDuration {
        if self.idx >= self.trace.offsets_us().len() {
            self.idx = 0;
            self.cycle_base_us += self.trace.span_us;
        }
        let target = self.cycle_base_us + self.trace.offsets_us()[self.idx];
        self.idx += 1;
        SimDuration::from_micros(target.saturating_sub(now.as_micros()))
    }

    fn nominal_rate(&self, now: SimTime) -> f64 {
        let into = now.as_micros() % self.trace.span_us;
        let idx = ((into / 1_000_000) as usize).min(self.buckets.len() - 1);
        self.buckets[idx]
    }
}

/// A declarative arrival-shape specification, the load half of a fleet
/// scenario.
///
/// Scenario catalogs need load shapes that can be written down as plain
/// data (named, compared, stored in tables) and only turned into a live
/// [`ArrivalProcess`] when a simulation is built. The synthetic shapes
/// cover the paper's §4.1 regimes — steady Poisson traffic, diurnal
/// (sinusoidal) variation, and flash crowds (periodic multiplicative
/// bursts) — and [`LoadShape::Replay`] feeds a recorded arrival trace
/// back in verbatim, so catalogs can re-run captured incidents instead
/// of synthetic curves.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadShape {
    /// Poisson arrivals at a fixed rate (req/s).
    Steady {
        /// Mean arrival rate, req/s.
        rate: f64,
    },
    /// Sinusoidal rate: `base · (1 + amplitude·sin(2πt/period))`.
    Diurnal {
        /// Mean arrival rate, req/s.
        base: f64,
        /// Relative swing in `[0, 1)`.
        amplitude: f64,
        /// Oscillation period, seconds.
        period_secs: u64,
    },
    /// Flash crowd: every `every_secs`, the rate jumps to
    /// `base · multiplier` for `crest_secs`.
    FlashCrowd {
        /// Baseline arrival rate, req/s.
        base: f64,
        /// Burst multiplier (≥ 1).
        multiplier: f64,
        /// Burst period, seconds.
        every_secs: u64,
        /// Burst length, seconds (must be < `every_secs`).
        crest_secs: u64,
    },
    /// Replay of a recorded arrival sequence: arrivals land at exactly
    /// the recorded offsets, wrapping around when the run outlives the
    /// recording.
    Replay {
        /// The recording to replay.
        trace: ReplayTrace,
    },
}

impl LoadShape {
    /// Instantiates the live arrival process.
    ///
    /// # Panics
    ///
    /// Panics if the shape parameters violate the constructor contracts
    /// of the underlying processes (non-positive rates, oversized
    /// bursts, amplitude outside `[0, 1)`).
    pub fn build(&self) -> Box<dyn ArrivalProcess> {
        match self {
            LoadShape::Steady { rate } => Box::new(firm_sim::PoissonArrivals::new(*rate)),
            LoadShape::Diurnal {
                base,
                amplitude,
                period_secs,
            } => Box::new(DiurnalArrivals::new(
                *base,
                *amplitude,
                SimDuration::from_secs(*period_secs),
            )),
            LoadShape::FlashCrowd {
                base,
                multiplier,
                every_secs,
                crest_secs,
            } => Box::new(SpikeArrivals::new(
                *base,
                *multiplier,
                SimDuration::from_secs(*every_secs),
                SimDuration::from_secs(*crest_secs),
            )),
            LoadShape::Replay { trace } => Box::new(ReplayArrivals::new(trace.clone())),
        }
    }

    /// The time-averaged arrival rate of the shape, req/s.
    pub fn mean_rate(&self) -> f64 {
        match self {
            LoadShape::Steady { rate } => *rate,
            // The sinusoid integrates to its base over a full period.
            LoadShape::Diurnal { base, .. } => *base,
            LoadShape::FlashCrowd {
                base,
                multiplier,
                every_secs,
                crest_secs,
            } => {
                let crest_frac = *crest_secs as f64 / *every_secs as f64;
                base * (1.0 + (multiplier - 1.0) * crest_frac)
            }
            LoadShape::Replay { trace } => trace.mean_rate(),
        }
    }

    /// Returns the shape with its rate axis multiplied by `factor` —
    /// the arrival-rate half of the catalog `scale_factor` knob.
    /// Relative parameters (amplitude, multiplier, periods) and replay
    /// recordings are untouched: a replayed incident is a fixed
    /// arrival sequence, so scaling it would fabricate arrivals that
    /// were never recorded.
    pub fn scaled(self, factor: f64) -> LoadShape {
        match self {
            LoadShape::Steady { rate } => LoadShape::Steady {
                rate: rate * factor,
            },
            LoadShape::Diurnal {
                base,
                amplitude,
                period_secs,
            } => LoadShape::Diurnal {
                base: base * factor,
                amplitude,
                period_secs,
            },
            LoadShape::FlashCrowd {
                base,
                multiplier,
                every_secs,
                crest_secs,
            } => LoadShape::FlashCrowd {
                base: base * factor,
                multiplier,
                every_secs,
                crest_secs,
            },
            replay @ LoadShape::Replay { .. } => replay,
        }
    }

    /// A short label for reports (`steady@100`, `diurnal@80±50%`,
    /// `flash@60x4`, `replay@105x7432`).
    pub fn label(&self) -> String {
        match self {
            LoadShape::Steady { rate } => format!("steady@{rate:.0}"),
            LoadShape::Diurnal {
                base, amplitude, ..
            } => format!("diurnal@{base:.0}\u{b1}{:.0}%", amplitude * 100.0),
            LoadShape::FlashCrowd {
                base, multiplier, ..
            } => format!("flash@{base:.0}x{multiplier:.0}"),
            LoadShape::Replay { trace } => {
                format!("replay@{:.0}x{}", trace.mean_rate(), trace.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_rate(p: &mut dyn ArrivalProcess, from: SimTime, n: usize) -> f64 {
        let mut rng = SimRng::new(7);
        let total: f64 = (0..n)
            .map(|_| p.next_interarrival(from, &mut rng).as_secs_f64())
            .sum();
        n as f64 / total
    }

    #[test]
    fn diurnal_rate_oscillates() {
        let p = DiurnalArrivals::new(100.0, 0.5, SimDuration::from_secs(100));
        assert!((p.nominal_rate(SimTime::ZERO) - 100.0).abs() < 1e-9);
        // Peak at a quarter period.
        assert!((p.nominal_rate(SimTime::from_secs(25)) - 150.0).abs() < 0.1);
        // Trough at three quarters.
        assert!((p.nominal_rate(SimTime::from_secs(75)) - 50.0).abs() < 0.1);
        let mut p = p;
        let measured = mean_rate(&mut p, SimTime::from_secs(25), 20_000);
        assert!((measured - 150.0).abs() < 7.0, "measured {measured}");
    }

    #[test]
    fn spikes_multiply_rate() {
        let p = SpikeArrivals::new(
            100.0,
            5.0,
            SimDuration::from_secs(60),
            SimDuration::from_secs(10),
        );
        assert_eq!(p.nominal_rate(SimTime::from_secs(5)), 500.0);
        assert_eq!(p.nominal_rate(SimTime::from_secs(30)), 100.0);
        assert_eq!(p.nominal_rate(SimTime::from_secs(65)), 500.0);
    }

    #[test]
    #[should_panic(expected = "fit in its period")]
    fn oversized_spike_rejected() {
        SpikeArrivals::new(
            100.0,
            2.0,
            SimDuration::from_secs(10),
            SimDuration::from_secs(20),
        );
    }

    #[test]
    fn load_shapes_build_and_report_rates() {
        let shapes = [
            LoadShape::Steady { rate: 100.0 },
            LoadShape::Diurnal {
                base: 80.0,
                amplitude: 0.5,
                period_secs: 120,
            },
            LoadShape::FlashCrowd {
                base: 60.0,
                multiplier: 4.0,
                every_secs: 60,
                crest_secs: 15,
            },
        ];
        for shape in &shapes {
            let p = shape.build();
            assert!(p.nominal_rate(SimTime::ZERO) > 0.0, "{}", shape.label());
            assert!(shape.mean_rate() > 0.0);
            assert!(!shape.label().is_empty());
        }
        assert_eq!(shapes[0].mean_rate(), 100.0);
        assert_eq!(shapes[1].mean_rate(), 80.0);
        // 60·(1 + 3·0.25) = 105.
        assert!((shapes[2].mean_rate() - 105.0).abs() < 1e-9);
    }

    #[test]
    fn replay_reproduces_recorded_offsets_exactly() {
        let trace = ReplayTrace::synthesize(
            &LoadShape::FlashCrowd {
                base: 100.0,
                multiplier: 4.0,
                every_secs: 10,
                crest_secs: 2,
            },
            SimDuration::from_secs(12),
            9,
        );
        assert!(trace.len() > 500, "only {} arrivals", trace.len());

        // Driving the process from t=0 reproduces every offset exactly,
        // regardless of the RNG handed in.
        let mut p = ReplayArrivals::new(trace.clone());
        let mut rng = SimRng::new(12345);
        let mut now = SimTime::ZERO;
        let mut replayed = Vec::with_capacity(trace.len());
        for _ in 0..trace.len() {
            now += p.next_interarrival(now, &mut rng);
            replayed.push(now.as_micros());
        }
        assert_eq!(replayed, trace.offsets_us());

        // The next arrival wraps into the second repetition of the span.
        now += p.next_interarrival(now, &mut rng);
        assert_eq!(
            now.as_micros(),
            trace.span().as_micros() + trace.offsets_us()[0]
        );
    }

    #[test]
    fn replay_nominal_rate_follows_the_recorded_burst() {
        let shape = LoadShape::FlashCrowd {
            base: 80.0,
            multiplier: 5.0,
            every_secs: 20,
            crest_secs: 4,
        };
        let trace = ReplayTrace::synthesize(&shape, SimDuration::from_secs(20), 11);
        let replay = ReplayArrivals::new(trace.clone());
        // Crest seconds see several times the base rate.
        let crest = replay.nominal_rate(SimTime::from_secs(1));
        let quiet = replay.nominal_rate(SimTime::from_secs(12));
        assert!(crest > quiet * 2.0, "crest {crest} quiet {quiet}");
        // Replay mean tracks the source shape's mean.
        assert!(
            (trace.mean_rate() - shape.mean_rate()).abs() < shape.mean_rate() * 0.2,
            "trace {} shape {}",
            trace.mean_rate(),
            shape.mean_rate()
        );
    }

    #[test]
    #[should_panic(expected = "nondecreasing")]
    fn unsorted_replay_offsets_rejected() {
        ReplayTrace::from_offsets(vec![5, 3], SimDuration::from_secs(1));
    }
}
