//! The paper's figures and tables, and the harness code they share.
//!
//! [`paper`] holds one module per figure or table of the paper (the
//! README's "Reproducing the paper's figures and tables" lists them);
//! the `paper` binary runs one by name. Each prints the rows/series the
//! paper plots, plus a `[paper]` reference line so the shapes can be
//! compared at a glance, and accepts `--key value` arguments ([`Args`])
//! for the knobs that trade fidelity for runtime (episodes, seconds,
//! rates). The experiment setup several figures share lives here:
//! `calibrated_app`, `poisson_sim`, `training_config` and
//! `CampaignEpisode`. The crate's other binary, `chaos_soak`, is the
//! fleet's fault-injection soak, not a figure.

use firm_core::controller::{run_episode, Controller, EpisodeResult, EpisodeSpec};
use firm_core::injector::{AnomalyInjector, CampaignConfig};
use firm_core::training::TrainingConfig;
use firm_sim::spec::{AppSpec, ClusterSpec};
use firm_sim::{Histogram, PoissonArrivals, SimDuration, Simulation};
use firm_workload::apps::Benchmark;

pub mod paper;

/// Parses the `--key value` pairs of a command line.
///
/// A typo must not silently run the default experiment: a key with no
/// value, a value that is itself a `--key`, a stray token, or a value
/// that does not parse as the requested number (or list of numbers)
/// prints the offending pair and exits with status 2.
#[derive(Debug, Clone)]
pub struct Args {
    pairs: Vec<(String, String)>,
}

/// Reports a malformed command line and exits with status 2.
fn usage_error(message: String) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

impl Args {
    /// Collects arguments from raw `--key value` tokens.
    pub fn parse(raw: impl IntoIterator<Item = String>) -> Self {
        Self::from_raw(raw).unwrap_or_else(|e| usage_error(e))
    }

    /// Pairs up raw `--key value` tokens, rejecting anything else.
    fn from_raw(raw: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut raw = raw.into_iter();
        let mut pairs = Vec::new();
        while let Some(token) = raw.next() {
            let Some(key) = token.strip_prefix("--") else {
                return Err(format!("expected a `--key`, found `{token}`"));
            };
            match raw.next() {
                Some(value) if !value.starts_with("--") => pairs.push((key.to_string(), value)),
                Some(value) => return Err(format!("`{token}` has no value (next is `{value}`)")),
                None => return Err(format!("`{token}` has no value")),
            }
        }
        Ok(Args { pairs })
    }

    /// A `u64` argument with a default.
    pub fn u64(&self, key: &str, default: u64) -> u64 {
        self.parsed(key, default).unwrap_or_else(|e| usage_error(e))
    }

    /// A `u64` argument with a default, rejected below `min` (a count
    /// the binary divides by or indexes with).
    pub fn u64_at_least(&self, key: &str, default: u64, min: u64) -> u64 {
        self.parsed_at_least(key, default, min)
            .unwrap_or_else(|e| usage_error(e))
    }

    fn parsed_at_least(&self, key: &str, default: u64, min: u64) -> Result<u64, String> {
        let v = self.parsed(key, default)?;
        if v < min {
            return Err(format!("`--{key} {v}` is below the minimum of {min}"));
        }
        Ok(v)
    }

    /// An `f64` argument with a default.
    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.parsed(key, default).unwrap_or_else(|e| usage_error(e))
    }

    /// The value of `key` parsed as `T`; `default` only when absent.
    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| {
                format!(
                    "`--{key} {v}` is not a valid {}",
                    std::any::type_name::<T>()
                )
            }),
        }
    }

    /// A comma-separated list argument with a default.
    pub fn list<T: std::str::FromStr + Clone>(&self, key: &str, default: &[T]) -> Vec<T> {
        self.parsed_list(key, default)
            .unwrap_or_else(|e| usage_error(e))
    }

    /// Every comma-separated item of `key` parsed as `T`; `default` only
    /// when absent.
    fn parsed_list<T: std::str::FromStr + Clone>(
        &self,
        key: &str,
        default: &[T],
    ) -> Result<Vec<T>, String> {
        let Some(v) = self.get(key) else {
            return Ok(default.to_vec());
        };
        v.split(',')
            .map(|item| {
                item.trim().parse().map_err(|_| {
                    format!(
                        "`--{key} {v}`: item `{item}` is not a valid {}",
                        std::any::type_name::<T>()
                    )
                })
            })
            .collect()
    }

    /// A raw argument value.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Prints a figure/table banner.
pub fn banner(id: &str, caption: &str) {
    println!("{}", "=".repeat(74));
    println!("{id} — {caption}");
    println!("{}", "=".repeat(74));
}

/// Prints a sub-section rule.
pub(crate) fn section(title: &str) {
    println!(
        "\n-- {title} {}",
        "-".repeat(68usize.saturating_sub(title.len()))
    );
}

/// Prints a `paper:` reference line for shape comparison.
pub(crate) fn paper_note(note: &str) {
    println!("  [paper] {note}");
}

/// Summary statistics of a sample in milliseconds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LatencySummary {
    /// Median, ms.
    pub p50_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
}

/// Summarizes a latency sample given in microseconds.
pub(crate) fn summarize_us(lats: Vec<f64>) -> LatencySummary {
    if lats.is_empty() {
        return LatencySummary {
            p50_ms: 0.0,
            p99_ms: 0.0,
        };
    }
    let [p50, p99] = quantiles(lats, [0.5, 0.99]);
    LatencySummary {
        p50_ms: p50 / 1e3,
        p99_ms: p99 / 1e3,
    }
}

/// The `qs` quantiles of a sample.
pub(crate) fn quantiles<const N: usize>(mut xs: Vec<f64>, qs: [f64; N]) -> [f64; N] {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    qs.map(|q| firm_sim::stats::sample_quantile(&xs, q))
}

/// Prints the CDF of a histogram (values in us, printed in ms) at the
/// canonical plotting quantiles.
pub(crate) fn print_cdf(label: &str, hist: &Histogram) {
    const QS: [f64; 9] = [0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999];
    print!("  {label:<22}");
    for q in QS {
        print!(
            " p{:<4}={:>9.2}ms",
            q * 100.0,
            hist.quantile(q) as f64 / 1e3
        );
    }
    println!("  (n={})", hist.count());
}

/// Formats a ratio as `x.x×` with a guard for division by ~zero.
pub(crate) fn factor(numerator: f64, denominator: f64) -> String {
    if denominator.abs() < 1e-12 {
        "n/a".into()
    } else {
        format!("{:.1}x", numerator / denominator)
    }
}

/// `bench` built and its SLOs calibrated at 1.4× the healthy p99 on
/// `cluster` under `rate` requests/s.
pub(crate) fn calibrated_app(
    bench: Benchmark,
    cluster: &ClusterSpec,
    rate: f64,
    seed: u64,
) -> AppSpec {
    let mut app = bench.build();
    firm_core::slo::calibrate_slos(&mut app, cluster, rate, 1.4, seed);
    app
}

/// A simulation of `app` on `cluster` under Poisson arrivals at `rate`
/// requests/s.
pub(crate) fn poisson_sim(cluster: ClusterSpec, app: AppSpec, rate: f64, seed: u64) -> Simulation {
    Simulation::builder(cluster, app, seed)
        .arrivals(Box::new(PoissonArrivals::new(rate)))
        .build()
}

/// The online-training setup the figures share: 30-tick episodes on
/// six small nodes under a λ = 0.6 campaign of intensity 0.6–1.0.
pub(crate) fn training_config(
    episodes: usize,
    ramp_episodes: usize,
    min_steps: usize,
    arrival_rate: f64,
    seed: u64,
) -> TrainingConfig {
    TrainingConfig {
        episodes,
        max_steps: 30,
        ramp_episodes,
        min_steps,
        arrival_rate,
        cluster: ClusterSpec::small(6),
        campaign: CampaignConfig {
            lambda: 0.6,
            intensity: (0.6, 1.0),
            ..Default::default()
        },
        seed,
    }
}

/// An evaluation episode under an anomaly campaign: Poisson arrivals
/// on six small nodes, 1 s control ticks, and an injector seeded from
/// the episode's seed.
pub(crate) struct CampaignEpisode {
    /// Arrival rate, requests/s.
    pub rate: f64,
    /// Campaign injection rate λ.
    pub lambda: f64,
    /// Campaign intensity range.
    pub intensity: (f64, f64),
    /// Episode length, s.
    pub seconds: u64,
    /// Leading seconds left out of the measurement.
    pub warmup_secs: u64,
}

impl CampaignEpisode {
    /// Runs `controller` on `app` for one episode.
    pub fn run(&self, app: &AppSpec, controller: &mut dyn Controller, seed: u64) -> EpisodeResult {
        let mut sim = poisson_sim(ClusterSpec::small(6), app.clone(), self.rate, seed);
        let campaign = CampaignConfig {
            lambda: self.lambda,
            intensity: self.intensity,
            ..Default::default()
        };
        let mut injector = AnomalyInjector::new(campaign, seed ^ 0xF00D);
        let spec = EpisodeSpec {
            duration: SimDuration::from_secs(self.seconds),
            control_interval: SimDuration::from_secs(1),
            warmup: SimDuration::from_secs(self.warmup_secs),
        };
        run_episode(&mut sim, controller, Some(&mut injector), &spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Args {
        fn from_pairs(pairs: &[(&str, &str)]) -> Self {
            Args {
                pairs: pairs
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
            }
        }
    }

    #[test]
    fn args_parse_pairs() {
        let a = Args::from_pairs(&[("seconds", "30"), ("rate", "2.5")]);
        assert_eq!(a.u64("seconds", 5), 30);
        assert_eq!(a.f64("rate", 1.0), 2.5);
        assert_eq!(a.u64("missing", 7), 7);
        assert_eq!(a.get("rate"), Some("2.5"));
    }

    #[test]
    fn args_reject_unparsable_values() {
        let a = Args::from_pairs(&[("seconds", "2O"), ("rate", "fast")]);
        let err = a.parsed("seconds", 5u64).expect_err("2O is not a u64");
        assert!(err.contains("--seconds 2O"), "{err}");
        let err = a.parsed("rate", 1.0f64).expect_err("fast is not an f64");
        assert!(err.contains("--rate fast"), "{err}");
        assert_eq!(a.parsed("missing", 7u64), Ok(7));
    }

    #[test]
    fn args_reject_counts_below_their_minimum() {
        let a = Args::from_pairs(&[("checkpoints", "0"), ("episodes", "1"), ("bad", "x")]);
        let err = a
            .parsed_at_least("checkpoints", 6, 1)
            .expect_err("0 is below 1");
        assert!(err.contains("--checkpoints 0"), "{err}");
        assert_eq!(a.parsed_at_least("episodes", 150, 1), Ok(1));
        assert_eq!(a.parsed_at_least("missing", 6, 1), Ok(6));
        let err = a.parsed_at_least("bad", 6, 1).expect_err("x is not a u64");
        assert!(err.contains("--bad x"), "{err}");
    }

    #[test]
    fn args_reject_valueless_and_stray_tokens() {
        let raw = |tokens: &[&str]| Args::from_raw(tokens.iter().map(|t| t.to_string()));
        let ok = raw(&["--seconds", "5", "--shift", "-2"]).expect("well-formed pairs");
        assert_eq!(ok.u64("seconds", 0), 5);
        assert_eq!(ok.f64("shift", 0.0), -2.0);
        // A valueless flag must not swallow the next key.
        let err = raw(&["--flag", "--seconds", "5"]).expect_err("flag has no value");
        assert!(err.contains("--flag") && err.contains("--seconds"), "{err}");
        let err = raw(&["--seconds", "5", "--out"]).expect_err("trailing key");
        assert!(err.contains("--out"), "{err}");
        let err = raw(&["seconds", "5"]).expect_err("stray token");
        assert!(err.contains("seconds"), "{err}");
    }

    #[test]
    fn args_reject_a_bad_list_item_instead_of_dropping_it() {
        let raw = |tokens: &[&str]| Args::from_raw(tokens.iter().map(|t| t.to_string())).unwrap();
        let a = raw(&[
            "--loads",
            "50, 100,200",
            "--typo",
            "50,1OO,200",
            "--one",
            "x",
        ]);
        assert_eq!(a.parsed_list("loads", &[1.0]), Ok(vec![50.0, 100.0, 200.0]));
        assert_eq!(a.parsed_list("missing", &[7u64, 8]), Ok(vec![7, 8]));
        let err = a
            .parsed_list("typo", &[1.0])
            .expect_err("1OO is not a number");
        assert!(
            err.contains("--typo 50,1OO,200") && err.contains("`1OO`"),
            "{err}"
        );
        assert!(
            a.parsed_list("one", &[1u64]).is_err(),
            "an all-bad list ran empty"
        );
    }

    #[test]
    fn summary_math() {
        let s = summarize_us(vec![1_000.0, 2_000.0, 3_000.0, 100_000.0]);
        assert!((s.p50_ms - 2.5).abs() < 1e-9);
        assert!(s.p99_ms > 90.0);
        assert_eq!(summarize_us(vec![]).p99_ms, 0.0);
    }

    #[test]
    fn factor_formats() {
        assert_eq!(factor(10.0, 2.0), "5.0x");
        assert_eq!(factor(1.0, 0.0), "n/a");
    }
}
