//! Fleet-level results: per-scenario outcomes and their aggregate.
//!
//! A [`FleetReport`] is plain data built only from deterministic
//! per-scenario measurements, aggregated in catalog order — so for a
//! fixed `(catalog, seed)` it is byte-identical no matter how many
//! worker threads (or subprocess workers) produced it. Serialization
//! lives in [`crate::wire`]: every type here implements the symmetric
//! `WireEncode`/`WireDecode` pair, [`FleetReport::to_json`] is a thin
//! wrapper over the encoder, and [`FleetReport::digest`] folds the
//! rendered bytes through FNV-1a for cheap equality checks in tests
//! and CI.

use firm_wire::{encode_string, WireEncode};

/// Deterministic measurements from one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name (unique in the catalog).
    pub name: String,
    /// Benchmark display name.
    pub benchmark: &'static str,
    /// Controller label.
    pub controller: &'static str,
    /// Load-shape label.
    pub load: String,
    /// The derived per-scenario seed.
    pub seed: u64,
    /// Control ticks executed.
    pub ticks: u64,
    /// Client requests generated over the whole run.
    pub arrivals: u64,
    /// Requests finished post-warmup — served *or* dropped (drops are
    /// also reported separately in [`ScenarioOutcome::drops`]).
    pub completions: u64,
    /// Requests dropped post-warmup.
    pub drops: u64,
    /// Requests violating their SLO post-warmup; a dropped request
    /// counts as a violation, so shedding load never flatters
    /// [`ScenarioOutcome::violation_rate`].
    pub slo_violations: u64,
    /// Median end-to-end latency, us (post-warmup, non-dropped).
    pub p50_us: u64,
    /// 99th-percentile end-to-end latency, us.
    pub p99_us: u64,
    /// Mean end-to-end latency, us.
    pub mean_latency_us: f64,
    /// Anomalies injected by the campaign.
    pub anomalies_injected: u64,
    /// Anomalies whose violations the controller mitigated or outlasted.
    pub mitigations: u64,
    /// Mean SLO-mitigation time, seconds (0 when none fired).
    pub mean_mitigation_secs: f64,
    /// RL transitions contributed to the shared trainer.
    pub transitions: u64,
    /// SVM ground-truth examples contributed.
    pub svm_examples: u64,
}

impl ScenarioOutcome {
    /// SLO violation rate among completed requests.
    pub fn violation_rate(&self) -> f64 {
        if self.completions == 0 {
            0.0
        } else {
            self.slo_violations as f64 / self.completions as f64
        }
    }

    /// Renders the outcome as a stable JSON document (see
    /// [`crate::wire`]).
    pub fn to_json(&self) -> String {
        encode_string(self)
    }
}

/// Fleet-wide aggregates over the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FleetTotals {
    /// Scenarios executed.
    pub scenarios: u64,
    /// Requests generated across all simulations.
    pub arrivals: u64,
    /// Requests finished post-warmup (served or dropped).
    pub completions: u64,
    /// Requests dropped post-warmup.
    pub drops: u64,
    /// SLO violations post-warmup (drops included).
    pub slo_violations: u64,
    /// The worst per-scenario p99, us.
    pub worst_p99_us: u64,
    /// Anomalies injected across the fleet.
    pub anomalies_injected: u64,
    /// Mitigation measurements across the fleet.
    pub mitigations: u64,
    /// RL transitions pooled into the shared trainer.
    pub transitions: u64,
    /// SVM examples pooled into the shared trainer.
    pub svm_examples: u64,
}

impl FleetTotals {
    /// Fleet-wide SLO violation rate.
    pub fn violation_rate(&self) -> f64 {
        if self.completions == 0 {
            0.0
        } else {
            self.slo_violations as f64 / self.completions as f64
        }
    }
}

/// The aggregated result of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// The fleet seed the per-scenario seeds were derived from.
    pub seed: u64,
    /// Per-scenario outcomes, in catalog order.
    pub scenarios: Vec<ScenarioOutcome>,
    /// Fleet-wide aggregates.
    pub totals: FleetTotals,
}

impl FleetReport {
    /// Builds a report from outcomes already sorted in catalog order.
    pub fn new(seed: u64, scenarios: Vec<ScenarioOutcome>) -> Self {
        let mut totals = FleetTotals {
            scenarios: scenarios.len() as u64,
            ..FleetTotals::default()
        };
        for s in &scenarios {
            totals.arrivals += s.arrivals;
            totals.completions += s.completions;
            totals.drops += s.drops;
            totals.slo_violations += s.slo_violations;
            totals.worst_p99_us = totals.worst_p99_us.max(s.p99_us);
            totals.anomalies_injected += s.anomalies_injected;
            totals.mitigations += s.mitigations;
            totals.transitions += s.transitions;
            totals.svm_examples += s.svm_examples;
        }
        FleetReport {
            seed,
            scenarios,
            totals,
        }
    }

    /// Renders the report as a stable JSON document. Floats use Rust's
    /// shortest round-trip `Display`, so equal values always render to
    /// equal bytes — and `firm_wire::decode_string::<FleetReport>` is
    /// its exact inverse.
    pub fn to_json(&self) -> String {
        encode_string(self)
    }

    /// FNV-1a 64 over the JSON bytes, folded as the encoder renders —
    /// the digest never materializes the JSON text (equal to
    /// `fnv64(self.to_json().as_bytes())` by construction).
    pub fn digest(&self) -> u64 {
        self.encode().render_fnv64()
    }
}

/// One scenario's train-vs-deploy comparison: how the catalog entry
/// fared while the shared agent was still learning versus after the
/// frozen agent was deployed back onto it (Fig. 11b at fleet scale).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDelta {
    /// Scenario name (unique in the catalog).
    pub name: String,
    /// Controller label (deltas are most meaningful for "FIRM" rows;
    /// baseline rows double as a no-change control).
    pub controller: &'static str,
    /// SLO violation rate during the training pass.
    pub train_violation_rate: f64,
    /// SLO violation rate with the frozen policy deployed.
    pub deploy_violation_rate: f64,
    /// p99 end-to-end latency during training, us.
    pub train_p99_us: u64,
    /// p99 end-to-end latency deployed, us.
    pub deploy_p99_us: u64,
    /// Mean SLO-mitigation time during training, seconds.
    pub train_mean_mitigation_secs: f64,
    /// Mean SLO-mitigation time deployed, seconds.
    pub deploy_mean_mitigation_secs: f64,
}

impl ScenarioDelta {
    /// Renders the delta as a stable JSON document (see
    /// [`crate::wire`]).
    pub fn to_json(&self) -> String {
        encode_string(self)
    }
}

/// The result of a round-trip fleet run: the training-pass report, the
/// deployment-pass report (same catalog, same seeds, frozen shared
/// agent), and the per-scenario deltas between them.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTripReport {
    /// The training pass.
    pub train: FleetReport,
    /// The deployment (inference) pass.
    pub deploy: FleetReport,
    /// Per-scenario train-vs-deploy deltas, in catalog order.
    pub deltas: Vec<ScenarioDelta>,
}

impl RoundTripReport {
    /// Pairs two passes over the same catalog.
    ///
    /// # Panics
    ///
    /// Panics if the reports cover different catalogs (length or
    /// scenario-name mismatch).
    pub fn new(train: FleetReport, deploy: FleetReport) -> Self {
        assert_eq!(
            train.scenarios.len(),
            deploy.scenarios.len(),
            "train and deploy passes covered different catalogs"
        );
        let deltas = train
            .scenarios
            .iter()
            .zip(&deploy.scenarios)
            .map(|(t, d)| {
                assert_eq!(t.name, d.name, "catalog order diverged");
                ScenarioDelta {
                    name: t.name.clone(),
                    controller: t.controller,
                    train_violation_rate: t.violation_rate(),
                    deploy_violation_rate: d.violation_rate(),
                    train_p99_us: t.p99_us,
                    deploy_p99_us: d.p99_us,
                    train_mean_mitigation_secs: t.mean_mitigation_secs,
                    deploy_mean_mitigation_secs: d.mean_mitigation_secs,
                }
            })
            .collect();
        RoundTripReport {
            train,
            deploy,
            deltas,
        }
    }

    /// Renders the full round trip as one stable JSON document, the
    /// exact inverse of `firm_wire::decode_string::<RoundTripReport>`.
    pub fn to_json(&self) -> String {
        encode_string(self)
    }

    /// FNV-1a 64 over the JSON bytes, streamed (see
    /// [`FleetReport::digest`]).
    pub fn digest(&self) -> u64 {
        self.encode().render_fnv64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(name: &str, completions: u64, p99: u64) -> ScenarioOutcome {
        ScenarioOutcome {
            name: name.into(),
            benchmark: "Social Network",
            controller: "FIRM",
            load: "steady@100".into(),
            seed: 7,
            ticks: 30,
            arrivals: completions + 10,
            completions,
            drops: 1,
            slo_violations: completions / 10,
            p50_us: p99 / 3,
            p99_us: p99,
            mean_latency_us: p99 as f64 / 2.5,
            anomalies_injected: 4,
            mitigations: 3,
            mean_mitigation_secs: 2.5,
            transitions: 20,
            svm_examples: 200,
        }
    }

    #[test]
    fn totals_aggregate_in_order() {
        let r = FleetReport::new(1, vec![outcome("a", 100, 5_000), outcome("b", 50, 9_000)]);
        assert_eq!(r.totals.scenarios, 2);
        assert_eq!(r.totals.completions, 150);
        assert_eq!(r.totals.worst_p99_us, 9_000);
        assert_eq!(r.totals.transitions, 40);
        assert!((r.totals.violation_rate() - 15.0 / 150.0).abs() < 1e-12);
    }

    #[test]
    fn json_escapes_hostile_names() {
        let mut o = outcome("has \"quotes\" and \\slash\\", 10, 1_000);
        o.load = "tab\there".into();
        let r = FleetReport::new(1, vec![o]);
        let json = r.to_json();
        assert!(json.contains(r#"has \"quotes\" and \\slash\\"#));
        assert!(json.contains(r"tab\there"));
        // Still balanced after escaping.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn hostile_scenario_names_survive_the_wire_round_trip() {
        // Quotes, backslashes, every class of control character, and
        // non-ASCII text: decode(encode(x)) == x via the wire codec.
        let hostile = "q\"uote \\slash\\ new\nline cr\r tab\t bell\u{7} nul\u{0} esc\u{1b} end";
        let mut o = outcome(hostile, 10, 1_000);
        o.load = "load\"with\\evil\u{2}chars \u{65e5}\u{1f600}".into();
        let r = FleetReport::new(1, vec![o]);
        let json = r.to_json();

        // The document stays structurally sound...
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains('\n'), "raw control character leaked");
        assert!(!json.contains('\u{7}'), "raw control character leaked");

        // ...and decodes back to the original report, field for field.
        let back: FleetReport = firm_wire::decode_string(&json).expect("report parses");
        assert_eq!(back, r);
        assert_eq!(back.scenarios[0].name, hostile);
    }

    #[test]
    fn round_trip_report_pairs_scenarios_and_renders() {
        let train = FleetReport::new(1, vec![outcome("a", 100, 9_000), outcome("b", 50, 5_000)]);
        let mut better = outcome("a", 100, 6_000);
        better.slo_violations = 2;
        let deploy = FleetReport::new(1, vec![better, outcome("b", 50, 5_000)]);
        let rt = RoundTripReport::new(train, deploy);
        assert_eq!(rt.deltas.len(), 2);
        let a = &rt.deltas[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.train_p99_us, 9_000);
        assert_eq!(a.deploy_p99_us, 6_000);
        let json = rt.to_json();
        assert!(json.contains("\"deltas\":["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(rt.digest(), rt.clone().digest());
    }

    #[test]
    #[should_panic(expected = "different catalogs")]
    fn round_trip_report_rejects_mismatched_catalogs() {
        let train = FleetReport::new(1, vec![outcome("a", 100, 9_000)]);
        let deploy = FleetReport::new(1, vec![]);
        RoundTripReport::new(train, deploy);
    }

    /// The streamed digest must stay interchangeable with hashing the
    /// rendered document — this is what keeps historical pinned digests
    /// (e.g. the seed-7 catalog golden) valid across the change.
    #[test]
    fn streamed_digest_matches_hash_of_rendered_json() {
        let mut hostile = outcome("na\"me\\ with \n controls \u{3}", 10, 1_000);
        hostile.load = "l\u{1b}oad \u{65e5}".into();
        let r = FleetReport::new(9, vec![outcome("a", 100, 5_000), hostile]);
        assert_eq!(r.digest(), firm_wire::fnv64(r.to_json().as_bytes()));
        let rt = RoundTripReport::new(r.clone(), r.clone());
        assert_eq!(rt.digest(), firm_wire::fnv64(rt.to_json().as_bytes()));
    }

    #[test]
    fn json_is_stable_and_digest_detects_change() {
        let a = FleetReport::new(1, vec![outcome("a", 100, 5_000)]);
        let b = FleetReport::new(1, vec![outcome("a", 100, 5_000)]);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.digest(), b.digest());
        let c = FleetReport::new(1, vec![outcome("a", 101, 5_000)]);
        assert_ne!(a.digest(), c.digest());
        // Sanity: the document parses as JSON-ish (balanced braces).
        let json = a.to_json();
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
