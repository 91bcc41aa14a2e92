//! Wire-codec impls for fleet data: the full coordinator↔worker
//! vocabulary.
//!
//! A [`Scenario`] is everything a remote worker needs to reproduce a
//! run bit-for-bit, so it encodes *all* of its plain data — benchmark,
//! load shape (replay traces included), campaign, controller params.
//! Outcomes and reports keep their derived fields (`violation_rate`,
//! totals) in the rendered document for human readers, but decoding
//! recomputes them from the underlying measurements, so a decoded
//! report is internally consistent by construction.
//!
//! `benchmark` / `controller` labels decode back to the same `&'static
//! str` instances the in-process path uses, via [`Benchmark`]'s wire
//! decode and [`FleetController`]'s label set.

use firm_wire::{wire_struct, DecodeError, JsonValue, Obj, WireDecode, WireEncode};
use firm_workload::apps::Benchmark;

use crate::report::{FleetReport, RoundTripReport, ScenarioDelta, ScenarioOutcome};
use crate::scenario::{FleetController, Scenario};

// Hand-written (not `wire_enum!`): a label enum travels as a bare
// string, decoded by `FromStr` lookup.
impl WireEncode for FleetController {
    fn encode(&self) -> JsonValue {
        JsonValue::Str(self.label().to_string())
    }
}

impl WireDecode for FleetController {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        v.as_str()?.parse().map_err(DecodeError::new)
    }
}

wire_struct!(Scenario {
    name,
    benchmark,
    nodes,
    load,
    campaign,
    controller,
    duration as "duration_us",
    control_interval as "control_interval_us",
    warmup as "warmup_us",
    slo_factor,
    k8s,
    aimd,
    replica_factor,
    slo_penalty,
});

// Hand-written: renders the derived `violation_rate` without decoding
// it, and decodes its `&'static str` labels through `Benchmark` /
// `FleetController`.
impl WireEncode for ScenarioOutcome {
    fn encode(&self) -> JsonValue {
        Obj::new()
            .field("name", &self.name)
            .field("benchmark", self.benchmark)
            .field("controller", self.controller)
            .field("load", &self.load)
            .field("seed", self.seed)
            .field("ticks", self.ticks)
            .field("arrivals", self.arrivals)
            .field("completions", self.completions)
            .field("drops", self.drops)
            .field("slo_violations", self.slo_violations)
            .field("violation_rate", self.violation_rate())
            .field("p50_us", self.p50_us)
            .field("p99_us", self.p99_us)
            .field("mean_latency_us", self.mean_latency_us)
            .field("anomalies_injected", self.anomalies_injected)
            .field("mitigations", self.mitigations)
            .field("mean_mitigation_secs", self.mean_mitigation_secs)
            .field("transitions", self.transitions)
            .field("svm_examples", self.svm_examples)
            .build()
    }
}

impl WireDecode for ScenarioOutcome {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        // `violation_rate` is derived from completions and violations;
        // it is rendered for readers but deliberately not decoded.
        Ok(ScenarioOutcome {
            name: v.field("name")?,
            benchmark: v.field::<Benchmark>("benchmark")?.name(),
            controller: v.field::<FleetController>("controller")?.label(),
            load: v.field("load")?,
            seed: v.field("seed")?,
            ticks: v.field("ticks")?,
            arrivals: v.field("arrivals")?,
            completions: v.field("completions")?,
            drops: v.field("drops")?,
            slo_violations: v.field("slo_violations")?,
            p50_us: v.field("p50_us")?,
            p99_us: v.field("p99_us")?,
            mean_latency_us: v.field("mean_latency_us")?,
            anomalies_injected: v.field("anomalies_injected")?,
            mitigations: v.field("mitigations")?,
            mean_mitigation_secs: v.field("mean_mitigation_secs")?,
            transitions: v.field("transitions")?,
            svm_examples: v.field("svm_examples")?,
        })
    }
}

// Hand-written: `totals` is rendered for readers and recomputed on
// decode.
impl WireEncode for FleetReport {
    fn encode(&self) -> JsonValue {
        let t = &self.totals;
        let totals = Obj::new()
            .field("scenarios", t.scenarios)
            .field("arrivals", t.arrivals)
            .field("completions", t.completions)
            .field("drops", t.drops)
            .field("slo_violations", t.slo_violations)
            .field("violation_rate", t.violation_rate())
            .field("worst_p99_us", t.worst_p99_us)
            .field("anomalies_injected", t.anomalies_injected)
            .field("mitigations", t.mitigations)
            .field("transitions", t.transitions)
            .field("svm_examples", t.svm_examples)
            .build();
        Obj::new()
            .field("seed", self.seed)
            .field("totals", totals)
            .field("scenarios", &self.scenarios)
            .build()
    }
}

impl WireDecode for FleetReport {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        // Totals are re-aggregated from the per-scenario outcomes (the
        // same way the in-process collector builds them), so a decoded
        // report can never carry inconsistent aggregates.
        let seed: u64 = v.field("seed")?;
        let scenarios: Vec<ScenarioOutcome> = v.field("scenarios")?;
        Ok(FleetReport::new(seed, scenarios))
    }
}

// Hand-written: `controller` decodes through `FleetController` to its
// `&'static str` label.
impl WireEncode for ScenarioDelta {
    fn encode(&self) -> JsonValue {
        Obj::new()
            .field("name", &self.name)
            .field("controller", self.controller)
            .field("train_violation_rate", self.train_violation_rate)
            .field("deploy_violation_rate", self.deploy_violation_rate)
            .field("train_p99_us", self.train_p99_us)
            .field("deploy_p99_us", self.deploy_p99_us)
            .field(
                "train_mean_mitigation_secs",
                self.train_mean_mitigation_secs,
            )
            .field(
                "deploy_mean_mitigation_secs",
                self.deploy_mean_mitigation_secs,
            )
            .build()
    }
}

impl WireDecode for ScenarioDelta {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        Ok(ScenarioDelta {
            name: v.field("name")?,
            controller: v.field::<FleetController>("controller")?.label(),
            train_violation_rate: v.field("train_violation_rate")?,
            deploy_violation_rate: v.field("deploy_violation_rate")?,
            train_p99_us: v.field("train_p99_us")?,
            deploy_p99_us: v.field("deploy_p99_us")?,
            train_mean_mitigation_secs: v.field("train_mean_mitigation_secs")?,
            deploy_mean_mitigation_secs: v.field("deploy_mean_mitigation_secs")?,
        })
    }
}

// Hand-written: decode validates that the two passes line up and
// recomputes `deltas`.
impl WireEncode for RoundTripReport {
    fn encode(&self) -> JsonValue {
        Obj::new()
            .field("train", &self.train)
            .field("deploy", &self.deploy)
            .field("deltas", &self.deltas)
            .build()
    }
}

impl WireDecode for RoundTripReport {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        // Deltas are derived by pairing the two passes; `new` recomputes
        // them (and re-checks the catalogs line up). Mismatched passes
        // surface as a decode error rather than the constructor panic.
        let train: FleetReport = v.field("train")?;
        let deploy: FleetReport = v.field("deploy")?;
        if train.scenarios.len() != deploy.scenarios.len()
            || train
                .scenarios
                .iter()
                .zip(&deploy.scenarios)
                .any(|(t, d)| t.name != d.name)
        {
            return Err(DecodeError::new(
                "train and deploy passes cover different catalogs",
            ));
        }
        Ok(RoundTripReport::new(train, deploy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::builtin_catalog;
    use firm_wire::{assert_round_trip, decode_string, encode_string};

    fn outcome(name: &str) -> ScenarioOutcome {
        ScenarioOutcome {
            name: name.into(),
            benchmark: "Social Network",
            controller: "FIRM",
            load: "steady@250".into(),
            seed: 0xDEAD_BEEF_CAFE_F00D,
            ticks: 30,
            arrivals: 110,
            completions: 100,
            drops: 1,
            slo_violations: 10,
            p50_us: 1_500,
            p99_us: 5_000,
            mean_latency_us: 2_000.25,
            anomalies_injected: 4,
            mitigations: 3,
            mean_mitigation_secs: 2.5,
            transitions: 20,
            svm_examples: 200,
        }
    }

    #[test]
    fn controllers_round_trip() {
        for ctl in [
            FleetController::Unmanaged,
            FleetController::Firm,
            FleetController::K8sHpa,
            FleetController::Aimd,
        ] {
            assert_round_trip(&ctl);
        }
    }

    #[test]
    fn every_builtin_scenario_round_trips() {
        for scenario in builtin_catalog() {
            assert_round_trip(&scenario);
        }
        assert_eq!(
            encode_string(&builtin_catalog()[0]),
            r#"{"name":"social-steady-firm","benchmark":"Social Network","nodes":4,"load":{"shape":"steady","rate":250},"campaign":{"lambda":0.33,"kinds":["CPU Utilization","LLC Bandwidth & Capacity","Memory Bandwidth","I/O Bandwidth","Network Bandwidth"],"intensity":[0.4,1],"duration":[2000000,8000000],"target_nodes":[],"container_level":true},"controller":"FIRM","duration_us":30000000,"control_interval_us":1000000,"warmup_us":5000000,"slo_factor":1.4,"k8s":{"target_utilization":0.8,"tolerance":0.1,"max_replicas":8,"downscale_stabilization_ticks":6},"aimd":{"additive_step":1,"beta":0.9,"low_utilization":0.4,"cpu_bounds":[0.5,16]},"replica_factor":1,"slo_penalty":false}"#
        );
    }

    #[test]
    fn outcomes_round_trip_with_full_range_seeds() {
        assert_round_trip(&outcome("a"));
        let mut hostile = outcome("has \"quotes\" \\ and\ncontrol\u{7}chars");
        hostile.seed = u64::MAX;
        assert_round_trip(&hostile);
    }

    #[test]
    fn reports_round_trip_and_recompute_totals() {
        let report = FleetReport::new(7, vec![outcome("a"), outcome("b")]);
        assert_round_trip(&report);
        let back: FleetReport = decode_string(&encode_string(&report)).unwrap();
        assert_eq!(back.totals, report.totals);
        assert_eq!(back.digest(), report.digest());
    }

    #[test]
    fn tampered_totals_cannot_survive_a_decode() {
        let report = FleetReport::new(7, vec![outcome("a")]);
        let tampered =
            encode_string(&report).replace("\"completions\":100", "\"completions\":100000");
        let back: FleetReport = decode_string(&tampered).unwrap();
        // The totals were recomputed from the (tampered) scenario rows,
        // not read from the stale aggregate block.
        assert_eq!(back.totals.completions, back.scenarios[0].completions);
    }

    #[test]
    fn round_trip_reports_round_trip() {
        let train = FleetReport::new(7, vec![outcome("a"), outcome("b")]);
        let mut improved = outcome("a");
        improved.slo_violations = 2;
        let deploy = FleetReport::new(7, vec![improved, outcome("b")]);
        let rt = RoundTripReport::new(train, deploy);
        assert_round_trip(&rt);
    }

    #[test]
    fn mismatched_round_trip_passes_decode_to_an_error() {
        let doc =
            r#"{"train":{"seed":1,"scenarios":[]},"deploy":{"seed":1,"scenarios":[]},"deltas":[]}"#;
        // Empty catalogs match; now a genuinely mismatched pair.
        assert!(decode_string::<RoundTripReport>(doc).is_ok());
        let train = FleetReport::new(1, vec![outcome("a")]);
        let deploy = FleetReport::new(1, vec![outcome("b")]);
        let forged = format!(
            r#"{{"train":{},"deploy":{},"deltas":[]}}"#,
            encode_string(&train),
            encode_string(&deploy)
        );
        assert!(decode_string::<RoundTripReport>(&forged).is_err());
    }

    #[test]
    fn unknown_labels_are_decode_errors() {
        let mut bytes = encode_string(&outcome("a"));
        bytes = bytes.replace(
            "\"benchmark\":\"Social Network\"",
            "\"benchmark\":\"Mystery\"",
        );
        assert!(decode_string::<ScenarioOutcome>(&bytes).is_err());
    }
}
