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
//! [`ScenarioOutcome`] and [`ScenarioDelta`] are `wire_struct!`
//! declarations: their `benchmark` / `controller` labels decode `via`
//! [`Benchmark`] and [`FleetController`] back to the same `&'static
//! str` instances the in-process path uses, and the outcome's
//! `violation_rate()` is rendered in place, not decoded. The two
//! reports stay hand-written because their decode recomputes.

use firm_wire::{wire_as, wire_struct, DecodeError, JsonValue, Obj, WireDecode, WireEncode};
use firm_workload::apps::Benchmark;

use crate::report::{FleetReport, RoundTripReport, ScenarioDelta, ScenarioOutcome};
use crate::scenario::{FleetController, Scenario, FLEET_CONTROLLERS};

wire_as!(FleetController by label in FLEET_CONTROLLERS);

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

wire_struct!(ScenarioOutcome {
    name,
    benchmark via Benchmark::name,
    controller via FleetController::label,
    load,
    seed,
    ticks,
    arrivals,
    completions,
    drops,
    slo_violations,
    violation_rate(),
    p50_us,
    p99_us,
    mean_latency_us,
    anomalies_injected,
    mitigations,
    mean_mitigation_secs,
    transitions,
    svm_examples,
});

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

wire_struct!(ScenarioDelta {
    name,
    controller via FleetController::label,
    train_violation_rate,
    deploy_violation_rate,
    train_p99_us,
    deploy_p99_us,
    train_mean_mitigation_secs,
    deploy_mean_mitigation_secs,
});

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
        for ctl in FLEET_CONTROLLERS {
            assert_round_trip(&ctl);
            assert_eq!(encode_string(&ctl), format!("{:?}", ctl.label()));
        }
        // A label is matched exactly: no aliases, no case folding.
        for bad in ["firm", "k8s", "unmanaged", "nonesuch", ""] {
            let err = FleetController::decode(&JsonValue::Str(bad.into())).unwrap_err();
            assert_eq!(err.msg, format!("unknown FleetController label {bad:?}"));
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
        assert_round_trip(&round_trip());
    }

    /// Two delta rows: "a" improves under the deployed policy, "b" is a
    /// `none` row whose passes agree.
    fn round_trip() -> RoundTripReport {
        let mut b = outcome("b");
        b.benchmark = "Hotel Reservation";
        b.controller = "none";
        b.mean_mitigation_secs = 0.0;
        let train = FleetReport::new(7, vec![outcome("a"), b.clone()]);
        let mut improved = outcome("a");
        improved.slo_violations = 2;
        improved.p99_us = 4_321;
        improved.mean_mitigation_secs = 1.125;
        let deploy = FleetReport::new(7, vec![improved, b]);
        RoundTripReport::new(train, deploy)
    }

    // Both literals were captured before `ScenarioOutcome` and
    // `ScenarioDelta` became `wire_struct!` declarations: a failure
    // means frame bytes moved — do not re-pin.
    const OUTCOME_GOLDEN: &str = r#"{"name":"a","benchmark":"Social Network","controller":"FIRM","load":"steady@250","seed":16045690984503111693,"ticks":30,"arrivals":110,"completions":100,"drops":1,"slo_violations":10,"violation_rate":0.1,"p50_us":1500,"p99_us":5000,"mean_latency_us":2000.25,"anomalies_injected":4,"mitigations":3,"mean_mitigation_secs":2.5,"transitions":20,"svm_examples":200}"#;
    const ROUND_TRIP_GOLDEN: &str = r#"{"train":{"seed":7,"totals":{"scenarios":2,"arrivals":220,"completions":200,"drops":2,"slo_violations":20,"violation_rate":0.1,"worst_p99_us":5000,"anomalies_injected":8,"mitigations":6,"transitions":40,"svm_examples":400},"scenarios":[{"name":"a","benchmark":"Social Network","controller":"FIRM","load":"steady@250","seed":16045690984503111693,"ticks":30,"arrivals":110,"completions":100,"drops":1,"slo_violations":10,"violation_rate":0.1,"p50_us":1500,"p99_us":5000,"mean_latency_us":2000.25,"anomalies_injected":4,"mitigations":3,"mean_mitigation_secs":2.5,"transitions":20,"svm_examples":200},{"name":"b","benchmark":"Hotel Reservation","controller":"none","load":"steady@250","seed":16045690984503111693,"ticks":30,"arrivals":110,"completions":100,"drops":1,"slo_violations":10,"violation_rate":0.1,"p50_us":1500,"p99_us":5000,"mean_latency_us":2000.25,"anomalies_injected":4,"mitigations":3,"mean_mitigation_secs":0,"transitions":20,"svm_examples":200}]},"deploy":{"seed":7,"totals":{"scenarios":2,"arrivals":220,"completions":200,"drops":2,"slo_violations":12,"violation_rate":0.06,"worst_p99_us":5000,"anomalies_injected":8,"mitigations":6,"transitions":40,"svm_examples":400},"scenarios":[{"name":"a","benchmark":"Social Network","controller":"FIRM","load":"steady@250","seed":16045690984503111693,"ticks":30,"arrivals":110,"completions":100,"drops":1,"slo_violations":2,"violation_rate":0.02,"p50_us":1500,"p99_us":4321,"mean_latency_us":2000.25,"anomalies_injected":4,"mitigations":3,"mean_mitigation_secs":1.125,"transitions":20,"svm_examples":200},{"name":"b","benchmark":"Hotel Reservation","controller":"none","load":"steady@250","seed":16045690984503111693,"ticks":30,"arrivals":110,"completions":100,"drops":1,"slo_violations":10,"violation_rate":0.1,"p50_us":1500,"p99_us":5000,"mean_latency_us":2000.25,"anomalies_injected":4,"mitigations":3,"mean_mitigation_secs":0,"transitions":20,"svm_examples":200}]},"deltas":[{"name":"a","controller":"FIRM","train_violation_rate":0.1,"deploy_violation_rate":0.02,"train_p99_us":5000,"deploy_p99_us":4321,"train_mean_mitigation_secs":2.5,"deploy_mean_mitigation_secs":1.125},{"name":"b","controller":"none","train_violation_rate":0.1,"deploy_violation_rate":0.1,"train_p99_us":5000,"deploy_p99_us":5000,"train_mean_mitigation_secs":0,"deploy_mean_mitigation_secs":0}]}"#;

    #[test]
    fn outcome_frames_match_their_golden() {
        let outcome = outcome("a");
        assert_eq!(encode_string(&outcome), OUTCOME_GOLDEN);
        assert_eq!(
            decode_string::<ScenarioOutcome>(OUTCOME_GOLDEN).unwrap(),
            outcome
        );
    }

    #[test]
    fn round_trip_frames_match_their_golden() {
        let rt = round_trip();
        assert_eq!(encode_string(&rt), ROUND_TRIP_GOLDEN);
        assert_eq!(
            decode_string::<RoundTripReport>(ROUND_TRIP_GOLDEN).unwrap(),
            rt
        );
        // The report's decode recomputes its deltas, so decode the rows
        // themselves too.
        let doc = firm_wire::parse(ROUND_TRIP_GOLDEN).unwrap();
        assert_eq!(
            doc.field::<Vec<ScenarioDelta>>("deltas").unwrap(),
            rt.deltas
        );
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
