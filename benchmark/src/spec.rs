//! What the benchmark measures: the workloads, the end-to-end metrics
//! with their regression bounds, and the per-layer metrics of the
//! traced run. `BENCHMARK.json` at the repo root states the same
//! tables for the driver; a unit test keeps the two identical.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, cost).
    Lower,
    /// Larger values are better (throughput, efficiency).
    Higher,
}

/// One reported number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Unique name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as printed beside every value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the baseline's median by
    /// which the metric may worsen before it counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// How long one run measures: `run_seconds` in `BENCHMARK.json` and
/// the default of `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// The four workloads, with the reason each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "batch-sf100",
        "in-process FleetRunner over the sf=100 catalog (replica x10): sim and core.calibrate_slos do the work, wire and serve none",
    ),
    (
        "serve-small",
        "one closed-loop client, 2-scenario submissions to a real coordinator and two TCP workers: fixed per-submission cost dominates and the pool grows",
    ),
    (
        "serve-bulk",
        "two closed-loop clients each submitting the whole sf=10 catalog: the serve/fleet/wire layers under few large concurrent submissions, sim dominant again",
    ),
    (
        "roundtrip-train",
        "in-process train-then-deploy over the 12 hand-written scenarios with 4096 DDPG updates: ml does the largest share, contention is cheap at replica x1",
    ),
];

/// The end-to-end metrics, printed by every untraced run.
///
/// Every bound is the contract's cap of 25%. On a quiet host the
/// quartile spread of each timing over ten seeds is 2–6%; but the
/// reference host is shared, and in its slow phases — minutes long,
/// about half of the three hours the acceptance run-sets took — every
/// timing moves by 10–25% and the spread reaches 45% (see the README).
/// A tighter bound would report the neighbours, not the code.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("sim_requests_per_s", "1/s", Better::Higher, 0.25),
    e2e("submit_ms_p50", "ms", Better::Lower, 0.25),
    e2e("cpu_s_per_mreq", "s/Mreq", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.25),
];

/// The per-layer metrics, printed by every traced run.
pub const PER_LAYER: [Metric; 49] = [
    layer("sim.run_for_s", "s", Better::Lower),
    layer("sim.us_per_request", "us", Better::Lower),
    layer("sim.build_ms", "ms", Better::Lower),
    layer("sim.drain_ms", "ms", Better::Lower),
    layer("sim.requests", "count", Better::Higher),
    layer("trace.ingest_s", "s", Better::Lower),
    layer("trace.ingest_us_per_request", "us", Better::Lower),
    layer("trace.requests", "count", Better::Higher),
    layer("core.calibrate_slos_s", "s", Better::Lower),
    layer("core.episode_s", "s", Better::Lower),
    layer("core.tick_s", "s", Better::Lower),
    layer("core.tick_firm_s", "s", Better::Lower),
    layer("core.extract_s", "s", Better::Lower),
    layer("core.replay_s", "s", Better::Lower),
    layer("core.svm_replay_s", "s", Better::Lower),
    layer("core.slo_violation_rate", "ratio", Better::Lower),
    layer("ml.train_step_us", "us", Better::Lower),
    layer("ml.act_us", "us", Better::Lower),
    layer("ml.trained_updates", "count", Better::Higher),
    layer("ml.trained_share", "ratio", Better::Higher),
    layer("wire.request_encode_us", "us", Better::Lower),
    layer("wire.request_decode_us", "us", Better::Lower),
    layer("wire.request_bytes", "bytes", Better::Lower),
    layer("wire.response_encode_us", "us", Better::Lower),
    layer("wire.response_decode_us", "us", Better::Lower),
    layer("wire.response_bytes", "bytes", Better::Lower),
    layer("wire.report_encode_us", "us", Better::Lower),
    layer("wire.report_decode_us", "us", Better::Lower),
    layer("wire.report_bytes", "bytes", Better::Lower),
    layer("fleet.catalog_gen_ms", "ms", Better::Lower),
    layer("fleet.run_one_s", "s", Better::Lower),
    layer("fleet.parallel_efficiency", "ratio", Better::Higher),
    layer("fleet.pool_overhead_ms", "ms", Better::Lower),
    layer("fleet.report_render_us", "us", Better::Lower),
    layer("fleet.retries", "count", Better::Lower),
    layer("fleet.rss_worker_mib", "MiB", Better::Lower),
    layer("serve.first_outcome_ms_p50", "ms", Better::Lower),
    layer("serve.report_tail_ms_p50", "ms", Better::Lower),
    layer("serve.submit_ms_p95", "ms", Better::Lower),
    layer("serve.submit_ms_drift", "ratio", Better::Lower),
    layer("serve.rejections", "count", Better::Lower),
    layer("serve.pooled_transitions", "count", Better::Higher),
    layer("serve.rss_coordinator_mib", "MiB", Better::Lower),
    layer("par.intra2_speedup", "ratio", Better::Higher),
    layer("obs.overhead_share", "ratio", Better::Lower),
    layer("workload.scenarios", "count", Better::Higher),
    layer("workload.offered_req_per_s", "1/s", Better::Higher),
    layer("trace_overhead_share", "ratio", Better::Lower),
    layer("unattributed_share", "ratio", Better::Lower),
];

/// True for a name the result files and `BENCHMARK.json` accept:
/// starts with a letter or digit, then letters, digits, `_`, `.`, `-`,
/// at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use firm_wire::JsonValue;
    use std::collections::BTreeSet;

    /// The word `BENCHMARK.json` uses for a direction.
    fn label(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    #[test]
    fn names_follow_the_grammar_and_are_unique() {
        let mut seen = BTreeSet::new();
        let all = WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in all {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        for bad in ["", "-x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} was accepted");
        }
        assert!(valid_name("9lives") && valid_name("a.b_c-d"));
    }

    #[test]
    fn bounds_are_positive_and_within_the_contract() {
        for m in END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{} bound {}",
                m.name,
                m.bound
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the harness prints and `compare` applies. They must not drift.
    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = firm_wire::parse(&text).expect("BENCHMARK.json parses");
        let rows = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_array().ok())
                .expect("array")
                .to_vec()
        };
        let text_of = |v: &JsonValue, key: &str| {
            v.get(key)
                .and_then(|s| s.as_str().ok())
                .expect("string")
                .to_string()
        };

        assert_eq!(doc.get("run_seconds"), Some(&JsonValue::U64(RUN_SECONDS)));
        let workloads: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));

        let e2e_rows = rows("end_to_end");
        assert_eq!(e2e_rows.len(), END_TO_END.len());
        for (row, m) in e2e_rows.iter().zip(END_TO_END) {
            assert_eq!(text_of(row, "name"), m.name);
            assert_eq!(text_of(row, "unit"), m.unit);
            assert_eq!(text_of(row, "better"), label(m.better));
            let bound = match row.get("bound") {
                Some(JsonValue::F64(b)) => *b,
                other => panic!("bound of {}: {other:?}", m.name),
            };
            assert_eq!(bound, m.bound, "bound of {}", m.name);
        }
        let layer_rows = rows("per_layer");
        assert_eq!(layer_rows.len(), PER_LAYER.len());
        for (row, m) in layer_rows.iter().zip(PER_LAYER) {
            assert_eq!(text_of(row, "name"), m.name);
            assert_eq!(text_of(row, "unit"), m.unit);
            assert_eq!(text_of(row, "better"), label(m.better));
            assert!(m.unit.len() <= 16);
        }
    }
}
