//! The OpsReport from a real multi-worker run: a subprocess-sharded
//! fleet must ship per-worker session-end metrics snapshots back over
//! the wire, merge them deterministically alongside the coordinator's
//! own registry — and none of it may move the digest-covered report.

use std::path::PathBuf;

use firm_fleet::{builtin_catalog, FleetConfig, FleetRunner, Scenario};
use firm_obs::MetricValue;
use firm_sim::SimDuration;

/// The worker binary cargo built alongside this test.
fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_firm-fleet-worker"))
}

fn config(seed: u64) -> FleetConfig {
    FleetConfig {
        threads: 2,
        worker_bin: Some(worker_bin()),
        seed,
        train_steps: 16,
        ..FleetConfig::default()
    }
}

/// A catalog slice spanning FIRM and baseline rows.
fn short_catalog(n: usize) -> Vec<Scenario> {
    builtin_catalog()
        .into_iter()
        .take(n)
        .map(|s| s.with_duration(SimDuration::from_secs(6)))
        .collect()
}

#[test]
fn sharded_fleet_ships_worker_metrics_and_a_rich_ops_report() {
    let scenarios = short_catalog(4);
    let in_process = FleetRunner::new(config(909)).run(&scenarios);
    let sharded = FleetRunner::new(config(909).workers(2)).run(&scenarios);

    // The ops layer cannot move a result byte: digest parity with the
    // in-process slots even though only the sharded run pays heartbeat
    // and wire costs.
    assert_eq!(in_process.report.to_json(), sharded.report.to_json());
    assert_eq!(in_process.report.digest(), sharded.report.digest());

    // Every worker's session ended with a metrics frame, and the
    // report orders them deterministically by slot label.
    let ops = &sharded.ops;
    assert_eq!(
        ops.workers.len(),
        2,
        "expected a session-end snapshot from each of 2 workers, labels: {:?}",
        ops.workers.iter().map(|w| &w.label).collect::<Vec<_>>()
    );
    assert!(ops.workers[0].label.starts_with("slot0:pipe:"));
    assert!(ops.workers[1].label.starts_with("slot1:pipe:"));
    // Every process says which product kernel it ran: the workers are
    // this binary's siblings on this CPU, so they agree with it.
    let avx2 = MetricValue::Gauge(firm_ml::linalg::kernel_avx2().into());
    assert_eq!(ops.coordinator.get("ml.kernel_avx2"), Some(&avx2));
    for w in &ops.workers {
        assert_eq!(w.metrics.get("ml.kernel_avx2"), Some(&avx2), "{}", w.label);
        let Some(MetricValue::Counter(served)) = w.metrics.get("worker.requests.total") else {
            panic!("{}: worker.requests.total missing", w.label);
        };
        assert!(*served > 0, "{} served no requests", w.label);
        assert!(
            matches!(
                w.metrics.get("worker.frames.tx"),
                Some(MetricValue::Counter(n)) if *n > 0
            ),
            "{} reported no transmitted frames",
            w.label
        );
    }

    // The fleet-wide view covers the whole metric catalog: at least ten
    // distinct runtime metrics, including the two headline latency
    // distributions.
    let merged = ops.merged();
    assert!(
        merged.len() >= 10,
        "merged ops report holds only {} distinct metrics",
        merged.len()
    );
    let Some(MetricValue::Histogram(dispatch)) = merged.get("fleet.dispatch.latency_us") else {
        panic!("fleet.dispatch.latency_us missing or not a histogram");
    };
    // Snapshots are process-cumulative and the in-process run went
    // through a WorkerPool too, so its jobs are in there: the sharded
    // run's share is the difference.
    let before = in_process.ops.merged();
    let Some(MetricValue::Histogram(dispatch_before)) = before.get("fleet.dispatch.latency_us")
    else {
        panic!("the in-process run recorded no dispatch latency");
    };
    assert_eq!(
        dispatch.count - dispatch_before.count,
        scenarios.len() as u64,
        "one dispatch-latency sample per completed scenario"
    );
    assert!(dispatch.p99() >= dispatch.p50());
    let Some(MetricValue::Histogram(gaps)) = merged.get("fleet.heartbeat.gap_us") else {
        panic!("fleet.heartbeat.gap_us missing or not a histogram");
    };
    assert!(gaps.count > 0, "no inter-frame gaps were observed");
    let dispatched =
        |snapshot: &firm_obs::MetricsSnapshot| match snapshot.get("fleet.dispatch.total") {
            Some(MetricValue::Counter(n)) => *n,
            _ => panic!("fleet.dispatch.total missing or not a counter"),
        };
    assert_eq!(
        dispatched(&merged) - dispatched(&before),
        scenarios.len() as u64,
        "fleet.dispatch.total should count every dispatched scenario"
    );
    assert!(
        matches!(
            merged.get("fleet.bytes.tx"),
            Some(MetricValue::Counter(n)) if *n > 0
        ),
        "coordinator transmitted no bytes?"
    );

    // The whole report survives the wire — the shape `--obs-out` files
    // carry and `obs-check` validates.
    firm_wire::assert_round_trip(ops);
}
