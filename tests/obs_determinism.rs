//! Observability is out-of-band *by construction*: turning the
//! `firm_obs` layer fully on (trace-level recording of every event and
//! metric) versus fully off must not move a single result byte —
//! report JSON, report digest, pooled experience, or trained
//! shared-agent weights — at any thread count.
//!
//! This is the load-bearing invariant of the obs layer. Events and
//! metrics read the pipeline's clocks and counters; nothing reads them
//! back. A change that routes any observed value into a control
//! decision, an RNG draw, or an aggregation order fails here.
//!
//! One test function on purpose: the recording level is process-global
//! state, and Rust runs `#[test]` functions on parallel threads —
//! separate on/off tests would race each other's levels. Phases run
//! sequentially inside the single body instead.

use firm::fleet::{builtin_catalog, FleetConfig, FleetResult, FleetRunner, Scenario};
use firm::obs;
use firm::sim::SimDuration;

/// The full built-in catalog, shortened so eight fleet runs fit in a
/// test budget (duration is scenario data, identical across runs).
fn full_catalog() -> Vec<Scenario> {
    builtin_catalog()
        .into_iter()
        .map(|s| s.with_duration(SimDuration::from_secs(6)))
        .collect()
}

fn run(scenarios: &[Scenario], threads: usize, intra_shards: usize) -> FleetResult {
    FleetRunner::new(
        FleetConfig {
            threads,
            seed: 20_26,
            train_steps: 64,
            ..FleetConfig::default()
        }
        .intra_shards(intra_shards),
    )
    .run(scenarios)
}

/// The (threads, intra_shards) grid each phase runs: the original
/// thread ladder plus one intra-sharded configuration, so the on/off
/// comparison also covers the barrier-stepped parallel path (which has
/// its own obs hooks: `stage.shard_merge_us`, `stage.shardN.tick_us`).
const GRID: [(usize, usize); 4] = [(1, 1), (2, 1), (4, 1), (2, 2)];

#[test]
fn observability_on_vs_off_is_bit_identical_at_1_2_and_4_threads() {
    let scenarios = full_catalog();

    // Phase 1 — obs fully off: no event recording and no stderr
    // rendering (metric counters still tick — they are always-on
    // relaxed atomics, out-of-band by the same construction).
    obs::set_level(None);
    obs::set_stderr_level(None);
    let off: Vec<FleetResult> = GRID.iter().map(|&(t, s)| run(&scenarios, t, s)).collect();
    let _ = obs::drain_events(); // start phase 2 with an empty ring

    // Phase 2 — obs fully on: trace-level recording of every event and
    // every metric. stderr rendering stays off so the test log is
    // readable; the rendering path shares the recording path's inputs
    // and cannot touch results either way.
    obs::set_level(Some(obs::Level::Trace));
    let on: Vec<FleetResult> = GRID.iter().map(|&(t, s)| run(&scenarios, t, s)).collect();

    // The obs-on runs really did observe: per-scenario wall time and
    // per-stage hot-path timings landed in the registry, and the
    // trace-level per-scenario events landed in the ring.
    let snap = obs::metrics().snapshot();
    for key in [
        "fleet.scenario.wall_us",
        "stage.sim_us",
        "stage.ingest_us",
        "stage.extract_us",
        "stage.train_us",
        // Not a timing: the traces FIRM's store holds after each tick.
        "stage.retained_traces",
        // Recorded only by the intra-sharded (2, 2) grid entry: the
        // merge barrier and each shard's per-tick wall time.
        "stage.shard_merge_us",
        "stage.shard0.tick_us",
        "stage.shard1.tick_us",
    ] {
        match snap.get(key) {
            Some(obs::MetricValue::Histogram(h)) => {
                assert!(h.count > 0, "{key} recorded no samples with obs on")
            }
            other => panic!("{key} missing or not a histogram: {other:?}"),
        }
    }
    let (events, _dropped) = obs::drain_events();
    assert!(
        events.iter().any(|e| e.target == "fleet-exec"),
        "trace-level scenario events were not recorded with obs on"
    );

    // The invariant: all eight runs produced identical results.
    let base = &off[0];
    let base_json = base.report.to_json();
    let base_weights = base.estimator.shared_agent().export_weights();
    assert!(base.report.totals.completions > 1_000);
    for (i, r) in off.iter().chain(on.iter()).enumerate() {
        let mode = if i < GRID.len() { "off" } else { "on" };
        assert_eq!(
            base_json,
            r.report.to_json(),
            "report bytes moved (obs {mode}, run {i})"
        );
        assert_eq!(
            base.report.digest(),
            r.report.digest(),
            "report digest moved (obs {mode}, run {i})"
        );
        assert_eq!(
            base.pooled, r.pooled,
            "pooled experience moved (obs {mode}, run {i})"
        );
        assert_eq!(
            base_weights,
            r.estimator.shared_agent().export_weights(),
            "trained shared-agent weights moved (obs {mode}, run {i})"
        );
    }

    // The OpsReport rides alongside the report, never inside it: the
    // digest-covered bytes above already matched while the ops content
    // differed run to run (it holds wall-clock timings).
    assert!(
        !on[0].ops.coordinator.is_empty(),
        "obs-on run produced an empty OpsReport"
    );

    // Leave the process-global defaults the way other code expects.
    obs::set_level(Some(obs::Level::Info));
    obs::set_stderr_level(Some(obs::Level::Info));
}
