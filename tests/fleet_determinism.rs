//! Fleet determinism: a fixed scenario list and fleet seed must yield a
//! byte-identical aggregated `FleetReport` — and identical trained
//! shared-agent weights — with 1, 2, and 4 worker threads.
//!
//! This is the property that makes fleet-scale experiments trustworthy:
//! thread count is a pure wall-clock knob, never a results knob.

use firm::core::controller::PolicyCheckpoint;
use firm::fleet::{builtin_catalog, FleetConfig, FleetRunner, Scenario};
use firm::sim::spec::{AppSpec, ClusterSpec};
use firm::sim::{SimDuration, SimTime, Simulation};
use firm::workload::{LoadShape, ReplayTrace};

/// The full built-in catalog, shortened so three fleet runs fit in a
/// test budget. Shortening is part of the scenario data, so every run
/// sees the same specs.
fn short_catalog() -> Vec<Scenario> {
    builtin_catalog()
        .into_iter()
        .map(|s| s.with_duration(SimDuration::from_secs(6)))
        .collect()
}

#[test]
fn report_is_bit_identical_across_thread_counts() {
    let scenarios = short_catalog();
    let run = |threads: usize| {
        FleetRunner::new(FleetConfig {
            threads,
            seed: 20_26,
            train_steps: 64,
            ..FleetConfig::default()
        })
        .run(&scenarios)
    };

    let base = run(1);
    let base_json = base.report.to_json();
    let base_weights = base.estimator.shared_agent().export_weights();
    assert!(
        base.report.totals.completions > 1_000,
        "fleet served only {} requests",
        base.report.totals.completions
    );
    assert!(
        !base.pooled.transitions.is_empty(),
        "no experience reached the shared trainer"
    );

    // The report is wire-symmetric: its rendered bytes decode back to
    // the identical report (totals recomputed, digest preserved), so it
    // can cross a process boundary and come back exact.
    let decoded: firm::fleet::FleetReport =
        firm::wire::decode_string(&base_json).expect("report decodes");
    assert_eq!(decoded, base.report, "decode(encode(report)) != report");
    assert_eq!(decoded.to_json(), base_json, "re-encode changed bytes");

    for threads in [2, 4] {
        let r = run(threads);
        assert_eq!(
            base_json,
            r.report.to_json(),
            "report bytes diverged at {threads} threads"
        );
        assert_eq!(
            base.report.digest(),
            r.report.digest(),
            "digest diverged at {threads} threads"
        );
        assert_eq!(
            base_weights,
            r.estimator.shared_agent().export_weights(),
            "trained weights diverged at {threads} threads"
        );
    }
}

/// Intra-scenario parallelism is held to the same standard as thread
/// count: fanning each FIRM control loop's ingest/extract stages over
/// 2 or 4 shard threads must leave the report bytes, the digest, the
/// pooled experience, and the trained weights bit-identical to the
/// fully sequential run.
#[test]
fn report_is_bit_identical_across_intra_shard_counts() {
    let scenarios = short_catalog();
    let run = |intra_shards: usize| {
        FleetRunner::new(
            FleetConfig {
                threads: 2,
                seed: 20_26,
                train_steps: 64,
                ..FleetConfig::default()
            }
            .intra_shards(intra_shards),
        )
        .run(&scenarios)
    };

    let base = run(1);
    let base_json = base.report.to_json();
    let base_weights = base.estimator.shared_agent().export_weights();
    let base_pooled = firm::wire::encode_string(&base.pooled);
    assert!(
        !base.pooled.transitions.is_empty(),
        "no experience reached the shared trainer"
    );

    for intra_shards in [2, 4] {
        let r = run(intra_shards);
        assert_eq!(
            base_json,
            r.report.to_json(),
            "report bytes diverged at {intra_shards} intra-shards"
        );
        assert_eq!(
            base.report.digest(),
            r.report.digest(),
            "digest diverged at {intra_shards} intra-shards"
        );
        assert_eq!(
            base_pooled,
            firm::wire::encode_string(&r.pooled),
            "pooled experience diverged at {intra_shards} intra-shards"
        );
        assert_eq!(
            base_weights,
            r.estimator.shared_agent().export_weights(),
            "trained weights diverged at {intra_shards} intra-shards"
        );
    }
}

/// Round-trip determinism: the deployment pass (frozen shared agent in
/// inference mode) and the frozen policy bytes themselves must be
/// bit-identical at 1, 2, and 4 worker threads, exactly like the
/// training pass.
#[test]
fn round_trip_is_bit_identical_across_thread_counts() {
    // A mixed subset: two FIRM trainers, the unmanaged control group,
    // and the incident-replay trio.
    let scenarios: Vec<Scenario> = builtin_catalog()
        .into_iter()
        .enumerate()
        .filter(|(i, s)| *i == 0 || *i == 4 || s.name.contains("replay"))
        .map(|(_, s)| s.with_duration(SimDuration::from_secs(6)))
        .collect();
    assert_eq!(scenarios.len(), 5);

    let run = |threads: usize| {
        FleetRunner::new(FleetConfig {
            threads,
            seed: 4242,
            train_steps: 48,
            ..FleetConfig::default()
        })
        .run_round_trip(&scenarios)
    };

    let base = run(1);
    assert_eq!(
        base.deploy.totals.transitions, 0,
        "deploy pass was not pure inference"
    );
    assert!(
        base.deploy.totals.completions > 500,
        "deploy pass served only {} requests",
        base.deploy.totals.completions
    );
    assert_eq!(base.report().deltas.len(), scenarios.len());

    // Round-trip reports and policy checkpoints are wire-symmetric too.
    let report = base.report();
    let decoded: firm::fleet::RoundTripReport =
        firm::wire::decode_string(&report.to_json()).expect("round-trip report decodes");
    assert_eq!(decoded, report);
    let policy_bytes = firm::wire::encode_string(&base.policy);
    let policy: firm::core::controller::PolicyCheckpoint =
        firm::wire::decode_string(&policy_bytes).expect("policy decodes");
    assert_eq!(policy, base.policy, "policy weights changed on the wire");
    assert_eq!(policy.digest(), base.policy.digest());

    for threads in [2, 4] {
        let r = run(threads);
        assert_eq!(
            base.deploy.to_json(),
            r.deploy.to_json(),
            "deploy-pass report bytes diverged at {threads} threads"
        );
        assert_eq!(
            base.report().digest(),
            r.report().digest(),
            "round-trip digest diverged at {threads} threads"
        );
        assert_eq!(
            base.policy, r.policy,
            "frozen policy bytes diverged at {threads} threads"
        );
        assert_eq!(base.policy.digest(), r.policy.digest());
    }
}

/// Trace replay closes the loop: a run driven by a recorded arrival log
/// reproduces the recording's arrival times bit for bit — even under a
/// different simulation seed, because the replay process never touches
/// the RNG.
#[test]
fn replay_scenario_is_bit_identical_to_its_recording_source() {
    let shape = LoadShape::FlashCrowd {
        base: 120.0,
        multiplier: 3.0,
        every_secs: 10,
        crest_secs: 3,
    };
    let duration = SimDuration::from_secs(10);

    // The recording source: a live run under the synthetic shape.
    let mut source = Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), 77)
        .arrivals(shape.build())
        .record_arrivals(true)
        .build();
    source.run_for(duration);
    let recorded = source.arrival_log().to_vec();
    assert!(
        recorded.len() > 300,
        "source saw {} arrivals",
        recorded.len()
    );

    // Re-run the incident from the recording, under a different seed.
    let trace = ReplayTrace::from_records(&recorded, SimTime::ZERO, duration);
    let mut replayed = Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), 123)
        .arrivals(LoadShape::Replay { trace }.build())
        .record_arrivals(true)
        .build();
    replayed.run_for(duration);

    let replay_log = replayed.arrival_log();
    assert_eq!(
        replay_log.len(),
        recorded.len(),
        "replay produced a different arrival count"
    );
    for (src, rep) in recorded.iter().zip(replay_log) {
        assert_eq!(src.at, rep.at, "arrival time diverged from the recording");
    }
}

/// The seed-7 builtin-catalog golden: one fixed configuration (full
/// builtin catalog, 20 simulated seconds per scenario, fleet seed 7,
/// 128 shared-trainer steps) must keep producing the digest pinned
/// here.
///
/// This is the safety net for performance work: any hot-path
/// "optimization" that changes an RNG draw, a float fold order, or a
/// window boundary moves this digest and fails here, in-process,
/// without a bench run.
#[test]
fn seed7_catalog_digest_is_pinned() {
    let scenarios: Vec<Scenario> = builtin_catalog()
        .into_iter()
        .map(|s| s.with_duration(SimDuration::from_secs(20)))
        .collect();
    let result = FleetRunner::new(FleetConfig {
        threads: 1,
        seed: 7,
        train_steps: 128,
        ..FleetConfig::default()
    })
    .run(&scenarios);
    assert_eq!(
        format!("{:016x}", result.report.digest()),
        "69bd598896dd3318",
        "the seed-7 catalog digest moved — a perf change altered behavior"
    );

    // The same golden must hold with intra-scenario sharding engaged:
    // stage fan-out is a wall-clock knob, never a results knob.
    let sharded = FleetRunner::new(
        FleetConfig {
            threads: 1,
            seed: 7,
            train_steps: 128,
            ..FleetConfig::default()
        }
        .intra_shards(2),
    )
    .run(&scenarios);
    assert_eq!(
        format!("{:016x}", sharded.report.digest()),
        "69bd598896dd3318",
        "the seed-7 catalog digest moved under intra-scenario sharding"
    );
}

/// The full catalog at 10 simulated seconds: long enough to pool more
/// transitions than the shared agent's minibatch size, so the central
/// replay pass actually trains (6-second runs pool just under one
/// minibatch and train zero updates, which would make weight-parity
/// assertions vacuous).
fn training_catalog() -> Vec<Scenario> {
    builtin_catalog()
        .into_iter()
        .map(|s| s.with_duration(SimDuration::from_secs(10)))
        .collect()
}

/// Central training is held to the same standard as every outcome:
/// seeded uniform replay over a pool folded in catalog order, so the
/// trained weights are bit-identical at 1, 2, and 4 threads, and equal
/// a pinned policy digest.
#[test]
fn trained_weights_are_bit_identical_across_thread_counts() {
    let scenarios = training_catalog();
    let run = |threads: usize| {
        FleetRunner::new(FleetConfig {
            threads,
            seed: 20_26,
            train_steps: 48,
            ..FleetConfig::default()
        })
        .run(&scenarios)
    };

    let base = run(1);
    let base_json = base.report.to_json();
    let base_weights = base.estimator.shared_agent().export_weights();
    let base_pooled = firm::wire::encode_string(&base.pooled);
    assert!(
        base.trained_updates > 0,
        "the pool never warmed the shared agent up — the weight assertions are vacuous"
    );
    let (actor, critic) = base_weights.clone();
    assert_eq!(
        format!("{:016x}", PolicyCheckpoint { actor, critic }.digest()),
        "00362355d10030af",
        "the trained one-for-all policy moved"
    );

    for threads in [2, 4] {
        let r = run(threads);
        assert_eq!(
            base_json,
            r.report.to_json(),
            "report bytes diverged at {threads} threads"
        );
        assert_eq!(
            base_pooled,
            firm::wire::encode_string(&r.pooled),
            "pooled experience diverged at {threads} threads"
        );
        assert_eq!(
            base_weights,
            r.estimator.shared_agent().export_weights(),
            "trained weights diverged at {threads} threads"
        );
    }
}

/// The same guarantee across the process boundary: two supervised
/// `firm-fleet-worker` subprocesses must reproduce the single-threaded
/// in-process run bit for bit — report bytes, pooled experience, and
/// trained weights alike.
#[test]
fn trained_weights_are_bit_identical_with_subprocess_workers() {
    let scenarios = training_catalog();
    let base = FleetRunner::new(FleetConfig {
        threads: 1,
        seed: 909,
        train_steps: 32,
        ..FleetConfig::default()
    })
    .run(&scenarios);
    assert!(
        base.trained_updates > 0,
        "the pool never warmed the shared agent up — the weight assertions are vacuous"
    );

    let workers = FleetRunner::new(FleetConfig {
        workers: 2,
        seed: 909,
        train_steps: 32,
        ..FleetConfig::default()
    })
    .run(&scenarios);
    assert_eq!(
        base.report.to_json(),
        workers.report.to_json(),
        "report bytes diverged across the subprocess boundary"
    );
    assert_eq!(base.report.digest(), workers.report.digest());
    assert_eq!(
        firm::wire::encode_string(&base.pooled),
        firm::wire::encode_string(&workers.pooled),
        "pooled experience diverged across the subprocess boundary"
    );
    assert_eq!(
        base.estimator.shared_agent().export_weights(),
        workers.estimator.shared_agent().export_weights(),
        "trained weights diverged across the subprocess boundary"
    );
}

/// The resident service's headline guarantee, exercised end to end with
/// real subprocess workers: a catalog submitted to a `FleetService` in
/// two sequential slices (one seed, continuous base indices) leaves the
/// cumulative report bytes, pooled experience, and resident policy
/// weights bit-identical to the single batch `FleetRunner` run.
#[test]
fn sequential_serve_submissions_reproduce_the_batch_run() {
    let scenarios = training_catalog();
    let config = FleetConfig {
        workers: 2,
        seed: 7,
        train_steps: 32,
        ..FleetConfig::default()
    };

    let service = firm::serve::FleetService::new(config).expect("service starts");
    let first = service
        .run_submission(7, 0, &scenarios[..6], &mut |_, _| {})
        .expect("first slice");
    let second = service
        .run_submission(7, 6, &scenarios[6..], &mut |_, _| {})
        .expect("second slice");
    assert!(second.pooled_transitions >= first.pooled_transitions);
    let cumulative = service.drain();
    service.shutdown();
    assert!(
        cumulative.trained_updates > 0,
        "the pool never warmed the shared agent up — the policy assertions are vacuous"
    );

    // The control run executes on in-process threads: the backend is
    // irrelevant to the bytes, only the (seed, catalog, replay) inputs
    // matter.
    let batch = FleetRunner::new(FleetConfig {
        threads: 2,
        seed: 7,
        train_steps: 32,
        ..FleetConfig::default()
    })
    .run(&scenarios);
    assert_eq!(
        cumulative.report.to_json(),
        batch.report.to_json(),
        "served cumulative report bytes diverged from the batch run"
    );
    assert_eq!(cumulative.report.digest(), batch.report.digest());
    assert_eq!(
        cumulative.pooled_transitions,
        batch.pooled.transitions.len() as u64
    );
    assert_eq!(cumulative.trained_updates, batch.trained_updates as u64);
    let (actor, critic) = batch.estimator.shared_agent().export_weights();
    assert_eq!(
        cumulative.policy.actor, actor,
        "resident actor weights diverged from the batch-trained agent"
    );
    assert_eq!(
        cumulative.policy.critic, critic,
        "resident critic weights diverged from the batch-trained agent"
    );
}

#[test]
fn catalog_covers_every_benchmark_in_one_fleet_run() {
    let scenarios = short_catalog();
    let result = FleetRunner::new(FleetConfig {
        threads: 4,
        seed: 3,
        train_steps: 0,
        ..FleetConfig::default()
    })
    .run(&scenarios);
    // Every one of the paper's four applications served real traffic.
    for bench in [
        "Social Network",
        "Media Service",
        "Hotel Reservation",
        "Train Ticket",
    ] {
        let served: u64 = result
            .report
            .scenarios
            .iter()
            .filter(|s| s.benchmark == bench)
            .map(|s| s.completions)
            .sum();
        assert!(served > 100, "{bench} served only {served} requests");
    }
}
