//! Deterministic execution of one [`Scenario`].
//!
//! [`run_one`] is the unit of work a fleet worker owns: it builds the
//! simulation from the scenario's plain data and a derived seed, builds
//! the controller as a `Box<dyn Controller>`, and hands both to the
//! workspace-wide [`run_episode`] driver — there is no fleet-local tick
//! or measurement loop. Nothing here touches shared state, so the
//! result depends only on `(scenario, seed, policy)` — the property the
//! fleet's bit-identity guarantee rests on.
//!
//! Spans are recorded on demand: the simulation keeps per-request
//! [`firm_sim::SpanRecord`]s only when the scenario's controller reads
//! them ([`FleetController::reads_spans`] — FIRM alone), and SLO
//! calibration never does. A span-free simulation draws the same random
//! numbers and processes the same events as a span-recording one, so
//! this moves no result byte (`tests/span_free_twin.rs`).
//!
//! [`run_one_with`] additionally accepts a frozen [`PolicyCheckpoint`]:
//! FIRM scenarios, the only ones whose controller
//! [reads it](FleetController::reads_policy), then run the shared agent
//! in pure inference mode (no training, no exploration, no experience
//! tap) — the deployment half of
//! [`crate::runner::FleetRunner::run_round_trip`], which therefore
//! deploys into FIRM scenarios alone. Every other controller ignores the
//! policy, so its outcome equals the training run's at the same seed.
//!
//! A scenario runs on one thread, start to finish: fleet throughput
//! comes from running many scenarios at once, never from splitting one.

use firm_core::baselines::{AimdController, K8sHpaController};
use firm_core::controller::{run_episode, Controller, EpisodeSpec, PolicyCheckpoint, Unmanaged};
use firm_core::injector::AnomalyInjector;
use firm_core::manager::{ExperienceLog, FirmConfig, FirmManager};
use firm_core::slo::calibrate_slos;
use firm_sim::spec::ClusterSpec;
use firm_sim::Simulation;

use crate::report::ScenarioOutcome;
use crate::scenario::{FleetController, Scenario};

/// Builds the live controller for a scenario. With `policy` set, a
/// controller that [reads a policy](FleetController::reads_policy)
/// (FIRM) deploys the frozen shared agent (inference mode) instead of
/// training a fresh one; any other controller ignores it.
fn build_controller(
    scenario: &Scenario,
    seed: u64,
    services: usize,
    policy: Option<&PolicyCheckpoint>,
) -> Box<dyn Controller> {
    let policy = policy.filter(|_| scenario.controller.reads_policy());
    match scenario.controller {
        FleetController::Unmanaged => Box::new(Unmanaged),
        FleetController::Firm => {
            let deployed = policy.is_some();
            let mut mgr = Box::new(FirmManager::new(FirmConfig {
                control_interval: scenario.control_interval,
                training: !deployed,
                explore: !deployed,
                record_experience: !deployed,
                slo_penalty: scenario.slo_penalty,
                seed: seed ^ 0xF12A,
                ..FirmConfig::default()
            }));
            if let Some(p) = policy {
                Controller::import_policy(mgr.as_mut(), p);
            }
            mgr
        }
        FleetController::K8sHpa => Box::new(K8sHpaController::new(scenario.k8s.clone(), services)),
        FleetController::Aimd => Box::new(AimdController::new(scenario.aimd.clone())),
    }
}

/// Builds the scenario's calibrated simulation, recording spans only if
/// its controller reads them.
fn build_simulation(scenario: &Scenario, seed: u64) -> Simulation {
    let cluster = ClusterSpec::small(scenario.nodes.max(1));
    let mut app = scenario.benchmark.build();
    if scenario.replica_factor > 1 {
        // Scale fan-out before SLO calibration so calibrated targets
        // reflect the topology that actually serves the run.
        firm_workload::builder::scale_replicas(&mut app, scenario.replica_factor);
    }
    if let Some(factor) = scenario.slo_factor {
        calibrate_slos(
            &mut app,
            &cluster,
            scenario.load.mean_rate(),
            factor,
            seed ^ 0x510C_A11B,
        );
    }
    Simulation::builder(cluster, app, seed)
        .arrivals(scenario.load.build())
        .record_spans(scenario.controller.reads_spans())
        .build()
}

/// Runs one scenario to completion; returns its measurements and the
/// experience log (empty for non-FIRM controllers).
pub fn run_one(scenario: &Scenario, seed: u64) -> (ScenarioOutcome, ExperienceLog) {
    run_one_with(scenario, seed, None)
}

/// Runs one scenario, optionally deploying a frozen policy into its
/// FIRM controller (the round-trip inference pass).
pub fn run_one_with(
    scenario: &Scenario,
    seed: u64,
    policy: Option<&PolicyCheckpoint>,
) -> (ScenarioOutcome, ExperienceLog) {
    let wall = std::time::Instant::now();
    let mut sim = build_simulation(scenario, seed);
    let services = sim.app().services.len();

    let mut controller = build_controller(scenario, seed, services, policy);
    let mut injector = scenario
        .campaign
        .clone()
        .map(|c| AnomalyInjector::new(c, seed ^ 0xF00D));

    let spec = EpisodeSpec {
        duration: scenario.duration,
        control_interval: scenario.control_interval,
        warmup: scenario.warmup,
    };
    let episode = run_episode(&mut sim, controller.as_mut(), injector.as_mut(), &spec);
    let experience = controller.drain_experience();

    let outcome = ScenarioOutcome {
        name: scenario.name.clone(),
        benchmark: scenario.benchmark.name(),
        controller: controller.name(),
        load: scenario.load.label(),
        seed,
        ticks: episode.ticks,
        arrivals: sim.stats().arrivals,
        completions: episode.completions,
        drops: episode.drops,
        slo_violations: episode.slo_violations,
        p50_us: episode.latency.p50(),
        p99_us: episode.latency.p99(),
        mean_latency_us: episode.mean_latency_us(),
        anomalies_injected: injector.map(|i| i.history().len() as u64).unwrap_or(0),
        mitigations: episode.mitigation_times.len() as u64,
        mean_mitigation_secs: episode.mean_mitigation_secs(),
        transitions: experience.transitions.len() as u64,
        svm_examples: experience.svm_examples.len() as u64,
    };
    // Out-of-band self-metrics only: nothing below reads back into the
    // outcome, so wall time can vary run to run without moving a byte.
    let wall_us = wall.elapsed().as_micros() as u64;
    firm_obs::metrics()
        .histogram("fleet.scenario.wall_us")
        .record(wall_us);
    firm_obs::event(firm_obs::Level::Trace, "fleet-exec")
        .msg("scenario finished")
        .field("scenario", scenario.name.as_str())
        .field("wall_us", wall_us)
        .field("completions", outcome.completions)
        .emit();
    (outcome, experience)
}

// The benchmark harness still calls this; the shard count is ignored.
#[doc(hidden)]
pub fn run_one_sharded(
    scenario: &Scenario,
    seed: u64,
    policy: Option<&PolicyCheckpoint>,
    _shards: usize,
) -> (ScenarioOutcome, ExperienceLog) {
    run_one_with(scenario, seed, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::builtin_catalog;
    use firm_sim::SimDuration;

    #[test]
    fn firm_scenario_serves_traffic_and_harvests_experience() {
        let scenario = builtin_catalog()
            .remove(0)
            .with_duration(SimDuration::from_secs(10));
        let (outcome, log) = run_one(&scenario, 42);
        assert!(
            outcome.completions > 200,
            "{} completed",
            outcome.completions
        );
        assert!(outcome.p99_us > 0);
        assert_eq!(outcome.ticks, 10);
        assert_eq!(outcome.transitions as usize, log.transitions.len());
        assert!(!log.svm_examples.is_empty(), "FIRM harvested no labels");
    }

    #[test]
    fn run_one_is_deterministic() {
        let scenario = builtin_catalog()
            .remove(4)
            .with_duration(SimDuration::from_secs(8));
        let (a, _) = run_one(&scenario, 7);
        let (b, _) = run_one(&scenario, 7);
        assert_eq!(a, b);
        let (c, _) = run_one(&scenario, 8);
        assert_ne!(a, c, "different seeds gave identical outcomes");
    }

    #[test]
    fn unmanaged_scenarios_harvest_nothing() {
        let mut scenario = builtin_catalog().remove(4);
        scenario = scenario.with_duration(SimDuration::from_secs(6));
        assert_eq!(scenario.controller, FleetController::Unmanaged);
        let (outcome, log) = run_one(&scenario, 3);
        assert!(log.is_empty());
        assert_eq!(outcome.transitions, 0);
    }

    #[test]
    fn deployed_firm_runs_inference_without_experience() {
        let scenario = builtin_catalog()
            .remove(0)
            .with_duration(SimDuration::from_secs(8));
        assert_eq!(scenario.controller, FleetController::Firm);
        let (_, log) = run_one(&scenario, 9);
        assert!(!log.is_empty(), "training pass harvested nothing");
        // Deploy a correctly-shaped frozen policy.
        let mgr = FirmManager::new(FirmConfig::default());
        let frozen = Controller::export_policy(&mgr).expect("policy");
        let (deployed, deployed_log) = run_one_with(&scenario, 9, Some(&frozen));
        assert!(
            deployed_log.is_empty(),
            "inference mode recorded experience"
        );
        assert_eq!(deployed.transitions, 0);
        assert_eq!(deployed.svm_examples, 0);
        assert!(deployed.completions > 100);
        // The deploy pass itself is deterministic.
        let (again, _) = run_one_with(&scenario, 9, Some(&frozen));
        assert_eq!(deployed, again);
    }

    /// One 12-second scenario per controller: FIRM, K8s, AIMD, unmanaged.
    fn one_scenario_per_controller() -> Vec<Scenario> {
        let catalog = builtin_catalog();
        [
            FleetController::Firm,
            FleetController::K8sHpa,
            FleetController::Aimd,
            FleetController::Unmanaged,
        ]
        .into_iter()
        .map(|controller| {
            let scenario = catalog.iter().find(|s| s.controller == controller);
            let scenario = scenario.expect("catalog covers every controller").clone();
            scenario.with_duration(SimDuration::from_secs(12))
        })
        .collect()
    }

    #[test]
    fn spans_are_recorded_only_for_controllers_that_read_them() {
        for scenario in one_scenario_per_controller() {
            let mut sim = build_simulation(&scenario, 7);
            sim.run_for(SimDuration::from_secs(1));
            let completed = sim.drain_completed();
            assert!(
                completed.len() > 10,
                "{}: too little traffic",
                scenario.name
            );
            let reads = scenario.controller == FleetController::Firm;
            assert_eq!(scenario.controller.reads_spans(), reads);
            for r in &completed {
                assert_eq!(r.root_span().is_some(), reads, "{}", scenario.name);
                assert_eq!(!r.spans.is_empty(), reads, "{}", scenario.name);
            }
        }
    }

    /// Outcome fingerprints captured before any simulation ran
    /// span-free: turning spans off for the span-blind controllers must
    /// not move a byte of what they measure.
    #[test]
    fn outcomes_match_their_full_span_pins() {
        const PINNED: [u64; 4] = [
            0x3092_383d_a475_7f6d,
            0xc5ba_5a65_d446_f117,
            0xf6e6_0810_5e80_1815,
            0x867d_cd66_8e5d_d23f,
        ];
        for (scenario, pin) in one_scenario_per_controller().iter().zip(PINNED) {
            let (outcome, _) = run_one(scenario, 7);
            let digest = firm_wire::fnv64(firm_wire::encode_string(&outcome).as_bytes());
            assert_eq!(digest, pin, "{}: {digest:#018x}", scenario.name);
        }
    }

    #[test]
    fn replay_scenarios_run_and_are_deterministic() {
        let catalog = builtin_catalog();
        let replay = catalog
            .iter()
            .find(|s| s.name.contains("replay"))
            .expect("catalog has replay scenarios")
            .clone()
            .with_duration(SimDuration::from_secs(8));
        let (a, _) = run_one(&replay, 5);
        let (b, _) = run_one(&replay, 5);
        assert_eq!(a, b);
        assert!(a.completions > 100, "replay served {}", a.completions);
    }
}
