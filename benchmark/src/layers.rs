//! The traced run: spans recorded from outside the product, around
//! calls into each layer's public functions, and the per-layer metrics
//! derived from them.
//!
//! A scenario is executed here from the same public pieces
//! `firm_fleet::run_one_sharded` assembles — topology build, replica
//! scaling, `calibrate_slos`, `Simulation::builder`, `run_episode` —
//! with a span around each and a timing wrapper around the controller.
//! Its outcome must equal `run_one`'s, which proves the traced path
//! measures the same program. What `run_episode` hides (simulator
//! stepping, trace ingest, feature extraction) is measured in a
//! harness-owned loop over the same cluster, application, arrivals and
//! seed; codecs, the DDPG agent and the worker pool get small fixed
//! probes on the workload's own values.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

use firm_core::baselines::{AimdController, K8sHpaController};
use firm_core::controller::{
    run_episode, ControlDecision, Controller, EpisodeSpec, PolicyCheckpoint, TickContext, Unmanaged,
};
use firm_core::estimator::{
    AgentRegime, ResourceEstimator, ACTION_DIM, ACTOR_STATE_DIM, STATE_DIM,
};
use firm_core::extractor::CriticalComponentExtractor;
use firm_core::injector::AnomalyInjector;
use firm_core::manager::{ExperienceLog, FirmConfig, FirmManager};
use firm_core::slo::calibrate_slos;
use firm_core::training::replay_experience;
use firm_fleet::{
    run_one_sharded, scenario_seed, FleetConfig, FleetController, FleetReport, FleetRunner,
    OpsReport, PoolJob, RoundTripReport, Scenario, ScenarioOutcome, SupervisorConfig, TcpTransport,
    Transport, WorkerPool, WorkerRequest, WorkerResponse,
};
use firm_ml::ddpg::{DdpgAgent, DdpgConfig, Transition};
use firm_obs::{Level, MetricValue};
use firm_serve::{ClientError, SubmissionReport};
use firm_sim::spec::{AppSpec, ClusterSpec};
use firm_sim::Simulation;
use firm_trace::TracingCoordinator;
use firm_wire::{decode_string, encode_string, WireDecode, WireEncode};

use crate::procs::{ensure_bins, spawn_worker, vm_hwm_mib};
use crate::spans::{self_time_by_name, Tracer};
use crate::spec::PER_LAYER;
use crate::stats::{median, percentile, sorted, supported_tail};
use crate::workloads::{
    check_pins, run_serve, Expected, InProcess, Options, RunResult, ServeKind, ServeRun,
    LOAD_THREADS,
};

/// Per-layer metric values by name; every metric starts at 0, which is
/// what a layer the workload never enters reports.
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    fn new() -> LayerMetrics {
        LayerMetrics(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    }

    fn into_metrics(self) -> Vec<(&'static str, f64)> {
        PER_LAYER.iter().map(|m| (m.name, self.0[m.name])).collect()
    }
}

// ---------------------------------------------------------------------
// One scenario, assembled from public pieces with a span around each.
// ---------------------------------------------------------------------

/// Times every `tick` of the controller it wraps.
struct TimedController<'a> {
    inner: &'a mut dyn Controller,
    tracer: &'a mut Tracer,
    span: &'static str,
}

impl Controller for TimedController<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tick(&mut self, sim: &mut Simulation, ctx: TickContext) -> ControlDecision {
        let TimedController {
            inner,
            tracer,
            span,
        } = self;
        tracer.scope(span, |_| inner.tick(sim, ctx))
    }
}

/// The controller `run_one_sharded` would build for this scenario.
fn build_controller(
    scenario: &Scenario,
    seed: u64,
    services: usize,
    policy: Option<&PolicyCheckpoint>,
) -> Box<dyn Controller> {
    match scenario.controller {
        FleetController::Unmanaged => Box::new(Unmanaged),
        FleetController::Firm => {
            let deployed = policy.is_some();
            let mut manager = Box::new(FirmManager::new(FirmConfig {
                control_interval: scenario.control_interval,
                training: !deployed,
                explore: !deployed,
                record_experience: !deployed,
                slo_penalty: scenario.slo_penalty,
                seed: seed ^ 0xF12A,
                ..FirmConfig::default()
            }));
            if let Some(p) = policy {
                Controller::import_policy(manager.as_mut(), p);
            }
            manager
        }
        FleetController::K8sHpa => Box::new(K8sHpaController::new(scenario.k8s.clone(), services)),
        FleetController::Aimd => Box::new(AimdController::new(scenario.aimd.clone())),
    }
}

/// A scenario's calibrated topology, kept for the simulator probe.
struct Topology {
    cluster: ClusterSpec,
    app: AppSpec,
}

fn scenario_traced(
    t: &mut Tracer,
    scenario: &Scenario,
    seed: u64,
    policy: Option<&PolicyCheckpoint>,
) -> (ScenarioOutcome, ExperienceLog, Topology) {
    t.scope("fleet.scenario", |t| {
        let cluster = ClusterSpec::small(scenario.nodes.max(1));
        let mut app = t.scope("workload.build_app", |_| {
            let mut app = scenario.benchmark.build();
            if scenario.replica_factor > 1 {
                firm_workload::scale_replicas(&mut app, scenario.replica_factor);
            }
            app
        });
        if let Some(factor) = scenario.slo_factor {
            t.scope("core.calibrate_slos", |_| {
                calibrate_slos(
                    &mut app,
                    &cluster,
                    scenario.load.mean_rate(),
                    factor,
                    seed ^ 0x510C_A11B,
                )
            });
        }
        let mut sim = t.scope("sim.build", |_| {
            Simulation::builder(cluster.clone(), app.clone(), seed)
                .arrivals(scenario.load.build())
                .build()
        });
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
        let episode = t.scope("core.episode", |t| {
            let mut timed = TimedController {
                inner: controller.as_mut(),
                tracer: t,
                span: if scenario.controller == FleetController::Firm {
                    "core.tick_firm"
                } else {
                    "core.tick_baseline"
                },
            };
            run_episode(&mut sim, &mut timed, injector.as_mut(), &spec)
        });
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
        (outcome, experience, Topology { cluster, app })
    })
}

/// The harness-owned loop over one scenario's real cluster,
/// application, arrivals and seed: what `run_episode` does between
/// controller ticks, plus the trace ingest and feature extraction a
/// FIRM tick starts with, each under its own span. Returns the number
/// of requests the simulator completed.
fn simulator_probe(t: &mut Tracer, scenario: &Scenario, seed: u64, topology: &Topology) -> u64 {
    let mut sim = Simulation::builder(topology.cluster.clone(), topology.app.clone(), seed)
        .arrivals(scenario.load.build())
        .build();
    let mut injector = scenario
        .campaign
        .clone()
        .map(|c| AnomalyInjector::new(c, seed ^ 0xF00D));
    let mut coordinator = TracingCoordinator::new(200_000);
    let mut extractor = CriticalComponentExtractor::new(seed ^ 0x5111);
    let end = sim.now() + scenario.duration;
    let mut requests = 0u64;
    while sim.now() < end {
        let window_start = sim.now();
        if let Some(inj) = injector.as_mut() {
            inj.tick(&mut sim);
        }
        t.scope("sim.run_for", |_| sim.run_for(scenario.control_interval));
        let completed = t.scope("sim.drain", |_| {
            let completed = sim.drain_completed();
            std::hint::black_box(sim.drain_telemetry());
            completed
        });
        requests += completed.len() as u64;
        t.scope("trace.ingest", |_| coordinator.ingest(completed));
        t.scope("core.extract", |_| {
            std::hint::black_box(extractor.features(coordinator.traces_since(window_start)));
        });
    }
    requests
}

// ---------------------------------------------------------------------
// Fixed probes.
// ---------------------------------------------------------------------

/// Median wall time of `reps` calls of `f`, microseconds.
fn median_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(f());
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Encode and decode cost and frame size of one wire value.
fn wire_probe<T: WireEncode + WireDecode>(
    layers: &mut LayerMetrics,
    names: [&'static str; 3],
    value: &T,
) {
    let text = encode_string(value);
    layers.set(names[0], median_us(15, || encode_string(value)));
    layers.set(
        names[1],
        median_us(15, || decode_string::<T>(&text).expect("own frames decode")),
    );
    layers.set(names[2], text.len() as f64);
}

/// One DDPG minibatch update and one actor forward pass at the paper's
/// dimensions, on a seeded synthetic replay buffer.
fn ml_probe(layers: &mut LayerMetrics, seed: u64) {
    let mut agent = DdpgAgent::new(
        DdpgConfig::paper(STATE_DIM, ACTOR_STATE_DIM, ACTION_DIM),
        seed,
    );
    let mut x = seed | 1;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    for _ in 0..512 {
        agent.observe(Transition {
            state: (0..STATE_DIM).map(|_| next()).collect(),
            action: (0..ACTION_DIM).map(|_| 2.0 * next() - 1.0).collect(),
            reward: next(),
            next_state: (0..STATE_DIM).map(|_| next()).collect(),
            done: false,
        });
    }
    layers.set("ml.train_step_us", median_us(200, || agent.train_step()));
    let state: Vec<f64> = (0..STATE_DIM).map(|_| next()).collect();
    layers.set("ml.act_us", median_us(2000, || agent.act(&state)));
}

/// What a job costs through a `WorkerPool` over one real TCP worker
/// beyond the simulation inside it: frame encode, loopback, decode,
/// dispatch. The worker times each scenario itself
/// (`fleet.scenario.wall_us`, handed back in its session-end metrics),
/// so the overhead is the mean `JobDone` latency minus the mean of that
/// histogram over the same jobs — two clocks around the same
/// executions, not two processes compared. Also the worker's peak
/// memory after those jobs.
fn pool_probe(layers: &mut LayerMetrics, scenario: &Scenario, seed: u64) -> Result<(), String> {
    const JOBS: u64 = 5;
    let bins = ensure_bins()?;
    let (worker, addr) = spawn_worker(&bins)?;
    let transports: Vec<Box<dyn Transport>> = vec![Box::new(TcpTransport::new(addr))];
    let pool = WorkerPool::start(transports, SupervisorConfig::default())?;
    let mut pooled_us = 0.0;
    for index in 0..JOBS {
        let (reply, done) = mpsc::channel();
        let started = Instant::now();
        pool.submit(PoolJob {
            index,
            seed,
            scenario: scenario.clone(),
            policy: None,
            reply,
        });
        let delivered = done
            .recv()
            .map_err(|_| "the pool dropped a job".to_string())?;
        delivered.result?;
        pooled_us += started.elapsed().as_secs_f64() * 1e6;
    }
    layers.set("fleet.rss_worker_mib", vm_hwm_mib(Some(worker.pid())));
    let worker_ops = pool.shutdown();
    drop(worker);
    let inside_us = worker_ops
        .iter()
        .find_map(|ops| match ops.metrics.get("fleet.scenario.wall_us") {
            Some(MetricValue::Histogram(h)) if h.count == JOBS => Some(h.mean()),
            _ => None,
        })
        .ok_or(
            "the worker's session-end metrics lack fleet.scenario.wall_us for the probe's jobs",
        )?;
    layers.set(
        "fleet.pool_overhead_ms",
        (pooled_us / JOBS as f64 - inside_us) / 1e3,
    );
    Ok(())
}

/// `fleet.retry.attempts` in a metrics snapshot (absent means none).
fn retries_in(snapshot: &firm_obs::MetricsSnapshot) -> f64 {
    match snapshot.get("fleet.retry.attempts") {
        Some(MetricValue::Counter(n)) => *n as f64,
        _ => 0.0,
    }
}

// ---------------------------------------------------------------------
// The traced pass over a catalog, shared by all four workloads.
// ---------------------------------------------------------------------

/// What the traced pass produced.
struct TracedPass {
    /// Per-scenario seeds, `scenario_seed(fleet_seed, index)`.
    seeds: Vec<u64>,
    /// Calibrated topologies, for the simulator probe.
    topologies: Vec<Topology>,
    /// Training-pass outcomes, catalog order.
    train: Vec<ScenarioOutcome>,
    /// Deploy-pass outcomes (round trips only).
    deploy: Vec<ScenarioOutcome>,
    /// Scenario 0's experience, for the response-frame probe.
    first_experience: ExperienceLog,
    pooled: ExperienceLog,
    report: FleetReport,
    deploy_report: Option<FleetReport>,
    policy: PolicyCheckpoint,
    trained_updates: usize,
    /// Index of the `workload` root span.
    root: usize,
}

impl TracedPass {
    /// The digest the untraced iteration at the same fleet seed prints.
    fn digest(&self) -> u64 {
        match &self.deploy_report {
            Some(deploy) => RoundTripReport::new(self.report.clone(), deploy.clone()).digest(),
            None => self.report.digest(),
        }
    }
}

/// Runs the catalog once, single-threaded, as one tree of spans: what
/// `FleetRunner::run` (or `run_round_trip`) does, assembled from the
/// same public pieces.
fn traced_pass(t: &mut Tracer, run: &InProcess, fleet_seed: u64) -> TracedPass {
    let catalog = &run.catalog;
    let seeds: Vec<u64> = (0..catalog.len())
        .map(|i| scenario_seed(fleet_seed, i))
        .collect();
    let root = t.spans().len();
    t.scope("workload", |t| {
        t.scope("fleet.catalog_gen", |_| {
            std::hint::black_box((run.generate)())
        });
        let mut topologies = Vec::new();
        let mut train = Vec::new();
        let mut pooled = ExperienceLog::default();
        let mut first_experience = ExperienceLog::default();
        for (i, scenario) in catalog.iter().enumerate() {
            t.set_trace_id(i as u64 + 1);
            let (outcome, log, topology) = scenario_traced(t, scenario, seeds[i], None);
            if i == 0 {
                first_experience = log.clone();
            }
            pooled.merge(log);
            train.push(outcome);
            topologies.push(topology);
        }
        t.set_trace_id(0);
        let render = |t: &mut Tracer, report: &FleetReport| {
            t.scope("fleet.report_render", |_| {
                std::hint::black_box((report.to_json(), report.digest()));
            })
        };
        let report = FleetReport::new(fleet_seed, train.clone());
        render(t, &report);
        let mut estimator = ResourceEstimator::new(AgentRegime::Shared, fleet_seed ^ 0x0A11);
        let trained_updates = t.scope("core.replay", |_| {
            replay_experience(&mut estimator, &pooled, run.train_steps)
        });
        t.scope("core.svm_replay", |_| {
            let mut extractor = CriticalComponentExtractor::new(fleet_seed ^ 0x51FE);
            for (features, label) in &pooled.svm_examples {
                extractor.train(features, *label);
            }
        });
        let (actor, critic) = estimator.shared_agent().export_weights();
        let policy = PolicyCheckpoint { actor, critic };
        let mut deploy = Vec::new();
        let deploy_report = run.round_trip.then(|| {
            for (i, scenario) in catalog.iter().enumerate() {
                t.set_trace_id((catalog.len() + i) as u64 + 1);
                deploy.push(scenario_traced(t, scenario, seeds[i], Some(&policy)).0);
            }
            t.set_trace_id(0);
            let report = FleetReport::new(fleet_seed, deploy.clone());
            render(t, &report);
            report
        });
        TracedPass {
            seeds,
            topologies,
            train,
            deploy,
            first_experience,
            pooled,
            report,
            deploy_report,
            policy,
            trained_updates,
            root,
        }
    })
}

/// The same scenarios through the product's own entry point, untraced:
/// every traced outcome must equal `run_one_sharded`'s. Returns the
/// training pass's per-scenario wall times and the deploy pass's total,
/// the baseline the tracing overhead is measured against.
fn check_against_run_one(
    result: &mut RunResult,
    run: &InProcess,
    pass: &TracedPass,
) -> (Vec<f64>, f64) {
    let mut compare =
        |traced: &ScenarioOutcome, scenario: &Scenario, policy: Option<&PolicyCheckpoint>| {
            let started = Instant::now();
            let (outcome, _) = run_one_sharded(scenario, traced.seed, policy, 1);
            let seconds = started.elapsed().as_secs_f64();
            result.attempted += 1;
            if outcome != *traced {
                result.fail(format!(
                    "{}: traced outcome differs from run_one_sharded's",
                    scenario.name
                ));
            }
            seconds
        };
    let train_s = pass
        .train
        .iter()
        .zip(&run.catalog)
        .map(|(traced, s)| compare(traced, s, None))
        .collect();
    let deploy_s = pass
        .deploy
        .iter()
        .zip(&run.catalog)
        .map(|(traced, s)| compare(traced, s, Some(&pass.policy)))
        .sum();
    (train_s, deploy_s)
}

/// Wall time of one two-thread `FleetRunner::run` of the catalog at
/// the given `firm_obs` recording level, without central training.
fn two_thread_wall(run: &InProcess, fleet_seed: u64, obs: Option<Level>) -> f64 {
    firm_obs::set_level(obs);
    let runner = FleetRunner::new(FleetConfig {
        threads: LOAD_THREADS,
        seed: fleet_seed,
        train_steps: 0,
        ..FleetConfig::default()
    });
    let started = Instant::now();
    std::hint::black_box(runner.run(&run.catalog));
    started.elapsed().as_secs_f64()
}

/// Traces `run`'s catalog once, checks the traced outcomes, runs the
/// probes, and fills every per-layer metric an in-process pass can
/// give.
fn trace_catalog(
    t: &mut Tracer,
    layers: &mut LayerMetrics,
    result: &mut RunResult,
    run: &InProcess,
    fleet_seed: u64,
) -> Result<TracedPass, String> {
    let catalog = &run.catalog;
    let pass = traced_pass(t, run, fleet_seed);
    let traced_wall_s = t.total_s("workload");
    let (run_one_s, deploy_run_one_s) = check_against_run_one(result, run, &pass);
    let train_run_one_s: f64 = run_one_s.iter().sum();
    let total_run_one_s = train_run_one_s + deploy_run_one_s;

    // The simulator, trace and extractor layers under run_episode.
    let sim_requests = t.scope("probe.simulator", |t| {
        let scenarios = catalog.iter().zip(&pass.topologies).zip(&pass.seeds);
        scenarios
            .map(|((scenario, topology), seed)| simulator_probe(t, scenario, *seed, topology))
            .sum::<u64>()
    });

    // Scenario sharding over two threads, then the same with firm_obs
    // recording everything and nothing.
    let default_level = firm_obs::level();
    let parallel_walls: Vec<f64> = (0..3)
        .map(|_| two_thread_wall(run, fleet_seed, default_level))
        .collect();
    let obs_trace = two_thread_wall(run, fleet_seed, Some(Level::Trace));
    let obs_off = two_thread_wall(run, fleet_seed, None);
    firm_obs::set_level(default_level);
    drop(firm_obs::drain_events());

    // Intra-scenario sharding on the FIRM scenario that ran longest.
    let scenario_walls = t.durations_ms("fleet.scenario");
    let largest_firm = (0..catalog.len())
        .filter(|&i| catalog[i].controller == FleetController::Firm)
        .max_by(|&a, &b| scenario_walls[a].total_cmp(&scenario_walls[b]));
    if let Some(i) = largest_firm {
        let time_at = |shards| {
            median_us(3, || {
                run_one_sharded(&catalog[i], pass.seeds[i], None, shards)
            })
        };
        layers.set("par.intra2_speedup", time_at(1) / time_at(2));
    }

    // The worker pool over real TCP.
    pool_probe(layers, &catalog[0], pass.seeds[0])?;
    layers.set("fleet.retries", retries_in(&firm_obs::metrics().snapshot()));

    ml_probe(layers, fleet_seed);
    wire_probe(
        layers,
        [
            "wire.request_encode_us",
            "wire.request_decode_us",
            "wire.request_bytes",
        ],
        &WorkerRequest {
            index: 0,
            seed: pass.seeds[0],
            scenario: catalog[0].clone(),
            policy: None,
            reuse_policy: false,
            intra_shards: 1,
        },
    );
    wire_probe(
        layers,
        [
            "wire.response_encode_us",
            "wire.response_decode_us",
            "wire.response_bytes",
        ],
        &WorkerResponse {
            index: 0,
            outcome: pass.train[0].clone(),
            experience: pass.first_experience.clone(),
        },
    );

    // Layer metrics from the spans.
    let per_request = |total_s: f64| total_s * 1e6 / sim_requests.max(1) as f64;
    layers.set("sim.run_for_s", t.total_s("sim.run_for"));
    layers.set("sim.us_per_request", per_request(t.total_s("sim.run_for")));
    layers.set("sim.build_ms", t.total_s("sim.build") * 1e3);
    layers.set("sim.drain_ms", t.total_s("sim.drain") * 1e3);
    layers.set("sim.requests", sim_requests as f64);
    layers.set("trace.ingest_s", t.total_s("trace.ingest"));
    layers.set(
        "trace.ingest_us_per_request",
        per_request(t.total_s("trace.ingest")),
    );
    layers.set("trace.requests", sim_requests as f64);
    layers.set("core.calibrate_slos_s", t.total_s("core.calibrate_slos"));
    layers.set("core.episode_s", t.total_s("core.episode"));
    layers.set("core.tick_firm_s", t.total_s("core.tick_firm"));
    layers.set(
        "core.tick_s",
        t.total_s("core.tick_firm") + t.total_s("core.tick_baseline"),
    );
    layers.set("core.extract_s", t.total_s("core.extract"));
    layers.set("core.replay_s", t.total_s("core.replay"));
    layers.set("core.svm_replay_s", t.total_s("core.svm_replay"));
    let totals = std::iter::once(&pass.report)
        .chain(&pass.deploy_report)
        .map(|r| r.totals);
    let (violations, completions) = totals.fold((0, 0), |(v, c), t| {
        (v + t.slo_violations, c + t.completions)
    });
    layers.set(
        "core.slo_violation_rate",
        violations as f64 / completions.max(1) as f64,
    );
    layers.set("ml.trained_updates", pass.trained_updates as f64);
    layers.set(
        "ml.trained_share",
        pass.trained_updates as f64 / run.train_steps.max(1) as f64,
    );
    layers.set("fleet.catalog_gen_ms", t.total_s("fleet.catalog_gen") * 1e3);
    layers.set("fleet.run_one_s", total_run_one_s);
    layers.set(
        "fleet.parallel_efficiency",
        train_run_one_s / (LOAD_THREADS as f64 * median(&parallel_walls)),
    );
    layers.set(
        "fleet.report_render_us",
        median(&t.durations_ms("fleet.report_render")) * 1e3,
    );
    layers.set("obs.overhead_share", obs_trace / obs_off - 1.0);
    layers.set("workload.scenarios", catalog.len() as f64);
    layers.set(
        "workload.offered_req_per_s",
        catalog.iter().map(|s| s.load.mean_rate()).sum(),
    );
    layers.set(
        "trace_overhead_share",
        t.total_s("fleet.scenario") / total_run_one_s - 1.0,
    );
    let self_times = self_time_by_name(t.spans(), pass.root);
    layers.set("unattributed_share", self_times["workload"] / traced_wall_s);

    eprintln!("  self time under the traced workload ({traced_wall_s:.3} s):");
    let mut rows: Vec<(&str, f64)> = self_times.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, seconds) in rows {
        eprintln!(
            "    {name:<24} {seconds:>9.4} s  {:>5.1}%",
            100.0 * seconds / traced_wall_s
        );
    }
    Ok(pass)
}

fn write_spans(t: &Tracer, out_dir: &Path, workload: &str) -> Result<(), String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("{workload}.spans.jsonl"));
    t.write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("  {} spans written to {}", t.spans().len(), path.display());
    Ok(())
}

/// The traced run of an in-process workload.
pub fn trace_in_process(
    workload: &InProcess,
    opts: &Options,
    expected: &Expected,
    out_dir: &Path,
) -> Result<RunResult, String> {
    let mut t = Tracer::new();
    let mut layers = LayerMetrics::new();
    let mut result = RunResult::default();
    let name = workload.name;
    let trace = trace_catalog(&mut t, &mut layers, &mut result, workload, opts.seed)?;

    // The traced pass is iteration 0 of the untraced run: same digest.
    let digest = trace.digest();
    result.digests = vec![format!("{digest:016x}")];
    check_pins(&mut result, &expected.pins(name, opts.seed));
    let untraced = workload.iterate(1, opts.seed);
    if untraced.digest != digest {
        result.fail(format!(
            "traced digest {digest:016x}, untraced {:016x}",
            untraced.digest
        ));
    }

    // The frame a coordinator would send back for this catalog.
    wire_probe(
        &mut layers,
        [
            "wire.report_encode_us",
            "wire.report_decode_us",
            "wire.report_bytes",
        ],
        &SubmissionReport {
            submission: 0,
            cumulative: false,
            report: trace.report.clone(),
            policy: trace.policy.clone(),
            pooled_transitions: trace.pooled.transitions.len() as u64,
            pooled_svm: trace.pooled.svm_examples.len() as u64,
            trained_updates: trace.trained_updates as u64,
        },
    );
    write_spans(&t, out_dir, name)?;
    result.metrics = layers.into_metrics();
    Ok(result)
}

/// The traced run of a serve workload: the same closed loop against
/// real children, with the client-side timestamps kept as spans, then
/// the in-process traced pass over the catalog its submissions are cut
/// from.
pub fn trace_serve(
    kind: ServeKind,
    opts: &Options,
    expected: &Expected,
    out_dir: &Path,
) -> Result<RunResult, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let obs_out = out_dir.join(format!("{}.coordinator-obs.jsonl", kind.name()));
    let mut t = Tracer::new();
    let ServeRun {
        mut result,
        records,
        coordinator_rss_mib,
        workers_rss_mib,
        ..
    } = run_serve(kind, opts, expected, Some(&obs_out))?;
    result.metrics.clear();
    let mut layers = LayerMetrics::new();

    // Client-side spans, hung under one root per run.
    let first = records
        .iter()
        .map(|r| r.start)
        .min()
        .expect("at least one submission");
    let last = records
        .iter()
        .map(|r| r.end)
        .max()
        .expect("at least one submission");
    let root = t.record(None, "serve.run", t.ns_of(first), t.ns_of(last), 0);
    for r in &records {
        let id = (r.client as u64) << 32 | r.index as u64;
        let ns = |at| t.ns_of(at);
        let (start, first_outcome, last_outcome, end) = (
            ns(r.start),
            ns(r.first_outcome),
            ns(r.last_outcome),
            ns(r.end),
        );
        let submit = t.record(Some(root), "serve.submit", start, end, id);
        t.record(
            Some(submit),
            "serve.first_outcome",
            start,
            first_outcome,
            id,
        );
        t.record(
            Some(submit),
            "serve.outcome_stream",
            first_outcome,
            last_outcome,
            id,
        );
        t.record(Some(submit), "serve.report_tail", last_outcome, end, id);
    }
    let answered: Vec<_> = records.iter().filter(|r| r.report.is_ok()).collect();
    let latencies = sorted(answered.iter().map(|r| r.latency_ms()).collect());
    let ms = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e3;
    if !answered.is_empty() {
        let firsts: Vec<f64> = answered
            .iter()
            .map(|r| ms(r.start, r.first_outcome))
            .collect();
        let tails: Vec<f64> = answered.iter().map(|r| ms(r.last_outcome, r.end)).collect();
        layers.set("serve.first_outcome_ms_p50", median(&firsts));
        layers.set("serve.report_tail_ms_p50", median(&tails));
        // p95 only when at least ten samples lie beyond it.
        if supported_tail(latencies.len()).is_some_and(|p| p >= 95.0) {
            layers.set("serve.submit_ms_p95", percentile(&latencies, 95.0));
        }
        // Last-quarter over first-quarter median latency of client 0:
        // above 1 when a fold's cost grows with the pool.
        let client0: Vec<f64> = answered
            .iter()
            .filter(|r| r.client == 0)
            .map(|r| r.latency_ms())
            .collect();
        let quarter = (client0.len() / 4).max(1);
        layers.set(
            "serve.submit_ms_drift",
            median(&client0[client0.len() - quarter..]) / median(&client0[..quarter]),
        );
        let pooled = answered
            .iter()
            .filter_map(|r| r.report.as_ref().ok())
            .map(|rep| rep.pooled_transitions)
            .max();
        layers.set("serve.pooled_transitions", pooled.unwrap_or(0) as f64);
    }
    eprintln!(
        "  {} submissions answered; highest percentile with ten samples beyond it: {}",
        answered.len(),
        supported_tail(answered.len()).map_or("none".to_string(), |p| format!("p{p}"))
    );
    let rejections = records
        .iter()
        .filter(|r| matches!(r.report, Err(ClientError::Rejected { .. })))
        .count();
    layers.set("serve.rejections", rejections as f64);
    layers.set("serve.rss_coordinator_mib", coordinator_rss_mib);

    trace_catalog(
        &mut t,
        &mut layers,
        &mut result,
        &kind.in_process(),
        opts.seed,
    )?;

    // Real values override the probes' stand-ins where the run has them.
    layers.set(
        "fleet.rss_worker_mib",
        workers_rss_mib / LOAD_THREADS as f64,
    );
    let ops = std::fs::read_to_string(&obs_out).ok().and_then(|text| {
        text.lines()
            .last()
            .and_then(|line| firm_wire::decode_line::<OpsReport>(line).ok())
    });
    match ops {
        Some(ops) => layers.set("fleet.retries", retries_in(&ops.merged())),
        None => result.fail(format!("no ops_report in {}", obs_out.display())),
    }
    if let Some(report) = answered.last().and_then(|r| r.report.as_ref().ok()) {
        wire_probe(
            &mut layers,
            [
                "wire.report_encode_us",
                "wire.report_decode_us",
                "wire.report_bytes",
            ],
            report,
        );
    }
    write_spans(&t, out_dir, kind.name())?;
    result.metrics = layers.into_metrics();
    Ok(result)
}
