//! The FIRM manager: the full Fig. 6 control loop.
//!
//! Each control tick the manager (1) ingests traces (streamed in as they
//! complete when [`run_episode`] drives it) and telemetry, (2)
//! assesses SLOs, (3) completes the reward/next-state half of pending RL
//! transitions, (4) when violations exist, extracts critical paths and
//! localizes culprit instances with Algorithm 2, (5) queries the RL
//! estimator for per-culprit resource actions, and (6) turns each action
//! into commands with [`deployment::plan`] and applies them. `plan` holds
//! both scale-out rules: an oversubscribing limit is replaced by a
//! scale-out (§3.5), and an action at the top of its range asks for one
//! (§3.4). In training mode the injector's ground truth also feeds the
//! SVM online and the agent explores.
//!
//! [`run_episode`]: crate::controller::run_episode

use std::collections::BTreeMap;

use firm_ml::ddpg::Transition;
use firm_sim::telemetry_probe::{InstanceSnapshot, TelemetryWindow};
use firm_sim::{CompletedRequest, InstanceId, ServiceId, SimDuration, Simulation, RESOURCE_KINDS};
use firm_trace::TracingCoordinator;

use crate::controller::TickContext;
use crate::deployment;
use crate::estimator::{self, reward, AgentRegime, ResourceEstimator};
use crate::extractor::{ground_truth_label, CriticalComponentExtractor};
use crate::slo::{assess, SloAssessment};

/// Maximum culprit instances acted upon per tick.
const MAX_CANDIDATES: usize = 4;

/// Reward trade-off α (the paper leaves it unspecified; 0.5 balances
/// SLO compliance and utilization).
const ALPHA: f64 = 0.5;

/// FIRM configuration.
#[derive(Debug, Clone)]
pub struct FirmConfig {
    /// Control-loop period.
    pub control_interval: SimDuration,
    /// Agent regime (§4.3: one-for-all / one-for-each / transferred).
    pub regime: AgentRegime,
    /// Training mode: label the SVM from ground truth and learn from
    /// transitions.
    pub training: bool,
    /// Add exploration noise to actions (usually tied to `training`;
    /// disable for deployed-but-still-learning operation).
    pub explore: bool,
    /// Use the SVM to filter culprits (the paper's two-level design).
    /// With `false`, the RL agent sees *every* critical-path instance —
    /// the §5 ablation ("Why Multi-level ML Framework?").
    pub svm_filter: bool,
    /// Record completed RL transitions and SVM ground-truth examples
    /// into an [`ExperienceLog`] for external (cross-simulation)
    /// trainers to drain. Off by default: single-sim runs learn in
    /// place and don't pay the copy.
    pub record_experience: bool,
    /// Use the SLO-penalized reward variant
    /// ([`crate::estimator::reward_penalized`]): violations below the
    /// SLO line earn *negative* rewards, so a harsh tenant's pooled
    /// experience records how badly it violated. Off by default — the
    /// legacy reward is non-negative by construction and changing it
    /// would move every pinned digest.
    pub slo_penalty: bool,
    /// RNG seed for the ML components.
    pub seed: u64,
}

impl Default for FirmConfig {
    fn default() -> Self {
        FirmConfig {
            control_interval: SimDuration::from_secs(1),
            regime: AgentRegime::Shared,
            training: false,
            explore: true,
            svm_filter: true,
            record_experience: false,
            slo_penalty: false,
            seed: 7,
        }
    }
}

/// Experience harvested from one managed run, in completion order: the
/// raw material of the paper's §4.3 *one-for-all* regime when pooled
/// across many simulations by a fleet runtime.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExperienceLog {
    /// Completed RL transitions, tagged with the acting service.
    pub transitions: Vec<(ServiceId, Transition)>,
    /// Algorithm 2 feature vectors with their ground-truth culprit
    /// labels (SVM training pairs).
    pub svm_examples: Vec<(crate::extractor::InstanceFeatures, bool)>,
}

impl ExperienceLog {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty() && self.svm_examples.is_empty()
    }

    /// Appends another log, preserving its internal order.
    pub fn merge(&mut self, other: ExperienceLog) {
        self.transitions.extend(other.transitions);
        self.svm_examples.extend(other.svm_examples);
    }
}

/// Counters exposed for reports and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct ManagerStats {
    /// Control ticks executed.
    pub ticks: u64,
    /// Ticks that observed an SLO violation.
    pub violation_ticks: u64,
    /// RL actions issued.
    pub actions: u64,
    /// Actions that became scale-outs (either rule of [`deployment::plan`]).
    pub scale_outs: u64,
    /// Completed RL transitions.
    pub transitions: u64,
}

#[derive(Debug)]
struct Pending {
    instance: InstanceId,
    service: ServiceId,
    state: Vec<f64>,
    action: Vec<f64>,
}

/// The FIRM framework; its trace store holds one control window of
/// critical paths.
#[derive(Debug)]
pub struct FirmManager {
    /// Configuration.
    pub config: FirmConfig,
    coordinator: TracingCoordinator,
    /// The previous window's `arrival_rate`: the denominator of `WCt`.
    prev_arrival_rate: Option<f64>,
    extractor: CriticalComponentExtractor,
    estimator: ResourceEstimator,
    pending: Vec<Pending>,
    episode_reward: f64,
    stats: ManagerStats,
    experience: ExperienceLog,
    timers: StageTimers,
}

/// Cached handles into the process-wide `firm_obs` registry, resolved
/// once at construction so the per-tick hot path never takes the
/// registry lock. Purely observational: nothing here feeds back into
/// control decisions or recorded experience.
#[derive(Debug)]
struct StageTimers {
    ingest: std::sync::Arc<firm_obs::Histogram>,
    extract: std::sync::Arc<firm_obs::Histogram>,
    train: std::sync::Arc<firm_obs::Histogram>,
    retained: std::sync::Arc<firm_obs::Histogram>,
}

impl StageTimers {
    fn new() -> Self {
        let m = firm_obs::metrics();
        StageTimers {
            ingest: m.histogram("stage.ingest_us"),
            extract: m.histogram("stage.extract_us"),
            train: m.histogram("stage.train_us"),
            retained: m.histogram("stage.retained_traces"),
        }
    }
}

impl FirmManager {
    /// Creates a manager.
    pub fn new(config: FirmConfig) -> Self {
        FirmManager {
            coordinator: TracingCoordinator::new(200_000),
            prev_arrival_rate: None,
            extractor: CriticalComponentExtractor::new(config.seed ^ 0x5111),
            estimator: ResourceEstimator::new(config.regime, config.seed),
            pending: Vec::new(),
            episode_reward: 0.0,
            stats: ManagerStats::default(),
            experience: ExperienceLog::default(),
            timers: StageTimers::new(),
            config,
        }
    }

    /// Takes the experience recorded since the last drain (empty unless
    /// [`FirmConfig::record_experience`] is set). Fleet runtimes stream
    /// these logs to a central shared-agent trainer.
    pub fn drain_experience(&mut self) -> ExperienceLog {
        std::mem::take(&mut self.experience)
    }

    /// Counters.
    pub fn stats(&self) -> ManagerStats {
        self.stats
    }

    /// The Algorithm 2 extractor (read access).
    pub fn extractor(&self) -> &CriticalComponentExtractor {
        &self.extractor
    }

    /// The RL estimator (mutable access for checkpointing/transfer).
    pub fn estimator_mut(&mut self) -> &mut ResourceEstimator {
        &mut self.estimator
    }

    /// Exports the shared agent's `(actor, critic)` weights — the
    /// checkpoint used for transfer learning and Fig. 11(b) snapshots.
    pub fn shared_weights(&self) -> (Vec<f64>, Vec<f64>) {
        self.estimator.shared_agent().export_weights()
    }

    /// Reward accumulated since the last [`FirmManager::end_episode`].
    pub fn episode_reward(&self) -> f64 {
        self.episode_reward
    }

    /// Resets environment-coupled state (traces, the previous arrival
    /// rate, pending transitions) when the manager is pointed at a *new*
    /// simulation — e.g. between training episodes. Learned state (SVM,
    /// RL weights, replay buffers) is preserved.
    pub fn reset_environment(&mut self) {
        self.coordinator = TracingCoordinator::new(200_000);
        self.prev_arrival_rate = None;
        self.pending.clear();
    }

    /// Ends a training episode: flushes pending transitions as terminal,
    /// resets exploration noise, and returns the episode's total reward.
    pub fn end_episode(&mut self, telemetry: &TelemetryWindow, sv: f64) -> f64 {
        let snapshots = Self::snapshot_map(telemetry);
        let pending = std::mem::take(&mut self.pending);
        for p in pending {
            self.complete_transition(p, &snapshots, sv, 1.0, &[], true);
        }
        self.estimator.episode_reset();
        std::mem::take(&mut self.episode_reward)
    }

    /// `WCt` of Table 3: this window's offered arrival rate over the
    /// previous window's; `1.0` when there is no previous window or it
    /// saw no arrivals. Remembers `rate` for the next tick.
    fn workload_change(&mut self, rate: f64) -> f64 {
        match self.prev_arrival_rate.replace(rate) {
            Some(prev) if prev.abs() > 1e-12 => rate / prev,
            _ => 1.0,
        }
    }

    fn snapshot_map(telemetry: &TelemetryWindow) -> BTreeMap<u32, &InstanceSnapshot> {
        telemetry
            .instances
            .iter()
            .map(|s| (s.instance.raw(), s))
            .collect()
    }

    /// Ingests completed requests into the trace store, which keeps
    /// each one's critical path and frees its spans. [`run_episode`]
    /// calls it (through [`Controller::observe`]) every
    /// [`INGEST_PERIOD`] of a window; [`FirmManager::tick_window`] calls
    /// it on the requests its context still carries. An empty batch is
    /// not timed.
    ///
    /// [`run_episode`]: crate::controller::run_episode
    /// [`Controller::observe`]: crate::controller::Controller::observe
    /// [`INGEST_PERIOD`]: crate::controller::INGEST_PERIOD
    pub(crate) fn ingest(&mut self, completed: Vec<CompletedRequest>) {
        if completed.is_empty() {
            return;
        }
        // The store rejects a span-less request silently, and an empty
        // window reads as "no traces ⇒ no violation": fail loudly instead.
        debug_assert!(
            completed
                .iter()
                .all(|r| r.dropped || r.root_span().is_some()),
            "FIRM ingested a served request without a root span: its simulation must be \
             built with SimulationBuilder::record_spans(true)"
        );
        let ingest_started = std::time::Instant::now();
        self.coordinator.ingest(completed);
        self.timers
            .ingest
            .record(ingest_started.elapsed().as_micros() as u64);
    }

    /// One control tick over the window `ctx` hands in: FIRM reads
    /// traces finished at or after `ctx.window_start`, from its store
    /// after ingesting whatever `ctx.completed` still carries (the whole
    /// window when the tick was built by [`TickContext::drain`], nothing
    /// under [`run_episode`], which streamed it in through
    /// [`Controller::observe`]). Returns the assessment it acted on.
    ///
    /// Ends with `evict_before(now)`: tick k reads `finished >=` tick k−1's
    /// time, which every earlier tick's traces finished by, so the store
    /// keeps this tick's ingest from its first boundary request
    /// (`finished == now`, read again next tick) on. Stragglers fail
    /// `since` either way; the 200 000 capacity now bounds one window.
    ///
    /// [`run_episode`]: crate::controller::run_episode
    /// [`Controller::observe`]: crate::controller::Controller::observe
    pub fn tick_window(&mut self, sim: &mut Simulation, ctx: TickContext) -> SloAssessment {
        let TickContext {
            window_start,
            completed,
            telemetry,
        } = ctx;
        self.stats.ticks += 1;

        // ① Ingest the traces not yet streamed in.
        self.ingest(completed);

        // ② Detect SLO violations.
        let assessment = assess(sim.app(), |rt| {
            self.coordinator.latencies_since(window_start, rt)
        });
        if assessment.any_violation() {
            self.stats.violation_ticks += 1;
        }
        let wc = self.workload_change(telemetry.arrival_rate);
        let mix = &telemetry.request_mix;
        let snapshots = Self::snapshot_map(&telemetry);

        // ③ Complete pending transitions with this window's outcome.
        // Training time is the DDPG updates here plus the SVM updates in
        // ④ — disjoint regions, summed into one per-tick sample.
        let mut train_spent = std::time::Duration::ZERO;
        let train_started = std::time::Instant::now();
        let pending = std::mem::take(&mut self.pending);
        for p in pending {
            self.complete_transition(p, &snapshots, assessment.sv, wc, mix, false);
        }
        train_spent += train_started.elapsed();

        // ④ Localize culprits (Alg. 2) when violating — or, in training
        // mode, on every tick so the SVM keeps learning.
        let should_extract = assessment.any_violation() || self.config.training;
        if should_extract {
            // The extractor consumes the coordinator's stored traces by
            // reference — the window is never copied out of the store.
            let extract_started = std::time::Instant::now();
            let features = self
                .extractor
                .features(self.coordinator.traces_since(window_start));
            self.timers
                .extract
                .record(extract_started.elapsed().as_micros() as u64);

            if self.config.training {
                let svm_started = std::time::Instant::now();
                for f in &features {
                    // Traces can outlive instances (scale-in); skip stale
                    // references.
                    if f.instance.index() >= sim.instances().len() {
                        continue;
                    }
                    let cpu_util = snapshots
                        .get(&f.instance.raw())
                        .map(|s| s.utilization.get(firm_sim::ResourceKind::Cpu))
                        .unwrap_or(0.0);
                    let label = ground_truth_label(sim, f.instance, cpu_util, sim.now());
                    self.extractor.train(f, label);
                    if self.config.record_experience {
                        self.experience.svm_examples.push((*f, label));
                    }
                }
                train_spent += svm_started.elapsed();
            }

            let instance_count = sim.instances().len();
            let in_sim =
                move |f: &crate::extractor::InstanceFeatures| f.instance.index() < instance_count;

            if assessment.any_violation() {
                let candidates = if self.config.svm_filter {
                    self.extractor.candidates(&features)
                } else {
                    // Ablation: no level-1 filter — every CP instance is
                    // handed to the RL agent (highest CI first).
                    let mut all: Vec<_> = features.clone();
                    all.sort_by(|a, b| b.ci.total_cmp(&a.ci));
                    all
                };
                for cand in candidates.into_iter().filter(in_sim).take(MAX_CANDIDATES) {
                    let Some(snap) = snapshots.get(&cand.instance.raw()) else {
                        continue;
                    };
                    // ⑤ RL action.
                    let state = estimator::state(snap, assessment.sv, wc, mix);
                    let action = if self.config.training && self.config.explore {
                        self.estimator.act_explore(cand.service, &state)
                    } else {
                        self.estimator.act(cand.service, &state)
                    };
                    // ⑥ Plan + actuate, floored by live demand so a
                    // half-trained policy cannot choke a container. The
                    // CPU floor is *concurrency* (Little's law), not CPU
                    // work: workers block on downstream RPCs, so a
                    // thread-per-request service needs ≈ arrival rate ×
                    // mean latency worker slots regardless of CPU burn.
                    let mut floors = snap.usage;
                    let window_us = snap.window.as_micros().max(1) as f64;
                    let concurrency = snap.arrivals as f64 * snap.mean_latency_us / window_us;
                    floors.set(
                        firm_sim::ResourceKind::Cpu,
                        floors.get(firm_sim::ResourceKind::Cpu).max(concurrency),
                    );
                    let plan = deployment::plan(sim, cand.instance, &action, &floors);
                    for cmd in &plan.commands {
                        sim.apply(*cmd);
                    }
                    self.stats.actions += 1;
                    if plan.scale_out.is_some() {
                        self.stats.scale_outs += 1;
                    }
                    self.pending.push(Pending {
                        instance: cand.instance,
                        service: cand.service,
                        state,
                        action,
                    });
                }
            }
        }

        self.coordinator.evict_before(sim.now());
        let kept = self.coordinator.store().len() as u64;
        self.timers.retained.record(kept);
        self.timers.train.record(train_spent.as_micros() as u64);
        assessment
    }

    fn complete_transition(
        &mut self,
        p: Pending,
        snapshots: &BTreeMap<u32, &InstanceSnapshot>,
        sv: f64,
        wc: f64,
        mix: &[f64],
        done: bool,
    ) {
        let Some(snap) = snapshots.get(&p.instance.raw()) else {
            return;
        };
        let mut utils = [0.0; 5];
        for kind in RESOURCE_KINDS {
            utils[kind.index()] = snap.utilization.get(kind);
        }
        let r = if self.config.slo_penalty {
            estimator::reward_penalized(sv, &utils, ALPHA)
        } else {
            reward(sv, &utils, ALPHA)
        };
        self.episode_reward += r;
        let next_state = estimator::state(snap, sv, wc, mix);
        let transition = Transition {
            state: p.state,
            action: p.action,
            reward: r,
            next_state,
            done,
        };
        if self.config.record_experience {
            self.experience
                .transitions
                .push((p.service, transition.clone()));
        }
        if self.config.training {
            self.estimator.learn(p.service, transition);
        }
        self.stats.transitions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{run_episode, EpisodeSpec};
    use firm_sim::spec::{AppSpec, ClusterSpec};
    use firm_sim::{AnomalyKind, AnomalySpec, NodeId, PoissonArrivals, SimTime};

    fn tight_app() -> AppSpec {
        let mut app = AppSpec::three_tier_demo();
        app.request_types[0].slo_latency_us = 5_000;
        app
    }

    /// Ticks `mgr` at its control interval for `duration`, no injector.
    fn run_firm(sim: &mut Simulation, mgr: &mut FirmManager, duration: SimDuration) {
        let spec = EpisodeSpec {
            duration,
            control_interval: mgr.config.control_interval,
            warmup: SimDuration::ZERO,
        };
        run_episode(sim, mgr, None, &spec);
    }

    #[test]
    fn healthy_loop_issues_no_actions() {
        let mut sim = Simulation::builder(ClusterSpec::small(2), tight_app(), 81)
            .arrivals(Box::new(PoissonArrivals::new(50.0)))
            .build();
        let mut mgr = FirmManager::new(FirmConfig::default());
        run_firm(&mut sim, &mut mgr, SimDuration::from_secs(5));
        let stats = mgr.stats();
        assert_eq!(stats.ticks, 5);
        assert_eq!(stats.actions, 0, "acted on a healthy system");
    }

    #[test]
    fn violation_triggers_localization_and_action() {
        let mut sim = Simulation::builder(ClusterSpec::small(2), tight_app(), 82)
            .arrivals(Box::new(PoissonArrivals::new(50.0)))
            .build();
        let mut mgr = FirmManager::new(FirmConfig {
            training: true,
            ..FirmConfig::default()
        });
        // Warm up, then stress node 0 hard.
        run_firm(&mut sim, &mut mgr, SimDuration::from_secs(3));
        sim.inject(AnomalySpec::new(
            AnomalyKind::MemBwStress,
            NodeId(0),
            1.0,
            SimDuration::from_secs(15),
        ));
        sim.inject(AnomalySpec::new(
            AnomalyKind::NetworkDelay,
            NodeId(0),
            0.15,
            SimDuration::from_secs(15),
        ));
        run_firm(&mut sim, &mut mgr, SimDuration::from_secs(10));
        let stats = mgr.stats();
        assert!(stats.violation_ticks > 0, "no violations observed");
        assert!(stats.actions > 0, "no mitigation actions");
        assert!(stats.transitions > 0, "no completed transitions");
        assert!(mgr.extractor().trained_examples() > 0, "SVM untouched");
    }

    #[test]
    fn experience_tap_records_and_replays() {
        let mut sim = Simulation::builder(ClusterSpec::small(2), tight_app(), 85)
            .arrivals(Box::new(PoissonArrivals::new(50.0)))
            .build();
        let mut mgr = FirmManager::new(FirmConfig {
            training: true,
            record_experience: true,
            ..FirmConfig::default()
        });
        sim.inject(AnomalySpec::new(
            AnomalyKind::MemBwStress,
            NodeId(0),
            1.0,
            SimDuration::from_secs(15),
        ));
        sim.inject(AnomalySpec::new(
            AnomalyKind::NetworkDelay,
            NodeId(0),
            0.15,
            SimDuration::from_secs(15),
        ));
        run_firm(&mut sim, &mut mgr, SimDuration::from_secs(10));
        let log = mgr.drain_experience();
        assert!(!log.transitions.is_empty(), "no transitions recorded");
        assert!(!log.svm_examples.is_empty(), "no SVM examples recorded");
        assert_eq!(log.transitions.len() as u64, mgr.stats().transitions);
        // A second drain is empty.
        assert!(mgr.drain_experience().is_empty());

        // Replaying the log into a fresh shared estimator is
        // deterministic: same log + seed → identical weights.
        use crate::estimator::{AgentRegime, ResourceEstimator};
        let train = |log: &ExperienceLog| {
            let mut est = ResourceEstimator::new(AgentRegime::Shared, 3);
            crate::training::replay_experience(&mut est, log, 32);
            est.shared_agent().export_weights()
        };
        assert_eq!(train(&log), train(&log));
    }

    #[test]
    fn workload_change_tracks_rate() {
        let mut sim =
            Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), 17).build();
        let mut mgr = FirmManager::new(FirmConfig::default());
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(mgr.workload_change(sim.drain_telemetry().arrival_rate), 1.0);
        sim.inject(AnomalySpec::new(
            AnomalyKind::WorkloadVariation,
            NodeId(0),
            1.0,
            SimDuration::from_secs(2),
        ));
        sim.run_for(SimDuration::from_secs(2));
        let wc = mgr.workload_change(sim.drain_telemetry().arrival_rate);
        assert!(wc > 2.0, "wc={wc}");
    }

    #[test]
    fn workload_change_is_one_without_a_usable_previous_rate() {
        let mut mgr = FirmManager::new(FirmConfig::default());
        assert_eq!(mgr.workload_change(100.0), 1.0, "first window after new");
        assert_eq!(mgr.workload_change(150.0), 1.5);
        mgr.reset_environment();
        assert_eq!(mgr.workload_change(75.0), 1.0, "first window after reset");
        assert_eq!(mgr.workload_change(0.0), 0.0);
        assert_eq!(mgr.workload_change(10.0), 1.0, "previous window was idle");
    }

    /// WCt oracle: every recorded transition's `state[1]` / `next_state[1]`
    /// must be the clamped ratio of the arrival rates of the windows the
    /// test itself drained — recomputed here, compared bit for bit.
    #[test]
    fn recorded_wc_is_the_ratio_of_consecutive_window_rates() {
        let mut sim = Simulation::builder(ClusterSpec::small(2), tight_app(), 85)
            .arrivals(Box::new(PoissonArrivals::new(50.0)))
            .build();
        let mut mgr = FirmManager::new(FirmConfig {
            training: true,
            record_experience: true,
            ..FirmConfig::default()
        });
        for (kind, intensity) in [
            (AnomalyKind::MemBwStress, 1.0),
            (AnomalyKind::NetworkDelay, 0.15),
        ] {
            let span = SimDuration::from_secs(15);
            sim.inject(AnomalySpec::new(kind, NodeId(0), intensity, span));
        }
        let expected = |rates: &[f64], t: usize| {
            let wc = match t.checked_sub(1).map(|p| rates[p]) {
                Some(prev) if prev.abs() > 1e-12 => rates[t] / prev,
                _ => 1.0,
            };
            wc.clamp(0.0, 3.0).to_bits()
        };
        let mut rates = Vec::new();
        let mut checked = 0;
        for t in 0..11 {
            if t == 4 {
                sim.inject(AnomalySpec::new(
                    AnomalyKind::WorkloadVariation,
                    NodeId(0),
                    1.0,
                    SimDuration::from_secs(3),
                ));
            }
            let window_start = sim.now();
            sim.run_for(SimDuration::from_secs(1));
            let ctx = TickContext::drain(&mut sim, window_start);
            rates.push(ctx.telemetry.arrival_rate);
            mgr.tick_window(&mut sim, ctx);
            // What tick t completes, tick t-1 opened.
            for (_, tr) in mgr.drain_experience().transitions {
                assert!(!tr.done);
                assert_eq!(tr.state[1].to_bits(), expected(&rates, t - 1), "t={t}");
                assert_eq!(tr.next_state[1].to_bits(), expected(&rates, t), "t={t}");
                checked += 1;
            }
        }
        assert!(checked > 0, "no transitions to check");
        assert!(
            rates.windows(2).any(|w| w[1] / w[0] > 2.0),
            "WC never moved"
        );

        mgr.end_episode(&sim.drain_telemetry(), 1.0);
        let terminal = mgr.drain_experience().transitions;
        assert!(!terminal.is_empty(), "no pending transitions to flush");
        for (_, tr) in terminal {
            assert!(tr.done);
            assert_eq!(tr.state[1].to_bits(), expected(&rates, rates.len() - 1));
            assert_eq!(tr.next_state[1], 1.0);
        }
    }

    /// What one [`drive`] run produced.
    struct Drive {
        sim: Simulation,
        stats: ManagerStats,
        /// FNV-1a over every tick's `SloAssessment` `Debug` output, then
        /// the recorded experience and the counters.
        hash: u64,
        /// Drained requests that finished before their window opened:
        /// background spans kept them open past the root response.
        stragglers: usize,
        /// Drained requests that finished exactly at their tick.
        boundary: usize,
    }

    /// Drives a training-mode FIRM over windows the test drains itself,
    /// ticking at the absolute times `ticks`, on the three-tier demo
    /// (one background call per request) under two anomaly bursts.
    fn drive(seed: u64, ticks: &[SimTime]) -> Drive {
        let mut sim = Simulation::builder(ClusterSpec::small(2), tight_app(), seed)
            .arrivals(Box::new(PoissonArrivals::new(40.0)))
            .build();
        let mut mgr = FirmManager::new(FirmConfig {
            training: true,
            record_experience: true,
            ..FirmConfig::default()
        });
        for (kind, intensity, at) in [
            (AnomalyKind::MemBwStress, 1.0, 5),
            (AnomalyKind::NetworkDelay, 0.15, 5),
            (AnomalyKind::CpuStress, 1.0, 30),
        ] {
            let spec = AnomalySpec::new(kind, NodeId(0), intensity, SimDuration::from_secs(15));
            sim.inject_at(spec, SimTime::from_secs(at));
        }
        let mut bytes = Vec::new();
        let (mut stragglers, mut boundary) = (0, 0);
        for &at in ticks {
            let window_start = sim.now();
            sim.run_until(at);
            let ctx = TickContext::drain(&mut sim, window_start);
            let completed = &ctx.completed;
            stragglers += completed
                .iter()
                .filter(|r| r.finished < window_start)
                .count();
            boundary += completed.iter().filter(|r| r.finished == at).count();
            let drained: Vec<_> = completed.iter().map(|r| r.trace_id).collect();
            let assessment = mgr.tick_window(&mut sim, ctx);
            bytes.extend(format!("{assessment:?}").bytes());
            // The store holds only traces this tick ingested, in drain
            // order (a subsequence, so never more than were drained).
            let mut ingested = drained.iter();
            assert!(
                mgr.coordinator
                    .store()
                    .all()
                    .all(|t| ingested.any(|id| *id == t.trace_id)),
                "tick at {at:?} kept a trace from an earlier window"
            );
        }
        bytes.extend(format!("{:?}{:?}", mgr.drain_experience(), mgr.stats()).bytes());
        Drive {
            sim,
            stats: mgr.stats(),
            hash: firm_wire::fnv64(&bytes),
            stragglers,
            boundary,
        }
    }

    /// `n` tick times `interval` apart, except that each tick listed in
    /// `moved` is pulled back onto the last root response in its window
    /// that completes its request (no background span still open). A
    /// probe replays the earlier ticks and runs on to the nominal time;
    /// the simulation up to that response does not depend on which
    /// deadline ends the run, so the moved tick drains the request with
    /// `finished` equal to the tick.
    fn tick_times(seed: u64, interval: SimDuration, n: u64, moved: &[usize]) -> Vec<SimTime> {
        let mut ticks: Vec<SimTime> = (1..=n)
            .map(|k| SimTime::from_micros(k * interval.as_micros()))
            .collect();
        for &k in moved {
            let mut probe = drive(seed, &ticks[..k]).sim;
            let opened = probe.now();
            probe.run_until(ticks[k]);
            ticks[k] = probe
                .drain_completed()
                .iter()
                .filter(|r| r.spans.iter().all(|s| s.end <= r.finished))
                .map(|r| r.finished)
                .filter(|&f| f > opened)
                .max()
                .expect("a request finished in the window");
        }
        ticks
    }

    /// Oracle for the trace store's retention: FIRM's per-tick outputs
    /// over a run that crosses two simulated minutes, and over half-second
    /// windows, with stragglers and boundary requests in both. The pins
    /// were captured at commit feefb39 (debug and release agree), while
    /// the manager still kept 120 s of traces: a failure means retention
    /// changed what FIRM reads — do not re-pin.
    #[test]
    fn windowed_retention_moves_no_tick_output() {
        // (seed, tick interval, ticks, ticks moved onto a boundary, pin);
        // the moved ticks sit outside the anomaly bursts, where some
        // request's background span ends before its root response.
        let runs = [
            (87, 1_000, 130, [2, 25, 64, 100, 125], 0x99b2_6f1b_d088_d7ef),
            (88, 500, 90, [3, 8, 42, 50, 58], 0xee12_a8d3_c6b8_3898),
        ];
        for (seed, interval_ms, n, moved, pin) in runs {
            let ticks = tick_times(seed, SimDuration::from_millis(interval_ms), n, &moved);
            let run = drive(seed, &ticks);
            assert_eq!(run.hash, pin, "seed {seed}: FIRM's tick outputs moved");
            assert!(run.stragglers > 0, "seed {seed}: no stragglers");
            assert!(run.boundary > 0, "seed {seed}: no boundary requests");
            assert!(run.stats.actions > 0, "seed {seed}: FIRM never acted");
        }
    }

    #[test]
    fn episode_accounting_resets() {
        let mut sim = Simulation::builder(ClusterSpec::small(2), tight_app(), 83)
            .arrivals(Box::new(PoissonArrivals::new(50.0)))
            .build();
        let mut mgr = FirmManager::new(FirmConfig {
            training: true,
            ..FirmConfig::default()
        });
        sim.inject(AnomalySpec::new(
            AnomalyKind::CpuStress,
            NodeId(0),
            1.0,
            SimDuration::from_secs(10),
        ));
        sim.inject(AnomalySpec::new(
            AnomalyKind::NetworkDelay,
            NodeId(0),
            0.15,
            SimDuration::from_secs(10),
        ));
        run_firm(&mut sim, &mut mgr, SimDuration::from_secs(6));
        let telemetry = sim.drain_telemetry();
        let total = mgr.end_episode(&telemetry, 1.0);
        assert!(total != 0.0, "episode collected no reward");
        assert_eq!(mgr.episode_reward(), 0.0);
    }

    #[test]
    fn mitigation_restores_slo_under_contention() {
        // End-to-end sanity: with FIRM managing, tail latency under a
        // long memory-bandwidth anomaly ends up below the unmanaged tail.
        let run = |managed: bool| -> (f64, usize) {
            let mut sim = Simulation::builder(ClusterSpec::small(2), tight_app(), 84)
                .arrivals(Box::new(PoissonArrivals::new(50.0)))
                .build();
            let mut mgr = FirmManager::new(FirmConfig {
                training: true,
                seed: 11,
                ..FirmConfig::default()
            });
            sim.inject(AnomalySpec::new(
                AnomalyKind::MemBwStress,
                NodeId(0),
                0.97,
                SimDuration::from_secs(40),
            ));
            // Let the contention bite and the manager react, then
            // measure the tail over the final stretch, from the windows
            // drained here (the manager keeps only the latest one).
            let mut lats = Vec::new();
            for tick in 0..40 {
                let window_start = sim.now();
                sim.run_for(SimDuration::from_secs(1));
                let ctx = TickContext::drain(&mut sim, window_start);
                if tick >= 20 {
                    lats.extend(
                        ctx.completed
                            .iter()
                            .filter(|r| !r.dropped)
                            .map(|r| r.latency.as_micros() as f64),
                    );
                }
                if managed {
                    mgr.tick_window(&mut sim, ctx);
                }
            }
            lats.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            (firm_sim::stats::sample_quantile(&lats, 0.95), lats.len())
        };
        let (unmanaged, unmanaged_n) = run(false);
        let (managed, managed_n) = run(true);
        assert!(
            unmanaged_n >= 100 && managed_n >= 100,
            "too few samples: unmanaged {unmanaged_n}, managed {managed_n}"
        );
        assert!(
            managed < unmanaged,
            "managed p95 {managed} vs unmanaged {unmanaged}"
        );
    }
}
