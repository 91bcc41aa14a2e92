//! The unified controller layer: one trait, one episode driver.
//!
//! Every resource manager in the workspace — [`FirmManager`], the
//! [`K8sHpaController`] and [`AimdController`] baselines, and the no-op
//! [`Unmanaged`] control group — implements the [`Controller`] trait,
//! and every harness (online training, the fleet executor, the figure
//! binaries, the examples) drives it through one [`run_episode`] loop.
//!
//! The driver owns the parts that used to be duplicated and drift:
//!
//! * **window measurement** — each control window runs in steps of
//!   [`INGEST_PERIOD`]; after each step the requests completed in it are
//!   drained from the simulator exactly once and measured before the
//!   controller sees them, so a trace finishing exactly on a tick
//!   boundary can never be counted in two windows;
//! * **streaming ingest** — each step's requests go to
//!   [`Controller::observe`] as they complete, and what it hands back
//!   reaches the window's tick. FIRM ingests them into its trace store
//!   and keeps only their critical paths, so its span memory is bounded
//!   by the busiest ingest period, not the busiest control window, as
//!   the paper's streaming Tracing Coordinator (§3.1) is;
//! * **warmup gating** — measurements start only after the warmup;
//! * **drop accounting** — a dropped request counts as a completion
//!   *and* an SLO violation, so load-shedding controllers never flatter
//!   their violation rate;
//! * **mitigation tracking** — the Fig. 11b injection-to-recovery
//!   accounting via [`MitigationTracker`];
//! * **the latency histogram and per-tick timeline** behind Fig. 10/1.
//!
//! Controllers export and import their learned policy through
//! [`PolicyCheckpoint`], which is what lets a fleet deploy a trained
//! shared agent back onto its catalog (the paper's round-trip claim).

use firm_sim::telemetry_probe::TelemetryWindow;
use firm_sim::{AnomalyId, CompletedRequest, Histogram, SimDuration, SimTime, Simulation};

use crate::baselines::{AimdController, K8sHpaController};
use crate::injector::AnomalyInjector;
use crate::manager::{ExperienceLog, FirmManager};
use crate::slo::assess_requests;

/// A frozen, serializable policy: the shared DDPG agent's
/// `(actor, critic)` weights. What a trained fleet exports and a
/// deployed controller imports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PolicyCheckpoint {
    /// Flattened actor weights.
    pub actor: Vec<f64>,
    /// Flattened critic weights.
    pub critic: Vec<f64>,
}

impl PolicyCheckpoint {
    /// FNV-1a 64 over the weights' IEEE-754 bit patterns — a cheap
    /// fingerprint for bit-identity checks in tests and CI.
    pub fn digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for w in self.actor.iter().chain(&self.critic) {
            for b in w.to_bits().to_le_bytes() {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }
}

/// How often [`run_episode`] drains the requests completed inside a
/// control window and hands them to [`Controller::observe`]: 100 ms of
/// simulated time, the last step of a window ending at the window's end.
/// Stepping changes no result (the simulator processes the same events
/// in the same order whatever deadlines it is run to); it bounds how
/// long a completed request's spans wait for a streaming controller.
pub const INGEST_PERIOD: SimDuration = SimDuration::from_millis(100);

/// Everything one control tick hands a controller: the window's drained
/// traces and telemetry.
#[derive(Debug)]
pub struct TickContext {
    /// Start of the control window that just elapsed.
    pub window_start: SimTime,
    /// End-to-end requests completed in the window that the controller's
    /// [`Controller::observe`] handed back (each drained exactly once;
    /// ownership passes to the controller). Under [`run_episode`] that
    /// is the whole window for every controller but FIRM, which ingests
    /// its requests as they complete and leaves this empty.
    pub completed: Vec<CompletedRequest>,
    /// The window's telemetry snapshot.
    pub telemetry: TelemetryWindow,
}

impl TickContext {
    /// Drains the window that opened at `window_start`: its completed
    /// requests, then its telemetry, in one piece. A caller that steps
    /// a controller by hand builds its ticks here; [`run_episode`]
    /// drains each [`INGEST_PERIOD`] instead and builds the tick from
    /// what [`Controller::observe`] kept.
    pub fn drain(sim: &mut Simulation, window_start: SimTime) -> TickContext {
        TickContext {
            window_start,
            completed: sim.drain_completed(),
            telemetry: sim.drain_telemetry(),
        }
    }

    /// The shared SLO verdict ([`crate::slo::assess`]) over the window's
    /// drained requests: what every controller reports as `violating`,
    /// except FIRM, which reports the assessment it acted on.
    pub fn window_violates(&self, sim: &Simulation) -> bool {
        assess_requests(sim.app(), &self.completed).any_violation()
    }
}

/// What a controller concluded about the window it just acted on.
#[derive(Debug, Clone, Copy)]
pub struct ControlDecision {
    /// Whether the controller considers the window SLO-violating (feeds
    /// the Fig. 11b mitigation accounting).
    pub violating: bool,
}

/// A resource manager under test: one tick per control window.
pub trait Controller {
    /// Report label ("FIRM", "K8S", "AIMD", "none").
    fn name(&self) -> &'static str;

    /// One control pass: observe the window, actuate on the simulation.
    fn tick(&mut self, sim: &mut Simulation, ctx: TickContext) -> ControlDecision;

    /// Sees requests as they complete, every [`INGEST_PERIOD`] of a
    /// control window, before the window's tick; returns the ones the
    /// tick should still receive in [`TickContext::completed`]. The
    /// default keeps them all, so the tick sees the whole window.
    fn observe(&mut self, completed: Vec<CompletedRequest>) -> Vec<CompletedRequest> {
        completed
    }

    /// Takes the experience recorded since the last drain (empty for
    /// controllers that don't learn).
    fn drain_experience(&mut self) -> ExperienceLog {
        ExperienceLog::default()
    }

    /// The controller's current learned policy, if it has one.
    fn export_policy(&self) -> Option<PolicyCheckpoint> {
        None
    }

    /// Loads a frozen policy (no-op for policy-free controllers).
    fn import_policy(&mut self, _policy: &PolicyCheckpoint) {}
}

/// The control group: no management, static allocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unmanaged;

impl Controller for Unmanaged {
    fn name(&self) -> &'static str {
        "none"
    }

    fn tick(&mut self, sim: &mut Simulation, ctx: TickContext) -> ControlDecision {
        ControlDecision {
            violating: ctx.window_violates(sim),
        }
    }
}

impl Controller for FirmManager {
    fn name(&self) -> &'static str {
        "FIRM"
    }

    fn tick(&mut self, sim: &mut Simulation, ctx: TickContext) -> ControlDecision {
        let assessment = self.tick_window(sim, ctx);
        ControlDecision {
            violating: assessment.any_violation(),
        }
    }

    /// Ingests the requests into the trace store, which keeps their
    /// critical paths and frees their spans; the tick receives none.
    fn observe(&mut self, completed: Vec<CompletedRequest>) -> Vec<CompletedRequest> {
        self.ingest(completed);
        Vec::new()
    }

    fn drain_experience(&mut self) -> ExperienceLog {
        FirmManager::drain_experience(self)
    }

    fn export_policy(&self) -> Option<PolicyCheckpoint> {
        let (actor, critic) = self.shared_weights();
        Some(PolicyCheckpoint { actor, critic })
    }

    fn import_policy(&mut self, policy: &PolicyCheckpoint) {
        self.estimator_mut()
            .import_shared(&policy.actor, &policy.critic);
    }
}

impl Controller for K8sHpaController {
    fn name(&self) -> &'static str {
        "K8S"
    }

    fn tick(&mut self, sim: &mut Simulation, ctx: TickContext) -> ControlDecision {
        let violating = ctx.window_violates(sim);
        K8sHpaController::tick(self, sim, &ctx.telemetry);
        ControlDecision { violating }
    }
}

impl Controller for AimdController {
    fn name(&self) -> &'static str {
        "AIMD"
    }

    fn tick(&mut self, sim: &mut Simulation, ctx: TickContext) -> ControlDecision {
        let violating = ctx.window_violates(sim);
        AimdController::tick(self, sim, ctx);
        ControlDecision { violating }
    }
}

/// One point of the per-tick timeline (Fig. 10 series).
#[derive(Debug, Clone, Copy)]
pub struct TimelinePoint {
    /// Sum of requested CPU limits (cores).
    pub requested_cpu: f64,
    /// Drops in the window.
    pub drops: u64,
}

/// Tracks SLO-mitigation times across control ticks: for each anomaly
/// that coincides with a violation, the time from the first violating
/// window to the first violation-free window while the anomaly is still
/// active (Fig. 11b's metric). Anomalies that end unresolved count
/// their full violation span.
#[derive(Debug, Default)]
pub struct MitigationTracker {
    /// anomaly id → (violation first seen, resolved).
    open: Vec<(AnomalyId, SimTime, bool)>,
    times: Vec<SimDuration>,
}

impl MitigationTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        MitigationTracker::default()
    }

    /// Mitigation times measured so far.
    pub fn times(&self) -> &[SimDuration] {
        &self.times
    }

    /// Consumes the tracker, yielding the measured times.
    pub fn into_times(self) -> Vec<SimDuration> {
        self.times
    }

    /// Observes one tick: which anomalies are active and whether the SLO
    /// held in this window.
    pub fn observe(
        &mut self,
        active: &[AnomalyId],
        violating: bool,
        now: SimTime,
        tick: SimDuration,
    ) {
        // Open trackers for new anomalies that coincide with violations.
        for id in active {
            if violating && !self.open.iter().any(|(a, _, _)| a == id) {
                self.open.push((*id, now, false));
            }
        }
        // A violation-free window while the anomaly is still active means
        // the manager mitigated it.
        if !violating {
            for (_, started, resolved) in &mut self.open {
                if !*resolved {
                    *resolved = true;
                    self.times.push((now - *started).saturating_sub(tick));
                }
            }
        }
        // Anomalies that ended unresolved count their full violation span.
        let still_active = |id: &AnomalyId| active.contains(id);
        let mut keep = Vec::new();
        for (id, started, resolved) in self.open.drain(..) {
            if still_active(&id) {
                keep.push((id, started, resolved));
            } else if !resolved {
                self.times.push(now - started);
            }
        }
        self.open = keep;
    }
}

/// Episode timing: how long to run, how often to tick, when to start
/// measuring.
#[derive(Debug, Clone, Copy)]
pub struct EpisodeSpec {
    /// Episode length.
    pub duration: SimDuration,
    /// Control-loop period (and measurement window).
    pub control_interval: SimDuration,
    /// Measurements start after this warmup.
    pub warmup: SimDuration,
}

/// Everything one episode measured.
#[derive(Debug)]
pub struct EpisodeResult {
    /// Control ticks executed.
    pub ticks: u64,
    /// End-to-end latency histogram (us), post-warmup, non-dropped.
    pub latency: Histogram,
    /// Per-tick timeline.
    pub timeline: Vec<TimelinePoint>,
    /// Requests finished post-warmup — served *or* dropped.
    pub completions: u64,
    /// Requests dropped post-warmup.
    pub drops: u64,
    /// SLO violations post-warmup (drops included).
    pub slo_violations: u64,
    /// Mean requested CPU limit over the measured window (cores).
    pub mean_requested_cpu: f64,
    /// Per-anomaly mitigation times (Fig. 11b).
    pub mitigation_times: Vec<SimDuration>,
}

impl EpisodeResult {
    /// SLO violation rate among completed requests.
    pub fn violation_rate(&self) -> f64 {
        if self.completions == 0 {
            0.0
        } else {
            self.slo_violations as f64 / self.completions as f64
        }
    }

    /// Mean end-to-end latency of served (non-dropped) requests, us:
    /// exact, since the histogram keeps the sum of what it recorded.
    pub fn mean_latency_us(&self) -> f64 {
        self.latency.mean()
    }

    /// Mean mitigation time in seconds (0 if no anomalies fired).
    pub fn mean_mitigation_secs(&self) -> f64 {
        if self.mitigation_times.is_empty() {
            return 0.0;
        }
        self.mitigation_times
            .iter()
            .map(|d| d.as_secs_f64())
            .sum::<f64>()
            / self.mitigation_times.len() as f64
    }
}

/// Drives one episode: the single tick/measurement/mitigation loop the
/// whole workspace shares. The caller keeps ownership of the
/// simulation, the controller, and the injector, so it can read
/// whatever else it needs afterwards (run stats, arrival logs,
/// injection history, harvested experience).
pub fn run_episode(
    sim: &mut Simulation,
    controller: &mut dyn Controller,
    mut injector: Option<&mut AnomalyInjector>,
    spec: &EpisodeSpec,
) -> EpisodeResult {
    let app = sim.app().clone();

    let mut latency = Histogram::new();
    let mut timeline = Vec::new();
    let mut tracker = MitigationTracker::new();
    let mut ticks = 0u64;
    let mut completions = 0u64;
    let mut drops = 0u64;
    let mut slo_violations = 0u64;
    let mut cpu_sum = 0.0;
    let mut cpu_n = 0u64;

    let end = sim.now() + spec.duration;
    let warm_until = sim.now() + spec.warmup;

    let stage_sim = firm_obs::metrics().histogram("stage.sim_us");
    while sim.now() < end {
        let window_start = sim.now();
        let window_end = window_start + spec.control_interval;
        if let Some(inj) = injector.as_deref_mut() {
            inj.tick(sim);
        }
        ticks += 1;
        let measuring = window_end > warm_until;

        // The window runs in ingest periods; nothing outside the
        // simulator acts between them (the injector and the tick act
        // only at window boundaries), so the steps replay the one
        // `run_for` of the whole window event for event.
        let mut completed = Vec::new();
        let mut window_drops = 0u64;
        let mut sim_spent = std::time::Duration::ZERO;
        while sim.now() < window_end {
            let sim_started = std::time::Instant::now();
            sim.run_until((sim.now() + INGEST_PERIOD).min(window_end));
            sim_spent += sim_started.elapsed();

            // The single measurement pass. Completed traces are
            // *drained* (each appears in exactly one step of one
            // window), which is what makes a trace finishing exactly on
            // a tick boundary count once — the bug the old per-harness
            // loops fixed independently or not at all.
            let step = sim.drain_completed();
            for r in &step {
                if r.dropped {
                    window_drops += 1;
                    if measuring {
                        drops += 1;
                        completions += 1;
                        // A dropped request failed its SLO by definition;
                        // counting it keeps shedding controllers
                        // comparable to slow ones.
                        slo_violations += 1;
                    }
                } else {
                    let us = r.latency.as_micros();
                    if measuring {
                        latency.record(us);
                        completions += 1;
                        if us > app.request_types[r.request_type.index()].slo_latency_us {
                            slo_violations += 1;
                        }
                    }
                }
            }
            completed.extend(controller.observe(step));
        }
        stage_sim.record(sim_spent.as_micros() as u64);

        let ctx = TickContext {
            window_start,
            completed,
            telemetry: sim.drain_telemetry(),
        };
        let decision = controller.tick(sim, ctx);

        // Requested CPU reflects the controller's actions this tick.
        let requested_cpu = sim.total_requested_cpu();
        if measuring {
            cpu_sum += requested_cpu;
            cpu_n += 1;
        }
        timeline.push(TimelinePoint {
            requested_cpu,
            drops: window_drops,
        });

        // Mitigation accounting.
        let active: Vec<AnomalyId> = sim
            .active_anomalies()
            .iter()
            .filter(|(_, _, at)| *at <= sim.now())
            .map(|(id, _, _)| *id)
            .collect();
        tracker.observe(
            &active,
            decision.violating,
            sim.now(),
            spec.control_interval,
        );
    }

    EpisodeResult {
        ticks,
        latency,
        timeline,
        completions,
        drops,
        slo_violations,
        mean_requested_cpu: if cpu_n == 0 {
            0.0
        } else {
            cpu_sum / cpu_n as f64
        },
        mitigation_times: tracker.into_times(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{AimdConfig, K8sConfig};
    use crate::injector::CampaignConfig;
    use crate::manager::FirmConfig;
    use firm_sim::spec::{AppSpec, ClusterSpec};
    use firm_sim::{AnomalyKind, AnomalySpec, NodeId, PoissonArrivals};

    fn tight_sim(seed: u64) -> Simulation {
        let mut app = AppSpec::three_tier_demo();
        app.request_types[0].slo_latency_us = 10_000;
        Simulation::builder(ClusterSpec::small(2), app, seed)
            .arrivals(Box::new(PoissonArrivals::new(60.0)))
            .build()
    }

    /// 30 s of `tight_sim(seed)` under the stressor campaign, measured
    /// after a 5 s warm-up; returns the injector for its history.
    fn stressed_episode(ctl: &mut dyn Controller, seed: u64) -> (EpisodeResult, AnomalyInjector) {
        let mut sim = tight_sim(seed);
        let mut injector = AnomalyInjector::new(CampaignConfig::stressors_only(), seed ^ 0xF00D);
        let spec = EpisodeSpec {
            duration: SimDuration::from_secs(30),
            control_interval: SimDuration::from_secs(1),
            warmup: SimDuration::from_secs(5),
        };
        let result = run_episode(&mut sim, ctl, Some(&mut injector), &spec);
        (result, injector)
    }

    #[test]
    fn unmanaged_scenario_collects_measurements() {
        let mut ctl = Unmanaged;
        let (res, _) = stressed_episode(&mut ctl, 1);
        assert_eq!(ctl.name(), "none");
        assert!(res.completions > 500);
        assert!(res.latency.count() > 500);
        assert_eq!(res.timeline.len(), 30);
        assert!(res.mean_requested_cpu > 0.0);
    }

    #[test]
    fn managed_scenarios_run_for_all_controllers() {
        let services = tight_sim(2).app().services.len();
        let controllers: Vec<Box<dyn Controller>> = vec![
            Box::new(FirmManager::new(FirmConfig {
                training: true,
                ..FirmConfig::default()
            })),
            Box::new(K8sHpaController::new(K8sConfig::default(), services)),
            Box::new(AimdController::new(AimdConfig::default())),
        ];
        for (mut ctl, name) in controllers.into_iter().zip(["FIRM", "K8S", "AIMD"]) {
            assert_eq!(ctl.name(), name);
            let (res, injector) = stressed_episode(ctl.as_mut(), 2);
            assert!(res.completions > 300, "{name}: {}", res.completions);
            // Conservation: every measured request is served or dropped,
            // every drop is a violation, one timeline point per tick, and
            // at most one mitigation time per injected anomaly.
            assert_eq!(res.latency.count() + res.drops, res.completions, "{name}");
            assert!(res.drops <= res.slo_violations, "{name}");
            assert!(res.slo_violations <= res.completions, "{name}");
            assert_eq!(res.timeline.len() as u64, res.ticks, "{name}");
            assert!(
                res.mitigation_times.len() <= injector.history().len(),
                "{name}: {} times for {} injections",
                res.mitigation_times.len(),
                injector.history().len()
            );
        }
    }

    #[test]
    fn mitigation_tracker_measures_recovery() {
        let mut t = MitigationTracker::new();
        let tick = SimDuration::from_secs(1);
        let id = AnomalyId(1);
        // Anomaly active + violating for 3 ticks, then recovered.
        t.observe(&[id], true, SimTime::from_secs(1), tick);
        t.observe(&[id], true, SimTime::from_secs(2), tick);
        t.observe(&[id], true, SimTime::from_secs(3), tick);
        t.observe(&[id], false, SimTime::from_secs(4), tick);
        assert_eq!(t.times().len(), 1);
        assert_eq!(t.times()[0], SimDuration::from_secs(2));
    }

    #[test]
    fn unresolved_anomaly_counts_full_span() {
        let mut t = MitigationTracker::new();
        let tick = SimDuration::from_secs(1);
        let id = AnomalyId(2);
        t.observe(&[id], true, SimTime::from_secs(1), tick);
        t.observe(&[id], true, SimTime::from_secs(2), tick);
        // The anomaly ends while still violating.
        t.observe(&[], true, SimTime::from_secs(3), tick);
        assert_eq!(t.times().len(), 1);
        assert_eq!(t.times()[0], SimDuration::from_secs(2));
    }

    fn no_warmup_spec(secs: u64) -> EpisodeSpec {
        EpisodeSpec {
            duration: SimDuration::from_secs(secs),
            control_interval: SimDuration::from_secs(1),
            warmup: SimDuration::ZERO,
        }
    }

    /// Forwards `name`, `observe` and `tick`, counting every request
    /// the episode drains and hands to `observe`.
    struct Counting<'a> {
        inner: &'a mut dyn Controller,
        served: u64,
        dropped: u64,
    }

    impl<'a> Counting<'a> {
        fn new(inner: &'a mut dyn Controller) -> Self {
            Counting {
                inner,
                served: 0,
                dropped: 0,
            }
        }
    }

    impl Controller for Counting<'_> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn tick(&mut self, sim: &mut Simulation, ctx: TickContext) -> ControlDecision {
            self.inner.tick(sim, ctx)
        }

        fn observe(&mut self, completed: Vec<CompletedRequest>) -> Vec<CompletedRequest> {
            for r in &completed {
                if r.dropped {
                    self.dropped += 1;
                } else {
                    self.served += 1;
                }
            }
            self.inner.observe(completed)
        }
    }

    /// Regression pin for the window-boundary double-count: with zero
    /// warmup, everything the simulator finalized must be drained and
    /// measured exactly once, for every controller — including FIRM,
    /// whose old coordinator-side measurement loop counted a trace
    /// finishing exactly on a tick boundary in two windows until each
    /// harness patched it by hand.
    #[test]
    fn window_boundary_traces_are_counted_exactly_once() {
        let controllers: Vec<Box<dyn Controller>> = vec![
            Box::new(Unmanaged),
            Box::new(FirmManager::new(FirmConfig {
                training: true,
                ..FirmConfig::default()
            })),
            Box::new(K8sHpaController::new(K8sConfig::default(), 5)),
            Box::new(AimdController::new(AimdConfig::default())),
        ];
        for mut ctl in controllers {
            let mut sim = tight_sim(31);
            let mut counted = Counting::new(ctl.as_mut());
            let result = run_episode(&mut sim, &mut counted, None, &no_warmup_spec(12));
            let drained = counted.served + counted.dropped;
            assert!(
                sim.drain_completed().is_empty(),
                "{}: the episode left finalized requests undrained",
                ctl.name()
            );
            assert_eq!(
                result.completions,
                drained,
                "{}: measured {} but the episode drained {}",
                ctl.name(),
                result.completions,
                drained
            );
            assert_eq!(
                result.drops,
                counted.dropped,
                "{}: drop count drifted",
                ctl.name()
            );
            assert!(
                result.completions > 300,
                "{}: too little traffic",
                ctl.name()
            );
        }
    }

    #[test]
    fn unmanaged_episode_measures_and_tracks_timeline() {
        let mut sim = tight_sim(32);
        let mut ctl = Unmanaged;
        let result = run_episode(&mut sim, &mut ctl, None, &no_warmup_spec(8));
        assert_eq!(result.ticks, 8);
        assert_eq!(result.timeline.len(), 8);
        assert!(result.mean_requested_cpu > 0.0);
        assert!(result.latency.count() > 0);
        assert!(result.violation_rate() <= 1.0);
    }

    #[test]
    fn warmup_gates_measurement_but_not_the_timeline() {
        let mut sim = tight_sim(33);
        let mut ctl = Unmanaged;
        let mut counted = Counting::new(&mut ctl);
        let spec = EpisodeSpec {
            duration: SimDuration::from_secs(6),
            control_interval: SimDuration::from_secs(1),
            warmup: SimDuration::from_secs(3),
        };
        let result = run_episode(&mut sim, &mut counted, None, &spec);
        assert_eq!(result.timeline.len(), 6);
        // Only the post-warmup half was measured.
        assert!(result.completions < counted.served + counted.dropped);
    }

    /// Forwards only `name` and `tick`, so it keeps the default
    /// `observe`: FIRM is handed each whole window at the tick and
    /// ingests it there, as under any wrapping controller.
    struct TickOnly<'a>(&'a mut FirmManager);

    impl Controller for TickOnly<'_> {
        fn name(&self) -> &'static str {
            Controller::name(self.0)
        }

        fn tick(&mut self, sim: &mut Simulation, ctx: TickContext) -> ControlDecision {
            Controller::tick(self.0, sim, ctx)
        }
    }

    /// FIRM ingesting each [`INGEST_PERIOD`] as it completes must act
    /// exactly as FIRM ingesting the window at its tick: same episode,
    /// same experience, same policy. The 1.25 s interval ends each
    /// window on a short step.
    #[test]
    fn streamed_ingest_matches_ingest_at_the_tick() {
        for interval_ms in [1_000, 1_250] {
            let run = |streamed: bool| {
                let mut firm = FirmManager::new(FirmConfig {
                    training: true,
                    record_experience: true,
                    ..FirmConfig::default()
                });
                let mut sim = tight_sim(6);
                for (kind, intensity) in [
                    (AnomalyKind::MemBwStress, 1.0),
                    (AnomalyKind::NetworkDelay, 0.15),
                ] {
                    let spec =
                        AnomalySpec::new(kind, NodeId(0), intensity, SimDuration::from_secs(15));
                    sim.inject_at(spec, SimTime::from_secs(8));
                }
                let mut injector =
                    AnomalyInjector::new(CampaignConfig::stressors_only(), 6 ^ 0xF00D);
                let spec = EpisodeSpec {
                    duration: SimDuration::from_secs(30),
                    control_interval: SimDuration::from_millis(interval_ms),
                    warmup: SimDuration::from_secs(5),
                };
                let result = if streamed {
                    run_episode(&mut sim, &mut firm, Some(&mut injector), &spec)
                } else {
                    run_episode(
                        &mut sim,
                        &mut TickOnly(&mut firm),
                        Some(&mut injector),
                        &spec,
                    )
                };
                let policy = Controller::export_policy(&firm).expect("FIRM has a policy");
                (result, firm.drain_experience(), policy.digest())
            };
            let (streamed, streamed_log, streamed_policy) = run(true);
            let (ticked, ticked_log, ticked_policy) = run(false);
            assert!(
                streamed.slo_violations > 0,
                "{interval_ms} ms: no violations"
            );
            assert!(
                !streamed_log.transitions.is_empty(),
                "{interval_ms} ms: FIRM never acted"
            );

            assert_eq!(streamed.ticks, ticked.ticks, "{interval_ms} ms");
            assert_eq!(
                format!("{:?}", streamed.latency),
                format!("{:?}", ticked.latency),
                "{interval_ms} ms"
            );
            assert_eq!(
                format!("{:?}", streamed.timeline),
                format!("{:?}", ticked.timeline),
                "{interval_ms} ms"
            );
            assert_eq!(streamed.completions, ticked.completions, "{interval_ms} ms");
            assert_eq!(streamed.drops, ticked.drops, "{interval_ms} ms");
            assert_eq!(
                streamed.slo_violations, ticked.slo_violations,
                "{interval_ms} ms"
            );
            assert_eq!(
                streamed.mean_requested_cpu.to_bits(),
                ticked.mean_requested_cpu.to_bits(),
                "{interval_ms} ms"
            );
            assert_eq!(
                streamed.mitigation_times, ticked.mitigation_times,
                "{interval_ms} ms"
            );
            assert_eq!(streamed_log, ticked_log, "{interval_ms} ms");
            assert_eq!(streamed_policy, ticked_policy, "{interval_ms} ms");
        }
    }

    #[test]
    fn firm_policy_checkpoint_round_trips() {
        let trained = FirmManager::new(FirmConfig {
            training: true,
            seed: 5,
            ..FirmConfig::default()
        });
        let policy = Controller::export_policy(&trained).expect("FIRM has a policy");
        assert!(!policy.actor.is_empty() && !policy.critic.is_empty());

        let mut fresh = FirmManager::new(FirmConfig {
            seed: 99,
            ..FirmConfig::default()
        });
        let before = Controller::export_policy(&fresh).expect("policy");
        assert_ne!(before.digest(), policy.digest(), "seeds collide");
        fresh.import_policy(&policy);
        let after = Controller::export_policy(&fresh).expect("policy");
        assert_eq!(after, policy);
        assert_eq!(after.digest(), policy.digest());
    }

    #[test]
    fn policy_free_controllers_export_nothing() {
        assert!(Controller::export_policy(&Unmanaged).is_none());
        let hpa = K8sHpaController::new(K8sConfig::default(), 3);
        assert!(Controller::export_policy(&hpa).is_none());
        let mut aimd = AimdController::new(AimdConfig::default());
        assert!(Controller::export_policy(&aimd).is_none());
        // Importing into a policy-free controller is a harmless no-op.
        aimd.import_policy(&PolicyCheckpoint::default());
        assert!(Controller::drain_experience(&mut aimd).is_empty());
    }
}
