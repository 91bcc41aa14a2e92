//! Baseline resource managers (§4.1): the Kubernetes horizontal-pod
//! autoscaler and an AIMD limit controller.
//!
//! Both are rule-based, like the systems the paper compares against:
//!
//! * **K8s HPA** scales replica counts from *average CPU utilization
//!   only* — which is exactly why it is blind to the Fig. 1 memory-
//!   bandwidth contention (CPU utilization never moves).
//! * **AIMD** (per [34, 93]) additively increases a container's CPU
//!   limit while its SLO is violated and multiplicatively decreases it
//!   when the container is underutilized.

use std::collections::VecDeque;

use firm_sim::spec::AppSpec;
use firm_sim::{
    Command, CompletedRequest, RequestTypeId, ResourceKind, ServiceId, SimTime, Simulation,
};

use crate::slo::{SloAssessment, SloMonitor};

/// Kubernetes horizontal-pod-autoscaler configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct K8sConfig {
    /// Target average CPU utilization (k8s default 0.8 of requests).
    pub target_utilization: f64,
    /// Upscale tolerance band around the target (k8s default 0.1).
    pub tolerance: f64,
    /// Maximum replicas per service.
    pub max_replicas: u32,
    /// Consecutive low-utilization ticks required before scale-in
    /// (stabilization window).
    pub downscale_stabilization_ticks: u32,
}

impl Default for K8sConfig {
    fn default() -> Self {
        K8sConfig {
            target_utilization: 0.8,
            tolerance: 0.1,
            max_replicas: 8,
            downscale_stabilization_ticks: 6,
        }
    }
}

/// The Kubernetes autoscaling baseline.
#[derive(Debug)]
pub struct K8sHpaController {
    config: K8sConfig,
    low_ticks: Vec<u32>,
    /// Scale operations issued.
    pub scale_ops: u64,
}

impl K8sHpaController {
    /// Creates the controller for an application with `services`
    /// services.
    pub fn new(config: K8sConfig, services: usize) -> Self {
        K8sHpaController {
            config,
            low_ticks: vec![0; services],
            scale_ops: 0,
        }
    }

    /// One reconciliation pass: inspect average CPU utilization per
    /// service and scale out/in.
    pub fn tick(
        &mut self,
        sim: &mut Simulation,
        telemetry: &firm_sim::telemetry_probe::TelemetryWindow,
    ) {
        let n_services = sim.app().services.len();
        let mut util_sum = vec![0.0; n_services];
        let mut util_n = vec![0u32; n_services];
        for inst in &telemetry.instances {
            if inst.state == firm_sim::instance::InstanceState::Running {
                util_sum[inst.service.index()] += inst.utilization.get(ResourceKind::Cpu);
                util_n[inst.service.index()] += 1;
            }
        }
        for s in 0..n_services {
            if util_n[s] == 0 {
                continue;
            }
            let service = ServiceId(s as u16);
            let avg = util_sum[s] / util_n[s] as f64;
            let replicas = sim.replicas(service).len() as u32;
            let target = self.config.target_utilization;

            if avg > target * (1.0 + self.config.tolerance) && replicas < self.config.max_replicas {
                // desired = ceil(current × avg/target), one step per tick.
                sim.apply(Command::ScaleOut {
                    service,
                    warm: true,
                });
                self.scale_ops += 1;
                self.low_ticks[s] = 0;
            } else if avg < target * 0.5 && replicas > 1 {
                self.low_ticks[s] += 1;
                if self.low_ticks[s] >= self.config.downscale_stabilization_ticks {
                    sim.apply(Command::ScaleIn { service });
                    self.scale_ops += 1;
                    self.low_ticks[s] = 0;
                }
            } else {
                self.low_ticks[s] = 0;
            }
        }
    }
}

/// AIMD configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AimdConfig {
    /// Additive CPU increase per violating tick (cores).
    pub additive_step: f64,
    /// Multiplicative decrease factor when underutilized.
    pub beta: f64,
    /// Utilization below which the limit decays.
    pub low_utilization: f64,
    /// CPU limit bounds (cores).
    pub cpu_bounds: (f64, f64),
}

impl Default for AimdConfig {
    fn default() -> Self {
        AimdConfig {
            additive_step: 1.0,
            beta: 0.9,
            low_utilization: 0.4,
            cpu_bounds: (0.5, 16.0),
        }
    }
}

/// What AIMD keeps of one completed request: it acts on end-to-end
/// latency alone, never on a span. Dropped requests are kept too (and
/// skipped at assessment), so capacity and eviction count every request
/// as the trace store this window replaced did.
#[derive(Debug, Clone, Copy)]
struct LatencySample {
    finished: SimTime,
    request_type: RequestTypeId,
    latency_us: f64,
    dropped: bool,
}

/// Most requests the latency window holds; the oldest are dropped first.
const LATENCY_WINDOW_CAPACITY: usize = 100_000;

/// The AIMD baseline: per-container CPU-limit control. Owns its own
/// latency window: feed each window's completed requests in with
/// [`AimdController::ingest`], then [`AimdController::tick`].
#[derive(Debug)]
pub struct AimdController {
    config: AimdConfig,
    monitor: SloMonitor,
    /// In ingestion order, which is the simulator's *finalization*
    /// order: `finished` is the root-response time and a background span
    /// can outlive it, so `finished` is not monotone along the deque.
    window: VecDeque<LatencySample>,
    /// Limit updates issued.
    pub limit_ops: u64,
}

impl AimdController {
    /// Creates the controller.
    pub fn new(config: AimdConfig) -> Self {
        AimdController {
            config,
            monitor: SloMonitor::default(),
            window: VecDeque::new(),
            limit_ops: 0,
        }
    }

    /// Feeds one window's completed requests into the controller's
    /// latency window (call before [`AimdController::tick`]). Only the
    /// end-to-end fields are read, so span-free requests serve as well.
    pub fn ingest(&mut self, completed: Vec<CompletedRequest>) {
        for r in completed {
            if self.window.len() == LATENCY_WINDOW_CAPACITY {
                self.window.pop_front();
            }
            self.window.push_back(LatencySample {
                finished: r.finished,
                request_type: r.request_type,
                latency_us: r.latency.as_micros() as f64,
                dropped: r.dropped,
            });
        }
    }

    /// The SLO assessment over requests finished at or after
    /// `window_start`. The bound is inclusive, so a request finishing
    /// exactly on a tick boundary is assessed in both adjacent windows —
    /// pinned behaviour (every digest covers it), not an invitation to
    /// fix it here.
    fn assess(&self, app: &AppSpec, window_start: SimTime) -> SloAssessment {
        self.monitor.assess_latencies(app, |rt| {
            self.window
                .iter()
                .filter(|s| s.finished >= window_start && s.request_type == rt && !s.dropped)
                .map(|s| s.latency_us)
                .collect()
        })
    }

    /// Drops samples from the front while they finished before `before`,
    /// stopping at the first that did not: stragglers behind it stay
    /// until the front catches up (or capacity pushes them out), and
    /// [`AimdController::assess`] filters them by time regardless.
    fn evict_before(&mut self, before: SimTime) {
        while self.window.front().is_some_and(|s| s.finished < before) {
            self.window.pop_front();
        }
    }

    /// One control pass: additive increase on SLO violation (on every
    /// running container of a violating request path), multiplicative
    /// decrease on low utilization. Evicts samples older than
    /// `window_start` afterwards.
    pub fn tick(
        &mut self,
        sim: &mut Simulation,
        telemetry: &firm_sim::telemetry_probe::TelemetryWindow,
        window_start: SimTime,
    ) {
        let violating = self.assess(sim.app(), window_start).any_violation();

        for inst in &telemetry.instances {
            if inst.state != firm_sim::instance::InstanceState::Running {
                continue;
            }
            let current = sim.instance(inst.instance).cpu_limit();
            let util = inst.utilization.get(ResourceKind::Cpu);
            let (lo, hi) = self.config.cpu_bounds;

            let new_limit = if violating {
                // Additive increase under pressure.
                (current + self.config.additive_step).min(hi)
            } else if util < self.config.low_utilization {
                // Multiplicative decrease when idle.
                (current * self.config.beta).max(lo)
            } else {
                current
            };
            if (new_limit - current).abs() > 1e-9 {
                sim.apply(Command::SetPartition {
                    instance: inst.instance,
                    kind: ResourceKind::Cpu,
                    amount: new_limit,
                });
                self.limit_ops += 1;
            }
        }
        // The assessment window never looks back past its start; keep
        // the latency window bounded.
        self.evict_before(window_start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firm_sim::spec::{AppSpec, ClusterSpec};
    use firm_sim::{AnomalyKind, AnomalySpec, NodeId, PoissonArrivals, SimDuration};

    fn sim(seed: u64, rate: f64) -> Simulation {
        Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), seed)
            .arrivals(Box::new(PoissonArrivals::new(rate)))
            .build()
    }

    #[test]
    fn hpa_scales_out_under_cpu_pressure() {
        // A CPU-bound single service squeezed to a tiny quota: its
        // utilization saturates and the HPA must add replicas.
        let mut sim =
            Simulation::builder(ClusterSpec::small(2), AppSpec::single_service_demo(), 71)
                .arrivals(Box::new(PoissonArrivals::new(400.0)))
                .build();
        sim.apply(Command::SetPartition {
            instance: firm_sim::InstanceId(0),
            kind: ResourceKind::Cpu,
            amount: 0.25,
        });
        let mut hpa = K8sHpaController::new(K8sConfig::default(), 1);
        let frontend = ServiceId(0);
        for _ in 0..10 {
            sim.run_for(SimDuration::from_secs(1));
            let t = sim.drain_telemetry();
            hpa.tick(&mut sim, &t);
        }
        assert!(
            sim.replicas(frontend).len() > 1,
            "replicas {}",
            sim.replicas(frontend).len()
        );
        assert!(hpa.scale_ops > 0);
    }

    #[test]
    fn hpa_blind_to_memory_contention() {
        // The Fig. 1 scenario: memory-bandwidth stress, CPU util flat.
        let mut sim = sim(72, 100.0);
        sim.inject(AnomalySpec::new(
            AnomalyKind::MemBwStress,
            NodeId(0),
            0.95,
            SimDuration::from_secs(20),
        ));
        let mut hpa = K8sHpaController::new(K8sConfig::default(), 5);
        let before: usize = sim.app().services.len();
        for _ in 0..10 {
            sim.run_for(SimDuration::from_secs(1));
            let t = sim.drain_telemetry();
            hpa.tick(&mut sim, &t);
        }
        // No scale-out happened: the HPA never saw CPU pressure.
        let total_replicas: usize = (0..before)
            .map(|s| sim.replicas(ServiceId(s as u16)).len())
            .sum();
        assert_eq!(
            total_replicas, before,
            "HPA scaled out on a non-CPU anomaly"
        );
    }

    #[test]
    fn aimd_decays_idle_limits_and_reacts_to_violations() {
        let mut app = AppSpec::three_tier_demo();
        app.request_types[0].slo_latency_us = 5_000;
        let mut sim = Simulation::builder(ClusterSpec::small(2), app, 73)
            .arrivals(Box::new(PoissonArrivals::new(50.0)))
            .build();
        let mut aimd = AimdController::new(AimdConfig::default());

        // Idle-ish phase: limits decay multiplicatively.
        let initial = sim.total_requested_cpu();
        for _ in 0..8 {
            let start = sim.now();
            sim.run_for(SimDuration::from_secs(1));
            aimd.ingest(sim.drain_completed());
            let t = sim.drain_telemetry();
            aimd.tick(&mut sim, &t, start);
        }
        let decayed = sim.total_requested_cpu();
        assert!(decayed < initial, "no decay: {initial} → {decayed}");

        // Violation phase: limits rise additively.
        sim.inject(AnomalySpec::new(
            AnomalyKind::CpuStress,
            NodeId(0),
            1.0,
            SimDuration::from_secs(20),
        ));
        sim.inject(AnomalySpec::new(
            AnomalyKind::MemBwStress,
            NodeId(0),
            1.0,
            SimDuration::from_secs(20),
        ));
        sim.inject(AnomalySpec::new(
            AnomalyKind::NetworkDelay,
            NodeId(0),
            0.2,
            SimDuration::from_secs(20),
        ));
        for _ in 0..6 {
            let start = sim.now();
            sim.run_for(SimDuration::from_secs(1));
            aimd.ingest(sim.drain_completed());
            let t = sim.drain_telemetry();
            aimd.tick(&mut sim, &t, start);
        }
        let raised = sim.total_requested_cpu();
        assert!(raised > decayed, "no increase: {decayed} → {raised}");
        assert!(aimd.limit_ops > 0);
    }

    fn request(finished_ms: u64, latency_ms: u64, dropped: bool) -> CompletedRequest {
        let finished = SimTime::ZERO + SimDuration::from_millis(finished_ms);
        let latency = SimDuration::from_millis(latency_ms);
        CompletedRequest {
            trace_id: firm_sim::TraceId(finished_ms),
            request_type: RequestTypeId(0),
            started: SimTime::from_micros(finished.as_micros() - latency.as_micros()),
            finished,
            latency,
            dropped,
            spans: Vec::new(),
        }
    }

    /// The window's inherited quirks, pinned (every digest covers them):
    /// the inclusive lower bound assesses a request finishing exactly on
    /// a tick boundary in both adjacent windows, and eviction stops at
    /// the first fresh front, leaving stragglers behind it.
    #[test]
    fn boundary_request_is_assessed_in_both_adjacent_windows() {
        let app = AppSpec::three_tier_demo(); // SLO 100 ms.
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        let mut aimd = AimdController::new(AimdConfig::default());
        // Span-free requests: only the end-to-end fields are read.
        aimd.ingest(vec![
            request(400, 10, false),
            request(1_000, 900, false), // Exactly on the 1 s boundary.
            request(900, 800, true),    // Dropped: never a latency sample.
        ]);
        let first = aimd.assess(&app, at(0));
        assert!(first.any_violation());
        aimd.evict_before(at(0));

        aimd.ingest(vec![request(1_500, 10, false)]);
        let second = aimd.assess(&app, at(1_000));
        assert!(second.any_violation(), "boundary request left the window");
        aimd.evict_before(at(1_000));
        // The 400 ms front went; the 1 s request is a fresh front, so
        // the 900 ms straggler behind it stays.
        assert_eq!(aimd.window.len(), 3);

        let third = aimd.assess(&app, at(2_000));
        assert!(!third.any_violation());
        assert_eq!(third.sv, 1.0, "an empty window assumes no violation");
        aimd.evict_before(at(2_000));
        assert!(aimd.window.is_empty());
    }

    /// The latency window against the trace-store path it replaced, kept
    /// here as the reference: over 500 control ticks with anomalies
    /// coming and going and AIMD itself actuating, both must reach the
    /// same assessment every tick and hold the same number of entries.
    #[test]
    fn latency_window_agrees_with_the_trace_store_it_replaced() {
        let mut app = AppSpec::three_tier_demo();
        app.request_types[0].slo_latency_us = 6_000;
        let mut sim = Simulation::builder(ClusterSpec::small(2), app, 75)
            .arrivals(Box::new(PoissonArrivals::new(150.0)))
            .build();
        let mut aimd = AimdController::new(AimdConfig::default());
        let mut reference = firm_trace::TracingCoordinator::new(LATENCY_WINDOW_CAPACITY);
        let monitor = SloMonitor::default();
        let kinds = [
            AnomalyKind::CpuStress,
            AnomalyKind::MemBwStress,
            AnomalyKind::NetworkDelay,
            AnomalyKind::WorkloadVariation,
        ];
        let (mut violating, mut healthy) = (0, 0);
        for tick in 0..500 {
            if tick % 40 == 5 {
                let kind = kinds[(tick / 40) % kinds.len()];
                let length = SimDuration::from_secs(3);
                sim.inject(AnomalySpec::new(kind, NodeId(0), 0.95, length));
            }
            let start = sim.now();
            sim.run_for(SimDuration::from_millis(200));
            let completed = sim.drain_completed();
            reference.ingest(completed.clone());
            aimd.ingest(completed);

            let expected = monitor.assess(sim.app(), &reference, start);
            let got = aimd.assess(sim.app(), start);
            assert_eq!(format!("{got:?}"), format!("{expected:?}"), "tick {tick}");
            if got.any_violation() {
                violating += 1;
            } else {
                healthy += 1;
            }

            let telemetry = sim.drain_telemetry();
            aimd.tick(&mut sim, &telemetry, start);
            reference.evict_before(start);
            assert_eq!(aimd.window.len(), reference.store().len(), "tick {tick}");
        }
        assert!(violating > 20 && healthy > 20, "{violating} / {healthy}");
        assert!(aimd.limit_ops > 0);
    }
}
