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
//!   when the container is underutilized. It judges the SLO with the
//!   shared rule ([`crate::slo::assess`]) over the requests that
//!   finished since its window opened, drained this tick or the last.

use firm_sim::{Command, CompletedRequest, ResourceKind, ServiceId, Simulation};

use crate::controller::TickContext;
use crate::slo::{assess_requests, SloAssessment};

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

/// The AIMD baseline: per-container CPU-limit control.
#[derive(Debug)]
pub struct AimdController {
    config: AimdConfig,
    /// The previous window's drained requests. With this window's they
    /// are every request that can have finished at or after its start:
    /// anything drained earlier finished by the tick before the
    /// previous one, before this window opened.
    previous: Vec<CompletedRequest>,
    /// Limit updates issued.
    pub limit_ops: u64,
}

impl AimdController {
    /// Creates the controller.
    pub fn new(config: AimdConfig) -> Self {
        AimdController {
            config,
            previous: Vec::new(),
            limit_ops: 0,
        }
    }

    /// One control pass over the window `ctx` hands in: additive increase
    /// on SLO violation (on every running container of a violating
    /// request path), multiplicative decrease on low utilization.
    /// Returns the assessment it acted on.
    ///
    /// That assessment covers the requests finished at or after
    /// `ctx.window_start`, drained this tick or the one before. The
    /// bound is inclusive, so a request finishing exactly on a tick
    /// boundary is assessed in both adjacent windows — pinned behaviour
    /// (every digest covers it), not an invitation to fix it here.
    pub fn tick(&mut self, sim: &mut Simulation, ctx: TickContext) -> SloAssessment {
        let window = self.previous.iter().chain(&ctx.completed);
        let assessment =
            assess_requests(sim.app(), window.filter(|r| r.finished >= ctx.window_start));
        let violating = assessment.any_violation();

        for inst in &ctx.telemetry.instances {
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
        self.previous = ctx.completed;
        assessment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firm_sim::spec::{AppSpec, ClusterSpec};
    use firm_sim::{AnomalyKind, AnomalySpec, NodeId, PoissonArrivals, SimDuration, SimTime};

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
            let ctx = TickContext::drain(&mut sim, start);
            aimd.tick(&mut sim, ctx);
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
            let ctx = TickContext::drain(&mut sim, start);
            aimd.tick(&mut sim, ctx);
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
            request_type: firm_sim::RequestTypeId(0),
            started: SimTime::from_micros(finished.as_micros() - latency.as_micros()),
            finished,
            latency,
            dropped,
            spans: Vec::new(),
        }
    }

    /// The window's inherited quirk, pinned (every digest covers it):
    /// the inclusive lower bound assesses a request finishing exactly on
    /// a tick boundary in both adjacent windows. A request drained after
    /// its window closed is never assessed.
    #[test]
    fn boundary_request_is_assessed_in_both_adjacent_windows() {
        let mut sim = sim(74, 10.0); // The three-tier demo's SLO is 100 ms.
        let mut aimd = AimdController::new(AimdConfig::default());
        let mut tick = |start_ms, completed| {
            sim.run_for(SimDuration::from_secs(1));
            let ctx = TickContext {
                window_start: SimTime::ZERO + SimDuration::from_millis(start_ms),
                completed,
                telemetry: sim.drain_telemetry(),
            };
            aimd.tick(&mut sim, ctx)
        };
        // Span-free requests: only the end-to-end fields are read.
        let first = tick(
            0,
            vec![
                request(400, 10, false),
                request(1_000, 900, false), // Exactly on the 1 s boundary.
                request(900, 800, true),    // Dropped: never a latency sample.
            ],
        );
        assert!(first.any_violation());

        let second = tick(1_000, vec![request(1_500, 10, false)]);
        assert!(second.any_violation(), "boundary request left the window");

        let third = tick(2_000, vec![request(1_900, 900, false)]);
        assert!(!third.any_violation(), "a straggler was assessed");
        assert_eq!(third.sv, 1.0, "an empty window assumes no violation");
    }

    /// The two-window assessment against the trace-store path it
    /// replaced, kept here as the reference: over 500 control ticks with
    /// anomalies coming and going and AIMD itself actuating, both must
    /// reach the same assessment every tick.
    #[test]
    fn latency_window_agrees_with_the_trace_store_it_replaced() {
        let mut app = AppSpec::three_tier_demo();
        app.request_types[0].slo_latency_us = 6_000;
        let mut sim = Simulation::builder(ClusterSpec::small(2), app, 75)
            .arrivals(Box::new(PoissonArrivals::new(150.0)))
            .build();
        let mut aimd = AimdController::new(AimdConfig::default());
        let mut reference = firm_trace::TracingCoordinator::new(100_000);
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
            let ctx = TickContext::drain(&mut sim, start);
            reference.ingest(ctx.completed.clone());

            let expected = crate::slo::assess(sim.app(), |rt| reference.latencies_since(start, rt));
            let got = aimd.tick(&mut sim, ctx);
            assert_eq!(format!("{got:?}"), format!("{expected:?}"), "tick {tick}");
            if got.any_violation() {
                violating += 1;
            } else {
                healthy += 1;
            }
            reference.evict_before(start);
        }
        assert!(violating > 20 && healthy > 20, "{violating} / {healthy}");
        assert!(aimd.limit_ops > 0);
    }
}
