//! SLO definitions and violation detection.
//!
//! FIRM's Extractor is triggered by end-to-end SLO violations (§3.2).
//! The monitor assesses each request type's tail latency over the last
//! control window against its SLO and produces the *SLO violation ratio*
//! `SV = SLO_latency / current_latency` used in the RL state (Table 3):
//! `SV ≥ 1` means the SLO holds, `SV < 1` quantifies how badly it is
//! violated. When no traces arrive, `SV = 1` (the paper's "no message ⇒
//! no violation" rule).

use firm_sim::spec::AppSpec;
use firm_sim::{RequestTypeId, SimTime};
use firm_trace::TracingCoordinator;

/// Assessment of one control window.
#[derive(Debug, Clone)]
pub struct SloAssessment {
    /// Worst (smallest) SLO violation ratio across request types.
    pub sv: f64,
    /// Per-request-type `(p99 latency us, SLO us, sv)`.
    pub per_type: Vec<(RequestTypeId, f64, u64, f64)>,
    /// Request types currently violating their SLO.
    pub violated: Vec<RequestTypeId>,
}

impl SloAssessment {
    /// True when any request type violates its SLO.
    pub fn any_violation(&self) -> bool {
        !self.violated.is_empty()
    }
}

/// Tail-latency SLO monitor.
#[derive(Debug, Clone)]
pub struct SloMonitor {
    /// Tail quantile to assess (0.99 in the paper's definition of
    /// latency SLOs).
    pub quantile: f64,
}

impl Default for SloMonitor {
    fn default() -> Self {
        SloMonitor { quantile: 0.99 }
    }
}

impl SloMonitor {
    /// Assesses the window `[since, now)` from the coordinator's traces.
    pub fn assess(
        &self,
        app: &AppSpec,
        coordinator: &TracingCoordinator,
        since: SimTime,
    ) -> SloAssessment {
        self.assess_latencies(app, |rt| coordinator.latencies_since(since, rt))
    }

    /// Assesses one window given each request type's end-to-end
    /// latencies (us, non-dropped requests only, any order) — the SV rule
    /// itself, for callers that keep latencies without a trace store.
    pub fn assess_latencies(
        &self,
        app: &AppSpec,
        mut latencies: impl FnMut(RequestTypeId) -> Vec<f64>,
    ) -> SloAssessment {
        let mut per_type = Vec::with_capacity(app.request_types.len());
        let mut violated = Vec::new();
        let mut worst_sv: f64 = 1.0;

        for (i, rt) in app.request_types.iter().enumerate() {
            let rt_id = RequestTypeId(i as u16);
            let mut lats = latencies(rt_id);
            let (p99, sv) = if lats.is_empty() {
                // No traces ⇒ assume no violation (§3.4).
                (0.0, 1.0)
            } else {
                lats.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
                let p99 = firm_sim::stats::sample_quantile(&lats, self.quantile);
                let sv = if p99 <= 0.0 {
                    1.0
                } else {
                    (rt.slo_latency_us as f64 / p99).min(2.0)
                };
                (p99, sv)
            };
            if sv < 1.0 {
                violated.push(rt_id);
            }
            worst_sv = worst_sv.min(sv);
            per_type.push((rt_id, p99, rt.slo_latency_us, sv));
        }

        SloAssessment {
            sv: worst_sv,
            per_type,
            violated,
        }
    }
}

/// Assesses one window of already-drained completed requests: true when
/// any request type's tail latency exceeds its SLO. The drained-trace
/// counterpart of [`SloMonitor::assess`], shared by the non-FIRM paths
/// of the single-scenario harness and the fleet executor so the two
/// can never disagree on what "violating" means.
pub fn window_violates(
    app: &AppSpec,
    completed: &[firm_sim::CompletedRequest],
    quantile: f64,
) -> bool {
    for (i, rt) in app.request_types.iter().enumerate() {
        let mut rt_lats: Vec<f64> = completed
            .iter()
            .filter(|r| !r.dropped && r.request_type.index() == i)
            .map(|r| r.latency.as_micros() as f64)
            .collect();
        if rt_lats.is_empty() {
            continue;
        }
        rt_lats.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let p99 = firm_sim::stats::sample_quantile(&rt_lats, quantile);
        if p99 > rt.slo_latency_us as f64 {
            return true;
        }
    }
    false
}

/// Calibrates each request type's SLO to `factor ×` its measured healthy
/// p99 at the given load — the usual way operators pick tail SLOs. Runs
/// a short unmanaged, anomaly-free simulation and mutates `app`.
///
/// The run reads each request's type, latency and drop flag and nothing
/// else, so it is built with `record_spans(false)`: same draws, same
/// events, same latencies as the span-recording engine
/// (`tests/span_free_twin.rs` holds the two together), without a span
/// vector per request.
pub fn calibrate_slos(
    app: &mut AppSpec,
    cluster: &firm_sim::spec::ClusterSpec,
    rate: f64,
    factor: f64,
    seed: u64,
) {
    let mut sim = firm_sim::Simulation::builder(cluster.clone(), app.clone(), seed)
        .arrivals(Box::new(firm_sim::PoissonArrivals::new(rate)))
        .record_spans(false)
        .build();
    sim.run_for(firm_sim::SimDuration::from_secs(2));
    sim.drain_completed();
    sim.run_for(firm_sim::SimDuration::from_secs(8));
    let mut per_rt: Vec<Vec<f64>> = vec![Vec::new(); app.request_types.len()];
    for r in sim.drain_completed() {
        if !r.dropped {
            per_rt[r.request_type.index()].push(r.latency.as_micros() as f64);
        }
    }
    for (rt, lats) in app.request_types.iter_mut().zip(&mut per_rt) {
        if lats.is_empty() {
            continue;
        }
        lats.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let p99 = firm_sim::stats::sample_quantile(lats, 0.99);
        rt.slo_latency_us = ((p99 * factor) as u64).max(1_000);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firm_sim::spec::ClusterSpec;
    use firm_sim::{AnomalyKind, AnomalySpec, NodeId, SimDuration, Simulation};

    fn setup() -> (Simulation, TracingCoordinator) {
        let sim =
            Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), 21).build();
        (sim, TracingCoordinator::new(100_000))
    }

    #[test]
    fn healthy_app_has_sv_one() {
        let (mut sim, mut coord) = setup();
        sim.run_for(SimDuration::from_secs(2));
        coord.ingest(sim.drain_completed());
        let a = SloMonitor::default().assess(sim.app(), &coord, SimTime::ZERO);
        assert!(!a.any_violation());
        assert!(a.sv >= 1.0);
        assert_eq!(a.per_type.len(), 1);
        assert!(a.per_type[0].1 > 0.0, "p99 recorded");
    }

    #[test]
    fn no_traces_means_no_violation() {
        let (sim, coord) = setup();
        let a = SloMonitor::default().assess(sim.app(), &coord, SimTime::ZERO);
        assert_eq!(a.sv, 1.0);
        assert!(!a.any_violation());
    }

    #[test]
    fn calibrate_slos_tracks_baseline_p99() {
        let mut app = AppSpec::three_tier_demo();
        calibrate_slos(&mut app, &ClusterSpec::small(2), 50.0, 2.0, 5);
        let slo = app.request_types[0].slo_latency_us;
        // Healthy p99 of the demo sits in the low single-digit ms.
        assert!((2_000..40_000).contains(&slo), "slo {slo}us");
    }

    #[test]
    fn anomaly_triggers_violation_with_sv_below_one() {
        // Tighten the SLO so the injected contention clearly breaks it.
        let mut app = AppSpec::three_tier_demo();
        app.request_types[0].slo_latency_us = 8_000;
        let mut sim = Simulation::builder(ClusterSpec::small(2), app, 21).build();
        let mut coord = TracingCoordinator::new(100_000);
        sim.inject(AnomalySpec::new(
            AnomalyKind::MemBwStress,
            NodeId(0),
            1.0,
            SimDuration::from_secs(4),
        ));
        sim.inject(AnomalySpec::new(
            AnomalyKind::CpuStress,
            NodeId(0),
            0.9,
            SimDuration::from_secs(4),
        ));
        sim.run_for(SimDuration::from_secs(3));
        coord.ingest(sim.drain_completed());
        let a = SloMonitor::default().assess(sim.app(), &coord, SimTime::ZERO);
        assert!(a.any_violation(), "sv={} per_type={:?}", a.sv, a.per_type);
        assert!(a.sv < 1.0);
    }
}
