//! SLO definitions and violation detection.
//!
//! FIRM's Extractor is triggered by end-to-end SLO violations (§3.2).
//! [`assess`] is the one rule every controller shares: each request
//! type's tail latency over the last control window against its SLO,
//! giving the *SLO violation ratio* `SV = SLO_latency / current_latency`
//! used in the RL state (Table 3): `SV ≥ 1` means the SLO holds, `SV < 1`
//! quantifies how badly it is violated. When no traces arrive, `SV = 1`
//! (the paper's "no message ⇒ no violation" rule).

use firm_sim::spec::AppSpec;
use firm_sim::{CompletedRequest, RequestTypeId};

/// The tail quantile latency SLOs are stated at (p99, as in the paper).
const SLO_QUANTILE: f64 = 0.99;

/// Assessment of one control window.
#[derive(Debug, Clone)]
pub struct SloAssessment {
    /// Worst (smallest) SLO violation ratio across request types.
    pub sv: f64,
    /// Request types currently violating their SLO.
    pub violated: Vec<RequestTypeId>,
}

impl SloAssessment {
    /// True when any request type violates its SLO.
    pub fn any_violation(&self) -> bool {
        !self.violated.is_empty()
    }
}

/// Assesses one window given each request type's end-to-end latencies
/// (us, non-dropped requests only, any order): a type violates when its
/// p99 exceeds its SLO, and a type with no latencies never does.
pub fn assess(
    app: &AppSpec,
    mut latencies: impl FnMut(RequestTypeId) -> Vec<f64>,
) -> SloAssessment {
    let mut violated = Vec::new();
    let mut worst_sv: f64 = 1.0;

    for (i, rt) in app.request_types.iter().enumerate() {
        let rt_id = RequestTypeId(i as u16);
        let mut lats = latencies(rt_id);
        let sv = if lats.is_empty() {
            // No traces ⇒ assume no violation (§3.4).
            1.0
        } else {
            lats.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
            let p99 = firm_sim::stats::sample_quantile(&lats, SLO_QUANTILE);
            if p99 <= 0.0 {
                1.0
            } else {
                (rt.slo_latency_us as f64 / p99).min(2.0)
            }
        };
        if sv < 1.0 {
            violated.push(rt_id);
        }
        worst_sv = worst_sv.min(sv);
    }

    SloAssessment {
        sv: worst_sv,
        violated,
    }
}

/// [`assess`] over completed requests, for controllers that read the
/// drained window instead of a trace store: each type's latencies are
/// its served (non-dropped) requests'.
pub(crate) fn assess_requests<'a, I>(app: &AppSpec, requests: I) -> SloAssessment
where
    I: IntoIterator<Item = &'a CompletedRequest>,
    I::IntoIter: Clone,
{
    let requests = requests.into_iter();
    assess(app, |rt| {
        requests
            .clone()
            .filter(|r| !r.dropped && r.request_type == rt)
            .map(|r| r.latency.as_micros() as f64)
            .collect()
    })
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
        let p99 = firm_sim::stats::sample_quantile(lats, SLO_QUANTILE);
        rt.slo_latency_us = ((p99 * factor) as u64).max(1_000);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firm_sim::spec::{ClusterSpec, RequestTypeSpec};
    use firm_sim::{AnomalyKind, AnomalySpec, NodeId, SimDuration, SimTime, Simulation, TraceId};
    use firm_trace::TracingCoordinator;

    fn setup() -> (Simulation, TracingCoordinator) {
        let sim =
            Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), 21).build();
        (sim, TracingCoordinator::new(100_000))
    }

    /// [`assess`] over every trace the coordinator holds.
    fn assess_store(app: &AppSpec, coord: &TracingCoordinator) -> SloAssessment {
        assess(app, |rt| coord.latencies_since(SimTime::ZERO, rt))
    }

    #[test]
    fn healthy_app_has_sv_one() {
        let (mut sim, mut coord) = setup();
        sim.run_for(SimDuration::from_secs(2));
        coord.ingest(sim.drain_completed());
        let a = assess_store(sim.app(), &coord);
        assert!(!a.any_violation());
        assert!(a.sv >= 1.0);
        assert!(
            !coord
                .latencies_since(SimTime::ZERO, RequestTypeId(0))
                .is_empty(),
            "the window held traces"
        );
    }

    #[test]
    fn no_traces_means_no_violation() {
        let (sim, coord) = setup();
        let a = assess_store(sim.app(), &coord);
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
        let a = assess_store(sim.app(), &coord);
        assert!(a.any_violation(), "sv={} violated={:?}", a.sv, a.violated);
        assert!(a.sv < 1.0);
    }

    /// The drained-window verdict the baselines used before [`assess`]
    /// was the only SLO rule, kept verbatim as the reference: a type
    /// violates when its p99 exceeds its SLO, read as `p99 > slo`
    /// instead of `SV < 1`.
    fn window_violates(app: &AppSpec, completed: &[CompletedRequest], quantile: f64) -> bool {
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

    /// An app whose request types carry `slos`, in order.
    fn app_with_slos(slos: &[u64]) -> AppSpec {
        let mut app = AppSpec::three_tier_demo();
        let template = app.request_types[0].clone();
        app.request_types = slos
            .iter()
            .map(|&slo_latency_us| RequestTypeSpec {
                slo_latency_us,
                ..template.clone()
            })
            .collect();
        app
    }

    fn request(rt: u16, latency_us: u64, dropped: bool) -> CompletedRequest {
        CompletedRequest {
            trace_id: TraceId(latency_us),
            request_type: RequestTypeId(rt),
            started: SimTime::ZERO,
            finished: SimTime::from_micros(latency_us),
            latency: SimDuration::from_micros(latency_us),
            dropped,
            spans: Vec::new(),
        }
    }

    /// `assess(..).any_violation()` against the reference rule over
    /// seeded random windows and the edges where `SV < 1` and
    /// `p99 > slo` could part.
    #[test]
    fn assess_agrees_with_the_window_rule_it_replaced() {
        let check = |app: &AppSpec, window: &[CompletedRequest]| {
            let got = assess_requests(app, window).any_violation();
            assert_eq!(
                got,
                window_violates(app, window, SLO_QUANTILE),
                "{window:?}"
            );
            got
        };

        // At 2^53 one f64 ulp is 2 us, and every u64 on either side of
        // it converts exactly.
        let big = 1u64 << 53;
        let edges: [(&[u64], Vec<CompletedRequest>, bool); 8] = [
            // A type with no requests next to a healthy and a violating one.
            (&[100, 100], vec![request(0, 50, false)], false),
            (&[100, 100], vec![request(0, 150, false)], true),
            // A type whose every request was dropped.
            (
                &[100, 100],
                vec![request(1, 900, true), request(1, 900, true)],
                false,
            ),
            // p99 exactly on the SLO, then one ulp above it.
            (&[100], vec![request(0, 100, false)], false),
            (&[big], vec![request(0, big, false)], false),
            (&[big], vec![request(0, big + 2, false)], true),
            // SLO 0: any positive p99 violates, a zero p99 does not.
            (&[0], vec![request(0, 5, false)], true),
            (&[0], vec![request(0, 0, false)], false),
        ];
        for (slos, window, expected) in edges {
            assert_eq!(check(&app_with_slos(slos), &window), expected, "{window:?}");
        }

        let mut rng = firm_rng::Xoshiro256::new(0x510);
        let (mut violating, mut healthy) = (0, 0);
        for _ in 0..2_000 {
            let types = 1 + rng.next_below(3);
            let slos: Vec<u64> = (0..types).map(|_| 1 + rng.next_below(6_000)).collect();
            let window: Vec<CompletedRequest> = (0..rng.next_below(60))
                .map(|_| {
                    let rt = rng.next_below(slos.len() as u64) as u16;
                    request(rt, rng.next_below(3_000), rng.uniform() < 0.1)
                })
                .collect();
            if check(&app_with_slos(&slos), &window) {
                violating += 1;
            } else {
                healthy += 1;
            }
        }
        assert!(violating > 200 && healthy > 200, "{violating} / {healthy}");
    }
}
