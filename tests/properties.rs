//! Property-style tests over the core invariants, spanning crates.
//!
//! The container image carries no external crates, so instead of a
//! proptest harness these properties are exercised over deterministic
//! parameter sweeps: a seeded [`SimRng`] draws the same "random" inputs
//! on every run, which keeps failures reproducible by construction.

use firm::sim::{
    spec::{AppSpec, ClusterSpec},
    AnomalySpec, NodeId, PoissonArrivals, SimDuration, SimRng, Simulation,
};
use firm::trace::critical_path::critical_path;
use firm::trace::graph::ExecutionHistoryGraph;

/// Simulator runs are reproducible from a seed regardless of load, and
/// every trace yields a valid critical path whose exclusive sum never
/// exceeds the end-to-end latency.
#[test]
fn determinism_and_cp_invariants() {
    let mut draws = SimRng::new(0xCA5E);
    for case in 0..8 {
        let seed = draws.index(500) as u64;
        let rate = draws.uniform_range(20.0, 150.0);
        let run = |seed| {
            let mut sim =
                Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), seed)
                    .arrivals(Box::new(PoissonArrivals::new(rate)))
                    .build();
            sim.run_for(SimDuration::from_secs(1));
            sim.drain_completed()
        };
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a.len(), b.len(), "case {case}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.latency, y.latency, "case {case}");
        }
        for req in &a {
            let graph = ExecutionHistoryGraph::build(req.clone()).expect("valid trace");
            let cp = critical_path(&graph);
            assert!(!cp.entries.is_empty());
            // Root first, ordered by start time.
            assert!(cp.entries[0].span_id == graph.root_span().span_id);
            for w in cp.entries.windows(2) {
                assert!(w[0].start <= w[1].start);
            }
            // Exclusive times fit in the total.
            assert!(cp.exclusive_sum() <= cp.total);
            // No background spans on the CP.
            for e in &cp.entries {
                assert!(!graph.spans[e.span_idx].background);
            }
        }
    }
}

/// Anomalies never deadlock the simulator and always clean up: after the
/// anomaly window plus slack, the active set is empty and requests still
/// flow.
#[test]
fn anomalies_always_clean_up() {
    let mut draws = SimRng::new(0xA40);
    for (case, kind) in firm::sim::anomaly::ANOMALY_KINDS.iter().enumerate() {
        let seed = draws.index(200) as u64;
        let intensity = draws.uniform_range(0.1, 1.0);
        let mut sim =
            Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), seed).build();
        sim.inject(AnomalySpec::new(
            *kind,
            NodeId(0),
            intensity,
            SimDuration::from_secs(1),
        ));
        sim.run_for(SimDuration::from_secs(3));
        assert!(sim.active_anomalies().is_empty(), "case {case}");
        sim.drain_completed();
        sim.run_for(SimDuration::from_secs(1));
        assert!(!sim.drain_completed().is_empty(), "case {case}");
        // Instance stress must be fully undone.
        for inst in sim.instances() {
            for s in inst.stress {
                assert!(s.abs() < 1e-9, "case {case}");
            }
        }
    }
}

/// The reward function is monotone in SV and in utilization.
#[test]
fn reward_monotonicity() {
    use firm::core::estimator::reward;
    let mut draws = SimRng::new(0x4EA);
    for _ in 0..64 {
        let sv = draws.uniform_range(0.0, 2.0);
        let util = draws.uniform_range(0.0, 1.0);
        let alpha = draws.uniform_range(0.1, 0.9);
        let base = reward(sv, &[util; 5], alpha);
        let better_sv = reward((sv + 0.1).min(2.0), &[util; 5], alpha);
        let better_util = reward(sv, &[(util + 0.05).min(1.0); 5], alpha);
        assert!(better_sv >= base);
        assert!(better_util >= base);
    }
}

/// Action-limit mapping stays within bounds, out-of-range actions
/// included, and is monotone in each dimension.
#[test]
fn action_mapping_roundtrips() {
    use firm::core::estimator::{to_limits, ACTION_BOUNDS};
    let mut draws = SimRng::new(0xAC7);
    for _ in 0..64 {
        let a: [f64; 5] = std::array::from_fn(|_| draws.uniform_range(-1.5, 1.5));
        let limits = to_limits(&a);
        for (l, (lo, hi)) in limits.iter().zip(ACTION_BOUNDS) {
            assert!(*l >= lo && *l <= hi, "{l} outside [{lo}, {hi}]");
        }
        // Raising one dimension raises (or keeps) only its own limit.
        let i = draws.index(5);
        let mut up = a;
        up[i] += draws.uniform_range(0.0, 1.0);
        let raised = to_limits(&up);
        for (j, (r, l)) in raised.iter().zip(&limits).enumerate() {
            if j == i {
                assert!(r >= l, "dimension {i} fell: {l} -> {r}");
            } else {
                assert_eq!(r, l, "dimension {j} moved with {i}");
            }
        }
    }
}

/// Histogram quantiles are bounded by min/max and monotone in q.
#[test]
fn histogram_quantile_invariants() {
    let mut draws = SimRng::new(0x415);
    for _ in 0..16 {
        let n = 1 + draws.index(400);
        let values: Vec<u64> = (0..n).map(|_| 1 + draws.index(10_000_000) as u64).collect();
        let mut h = firm::sim::Histogram::new();
        for v in &values {
            h.record(*v);
        }
        let lo = *values.iter().min().expect("non-empty");
        let hi = *values.iter().max().expect("non-empty");
        let mut prev = 0;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let x = h.quantile(q);
            assert!(x >= lo.min(prev) && x <= hi, "q={q} x={x} lo={lo} hi={hi}");
            assert!(x >= prev);
            prev = x;
        }
    }
}

/// Tier-1 runs on an optimised `[profile.dev]` that keeps debug
/// assertions on, so every `debug_assert!` invariant (the simulator's
/// contention rates against the naive peer walk among them) still
/// runs in the test build.
#[test]
fn the_test_build_keeps_debug_assertions() {
    const {
        assert!(
            cfg!(debug_assertions),
            "the test profile turned debug assertions off"
        )
    };
}
