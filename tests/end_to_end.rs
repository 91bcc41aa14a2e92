//! Cross-crate integration tests: the full FIRM pipeline over the real
//! benchmark topologies.

use firm::core::baselines::{AimdConfig, AimdController, K8sConfig, K8sHpaController};
use firm::core::controller::{run_episode, Controller, EpisodeSpec, TickContext, Unmanaged};
use firm::core::injector::{AnomalyInjector, CampaignConfig};
use firm::core::manager::{FirmConfig, FirmManager};
use firm::core::slo::SloAssessment;
use firm::sim::{
    spec::ClusterSpec, AnomalyKind, AnomalySpec, PoissonArrivals, SimDuration, Simulation,
};
use firm::trace::TracingCoordinator;
use firm::workload::apps::{Benchmark, ALL_BENCHMARKS};

/// One 1 s control tick: FIRM acts on the window just drained.
fn tick(sim: &mut Simulation, firm: &mut FirmManager) -> SloAssessment {
    let window_start = sim.now();
    sim.run_for(SimDuration::from_secs(1));
    let ctx = TickContext::drain(sim, window_start);
    firm.tick_window(sim, ctx)
}

#[test]
fn full_pipeline_detects_and_localizes_container_stress() {
    let cluster = ClusterSpec::small(4);
    let mut app = Benchmark::SocialNetwork.build();
    firm::core::slo::calibrate_slos(&mut app, &cluster, 250.0, 1.4, 7);
    let mut sim = Simulation::builder(cluster, app, 7)
        .arrivals(Box::new(PoissonArrivals::new(250.0)))
        .build();
    let mut firm = FirmManager::new(FirmConfig {
        training: true,
        ..FirmConfig::default()
    });

    for _ in 0..4 {
        tick(&mut sim, &mut firm);
    }
    let svc = sim.app().service_by_name("post-storage-memcached").unwrap();
    let victim = sim.replicas(svc)[0];
    sim.inject(AnomalySpec::at_instance(
        AnomalyKind::MemBwStress,
        victim,
        0.95,
        SimDuration::from_secs(12),
    ));
    let mut saw_violation = false;
    for _ in 0..12 {
        saw_violation |= tick(&mut sim, &mut firm).any_violation();
    }
    assert!(saw_violation, "the injected stress never broke the SLO");
    assert!(firm.stats().actions > 0, "FIRM never acted");
    assert!(
        firm.extractor().trained_examples() > 100,
        "the SVM saw no ground truth"
    );
}

#[test]
fn firm_mitigation_beats_no_management_under_stress() {
    // p95 with FIRM managing must undercut the unmanaged p95 for the
    // same seed and injection, both read from the windows drained here
    // (FIRM's trace store keeps only the latest one).
    let run = |managed: bool| -> (f64, usize) {
        let cluster = ClusterSpec::small(4);
        let mut app = Benchmark::HotelReservation.build();
        firm::core::slo::calibrate_slos(&mut app, &cluster, 400.0, 1.4, 11);
        let mut sim = Simulation::builder(cluster, app, 11)
            .arrivals(Box::new(PoissonArrivals::new(400.0)))
            .build();
        let mut firm = FirmManager::new(FirmConfig {
            training: true,
            ..FirmConfig::default()
        });
        let svc = sim.app().service_by_name("rate-memcached").unwrap();
        let victim = sim.replicas(svc)[0];
        sim.inject_at(
            AnomalySpec::at_instance(
                AnomalyKind::MemBwStress,
                victim,
                0.95,
                SimDuration::from_secs(30),
            ),
            firm::sim::SimTime::from_secs(3),
        );
        let mut lats: Vec<f64> = Vec::new();
        for tick in 0..30 {
            let window_start = sim.now();
            sim.run_for(SimDuration::from_secs(1));
            let ctx = TickContext::drain(&mut sim, window_start);
            if tick >= 10 {
                lats.extend(
                    ctx.completed
                        .iter()
                        .filter(|r| !r.dropped && r.request_type == firm::sim::RequestTypeId(0))
                        .map(|r| r.latency.as_micros() as f64),
                );
            }
            if managed {
                firm.tick_window(&mut sim, ctx);
            }
        }
        lats.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        (firm::sim::stats::sample_quantile(&lats, 0.95), lats.len())
    };
    let (unmanaged, unmanaged_n) = run(false);
    let (managed, managed_n) = run(true);
    assert!(
        unmanaged_n >= 100 && managed_n >= 100,
        "too few samples: unmanaged {unmanaged_n}, managed {managed_n}"
    );
    assert!(
        managed < unmanaged,
        "FIRM p95 {managed} not better than unmanaged {unmanaged}"
    );
}

#[test]
fn scenario_harness_runs_every_benchmark_with_every_controller() {
    let spec = EpisodeSpec {
        duration: SimDuration::from_secs(10),
        control_interval: SimDuration::from_secs(1),
        warmup: SimDuration::from_secs(2),
    };
    let seed = 1;
    for bench in ALL_BENCHMARKS {
        let app = bench.build();
        let controllers: Vec<Box<dyn Controller>> = vec![
            Box::new(Unmanaged),
            Box::new(FirmManager::new(FirmConfig {
                training: true,
                ..FirmConfig::default()
            })),
            Box::new(K8sHpaController::new(
                K8sConfig::default(),
                app.services.len(),
            )),
            Box::new(AimdController::new(AimdConfig::default())),
        ];
        for (mut ctl, name) in controllers.into_iter().zip(["none", "FIRM", "K8S", "AIMD"]) {
            let mut sim = Simulation::builder(ClusterSpec::small(4), app.clone(), seed)
                .arrivals(Box::new(PoissonArrivals::new(100.0)))
                .build();
            let mut injector =
                AnomalyInjector::new(CampaignConfig::stressors_only(), seed ^ 0xF00D);
            let r = run_episode(&mut sim, ctl.as_mut(), Some(&mut injector), &spec);
            let label = format!("{} under {name}", bench.name());
            assert_eq!(ctl.name(), name, "{label}");
            assert!(r.completions > 100, "{label}: {}", r.completions);
            assert_eq!(r.timeline.len(), 10, "{label}");
        }
    }
}

#[test]
fn coordinator_and_baselines_compose_across_crates() {
    // Drive the Media Service, ingest into the coordinator, and let the
    // HPA reconcile off the same telemetry — the plumbing the manager
    // uses, assembled by hand.
    let mut sim = Simulation::builder(ClusterSpec::small(3), Benchmark::MediaService.build(), 13)
        .arrivals(Box::new(PoissonArrivals::new(150.0)))
        .build();
    let mut coord = TracingCoordinator::new(50_000);
    let mut hpa = K8sHpaController::new(K8sConfig::default(), sim.app().services.len());
    for _ in 0..5 {
        sim.run_for(SimDuration::from_secs(1));
        coord.ingest(sim.drain_completed());
        let t = sim.drain_telemetry();
        hpa.tick(&mut sim, &t);
    }
    assert!(coord.len() > 300);
    let cps = coord.critical_paths_since(firm::sim::SimTime::ZERO);
    assert!(!cps.is_empty());
    // Every CP is rooted at nginx.
    let nginx = Benchmark::MediaService
        .build()
        .service_by_name("nginx")
        .unwrap();
    assert!(cps.iter().all(|cp| cp.entries[0].service == nginx));
}
