//! Quickstart: run a FIRM-managed Social Network under contention.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the Social Network benchmark, calibrates its SLOs, injects a
//! memory-bandwidth anomaly into a container, and shows FIRM detecting,
//! localizing, and mitigating the violation.

use firm::core::controller::TickContext;
use firm::core::manager::{FirmConfig, FirmManager};
use firm::core::slo::SloAssessment;
use firm::sim::{
    spec::ClusterSpec, AnomalyKind, AnomalySpec, PoissonArrivals, SimDuration, Simulation,
};
use firm::workload::apps::Benchmark;

/// Requests drained so far: `(completions, drops)`, a dropped request
/// counting in both.
type Tally = (u64, u64);

/// One 1 s control tick: FIRM acts on the window just drained, whose
/// requests are added to `tally` first.
fn tick(sim: &mut Simulation, firm: &mut FirmManager, tally: &mut Tally) -> SloAssessment {
    let window_start = sim.now();
    sim.run_for(SimDuration::from_secs(1));
    let ctx = TickContext::drain(sim, window_start);
    tally.0 += ctx.completed.len() as u64;
    tally.1 += ctx.completed.iter().filter(|r| r.dropped).count() as u64;
    firm.tick_window(sim, ctx)
}

fn main() {
    let cluster = ClusterSpec::small(4);
    let mut app = Benchmark::SocialNetwork.build();
    firm::core::slo::calibrate_slos(&mut app, &cluster, 200.0, 1.5, 1);
    println!("app: {} ({} services)", app.name, app.services.len());

    let mut sim = Simulation::builder(cluster, app, 42)
        .arrivals(Box::new(PoissonArrivals::new(200.0)))
        .build();
    let mut firm = FirmManager::new(FirmConfig {
        training: true,
        ..FirmConfig::default()
    });

    // Healthy warmup.
    let mut tally = Tally::default();
    for _ in 0..5 {
        tick(&mut sim, &mut firm, &mut tally);
    }

    // Stress a container on the read path (§3.6-style injection).
    let victim_svc = sim.app().service_by_name("post-storage-memcached").unwrap();
    let victim = sim.replicas(victim_svc)[0];
    sim.inject(AnomalySpec::at_instance(
        AnomalyKind::MemBwStress,
        victim,
        0.9,
        SimDuration::from_secs(10),
    ));
    println!("injected MemBwStress into {victim} (post-storage-memcached)");

    for second in 0..15 {
        let assessment = tick(&mut sim, &mut firm, &mut tally);
        println!(
            "t={:>2}s sv={:.2} violating={:<5} actions so far={}",
            second + 6,
            assessment.sv,
            assessment.any_violation(),
            firm.stats().actions
        );
    }

    let stats = firm.stats();
    println!(
        "\nsummary: {} ticks, {} violation ticks, {} RL actions ({} became scale-outs)",
        stats.ticks, stats.violation_ticks, stats.actions, stats.scale_outs
    );
    println!(
        "SVM trained on {} labelled examples; completions={} drops={}",
        firm.extractor().trained_examples(),
        tally.0,
        tally.1
    );
}
