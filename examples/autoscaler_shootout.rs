//! Head-to-head: FIRM vs the Kubernetes autoscaler vs AIMD on the Hotel
//! Reservation benchmark under an anomaly campaign. Every contender runs
//! the same `run_episode` loop over an identically seeded simulation and
//! injector, so only the controller differs.
//!
//! ```sh
//! cargo run --release --example autoscaler_shootout
//! ```

use firm::core::baselines::{AimdConfig, AimdController, K8sConfig, K8sHpaController};
use firm::core::controller::{run_episode, Controller, EpisodeSpec, Unmanaged};
use firm::core::injector::{AnomalyInjector, CampaignConfig};
use firm::core::manager::{FirmConfig, FirmManager};
use firm::sim::{spec::ClusterSpec, PoissonArrivals, SimDuration, Simulation};
use firm::workload::apps::Benchmark;

fn main() {
    let cluster = ClusterSpec::small(4);
    let mut app = Benchmark::HotelReservation.build();
    firm::core::slo::calibrate_slos(&mut app, &cluster, 400.0, 1.5, 3);
    let services = app.services.len();

    let contenders: Vec<(&str, Box<dyn Controller>)> = vec![
        ("none", Box::new(Unmanaged)),
        (
            "FIRM",
            Box::new(FirmManager::new(FirmConfig {
                training: true,
                ..FirmConfig::default()
            })),
        ),
        (
            "K8s HPA",
            Box::new(K8sHpaController::new(K8sConfig::default(), services)),
        ),
        ("AIMD", Box::new(AimdController::new(AimdConfig::default()))),
    ];

    println!(
        "{:<10} {:>10} {:>10} {:>12} {:>10} {:>12} {:>11}",
        "manager", "p50 (ms)", "p99 (ms)", "violations", "drops", "mean CPU", "mitig (s)"
    );
    let seed = 11;
    for (name, mut controller) in contenders {
        let mut sim = Simulation::builder(cluster.clone(), app.clone(), seed)
            .arrivals(Box::new(PoissonArrivals::new(400.0)))
            .build();
        let campaign = CampaignConfig {
            lambda: 0.4,
            intensity: (0.6, 1.0),
            ..Default::default()
        };
        let mut injector = AnomalyInjector::new(campaign, seed ^ 0xF00D);
        let spec = EpisodeSpec {
            duration: SimDuration::from_secs(45),
            control_interval: SimDuration::from_secs(1),
            warmup: SimDuration::from_secs(5),
        };
        let r = run_episode(&mut sim, controller.as_mut(), Some(&mut injector), &spec);
        println!(
            "{:<10} {:>10.2} {:>10.2} {:>11.1}% {:>10} {:>12.1} {:>11.2}",
            name,
            r.latency.p50() as f64 / 1e3,
            r.latency.p99() as f64 / 1e3,
            r.violation_rate() * 100.0,
            r.drops,
            r.mean_requested_cpu,
            r.mean_mitigation_secs()
        );
    }
    println!("\n(an untrained FIRM learns online during the run; see `paper fig10` and");
    println!(" `paper fig11b` in crates/bench for the pre-trained comparison the paper reports)");
}
