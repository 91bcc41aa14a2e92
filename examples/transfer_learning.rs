//! Transfer learning (§3.4/§4.3): train a general one-for-all agent,
//! clone its weights into per-service agents, and compare early training
//! rewards against from-scratch per-service agents.
//!
//! ```sh
//! cargo run --release --example transfer_learning
//! ```

use firm::core::estimator::AgentRegime;
use firm::core::injector::CampaignConfig;
use firm::core::manager::{FirmConfig, FirmManager};
use firm::core::training::{train_firm, train_into, TrainingConfig};
use firm::sim::spec::ClusterSpec;
use firm::workload::apps::Benchmark;

fn main() {
    let cluster = ClusterSpec::small(4);
    let mut app = Benchmark::TrainTicket.build();
    firm::core::slo::calibrate_slos(&mut app, &cluster, 150.0, 1.4, 1);

    let cfg = |regime, seed| TrainingConfig {
        episodes: 30,
        max_steps: 20,
        ramp_episodes: 10,
        min_steps: 8,
        arrival_rate: 150.0,
        cluster: cluster.clone(),
        regime,
        campaign: CampaignConfig {
            lambda: 0.8,
            intensity: (0.7, 1.0),
            ..Default::default()
        },
        seed,
    };

    println!("training the general (one-for-all) teacher agent...");
    let (teacher_stats, teacher) = train_firm(&app, &cfg(AgentRegime::Shared, 100));
    let teacher_avg =
        teacher_stats.iter().map(|s| s.total_reward).sum::<f64>() / teacher_stats.len() as f64;
    println!("teacher mean episode reward: {teacher_avg:.1}");

    println!("\ntraining per-service agents from scratch...");
    let (scratch_stats, _) = train_firm(&app, &cfg(AgentRegime::PerService, 200));

    println!("training per-service agents transferred from the teacher...");
    let (actor, critic) = teacher.shared_weights();
    let mut student = FirmManager::new(FirmConfig {
        training: true,
        regime: AgentRegime::Transfer,
        seed: 300,
        ..FirmConfig::default()
    });
    student.estimator_mut().import_shared(&actor, &critic);
    let transfer_stats = train_into(&app, &cfg(AgentRegime::Transfer, 300), &mut student);

    let early = |stats: &[firm::core::training::EpisodeStats]| {
        let k = stats.len() / 2;
        stats[..k].iter().map(|s| s.total_reward).sum::<f64>() / k as f64
    };
    println!(
        "\nearly-training mean reward (first half of episodes):\n  from scratch: {:.1}\n  transferred:  {:.1}",
        early(&scratch_stats),
        early(&transfer_stats)
    );
    println!("\n(the paper's Fig. 11a: transferred agents converge ~7x faster than one-for-all)");
}
