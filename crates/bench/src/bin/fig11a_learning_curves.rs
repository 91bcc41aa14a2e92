//! Fig. 11(a): RL learning curves — total episode reward for the
//! one-for-all, one-for-each, and transfer-learning agents trained on
//! Train-Ticket (§4.3).

use firm_bench::{banner, paper_note, section, Args};
use firm_core::estimator::AgentRegime;
use firm_core::injector::CampaignConfig;
use firm_core::manager::{FirmConfig, FirmManager};
use firm_core::training::{train_firm, train_into, EpisodeStats, TrainingConfig};
use firm_sim::spec::ClusterSpec;
use firm_workload::apps::Benchmark;

fn moving_avg(stats: &[EpisodeStats], window: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(stats.len());
    for i in 0..stats.len() {
        let lo = i.saturating_sub(window - 1);
        let xs = &stats[lo..=i];
        out.push(xs.iter().map(|s| s.total_reward).sum::<f64>() / xs.len() as f64);
    }
    out
}

/// Episode at which the moving average first reaches 80% of its final
/// plateau.
fn convergence_episode(avg: &[f64]) -> usize {
    let plateau =
        avg.iter().rev().take(avg.len() / 5 + 1).sum::<f64>() / (avg.len() / 5 + 1) as f64;
    avg.iter()
        .position(|v| *v >= plateau * 0.8)
        .unwrap_or(avg.len())
}

fn main() {
    let args = Args::from_env();
    let episodes = args.u64_at_least("episodes", 150, 1) as usize;
    let seed = args.u64("seed", 53);

    banner(
        "Fig. 11(a)",
        "Learning curves: one-for-all vs one-for-each vs transferred agents",
    );

    let mut app = Benchmark::TrainTicket.build();
    firm_core::slo::calibrate_slos(&mut app, &ClusterSpec::small(6), 250.0, 1.4, seed);
    let cfg = |regime, seed| TrainingConfig {
        episodes,
        max_steps: 30,
        ramp_episodes: episodes / 4,
        min_steps: 8,
        arrival_rate: 250.0,
        cluster: ClusterSpec::small(6),
        regime,
        campaign: CampaignConfig {
            lambda: 0.6,
            intensity: (0.6, 1.0),
            ..Default::default()
        },
        seed,
        ..Default::default()
    };

    eprintln!("[fig11a] training one-for-all...");
    let (all_stats, teacher) = train_firm(&app, &cfg(AgentRegime::Shared, seed));
    eprintln!("[fig11a] training one-for-each...");
    let (each_stats, _) = train_firm(&app, &cfg(AgentRegime::PerService, seed + 1));
    eprintln!("[fig11a] training transferred (from the one-for-all weights)...");
    let (actor, critic) = teacher.shared_weights();
    let mut student = FirmManager::new(FirmConfig {
        training: true,
        regime: AgentRegime::Transfer,
        seed: seed + 2,
        ..FirmConfig::default()
    });
    student.estimator_mut().import_shared(&actor, &critic);
    let transfer_stats = train_into(&app, &cfg(AgentRegime::Transfer, seed + 2), &mut student);

    section("total reward (moving average over 10 episodes), sampled every 10 episodes");
    let a = moving_avg(&all_stats, 10);
    let e = moving_avg(&each_stats, 10);
    let t = moving_avg(&transfer_stats, 10);
    println!(
        "  {:>8} {:>14} {:>14} {:>14}",
        "episode", "one-for-all", "one-for-each", "transferred"
    );
    for i in (0..episodes).step_by(10.max(episodes / 15)) {
        println!("  {:>8} {:>14.1} {:>14.1} {:>14.1}", i, a[i], e[i], t[i]);
    }
    let last = episodes - 1;
    println!(
        "  {:>8} {:>14.1} {:>14.1} {:>14.1}",
        last, a[last], e[last], t[last]
    );

    section("convergence (episode reaching 80% of final plateau)");
    println!(
        "  one-for-all: {}   one-for-each: {}   transferred: {}",
        convergence_episode(&a),
        convergence_episode(&e),
        convergence_episode(&t)
    );
    paper_note("transferred converges fastest (≈2k iters), one-for-all slowest (≈15k) with ~6% lower reward than one-for-each");
}
