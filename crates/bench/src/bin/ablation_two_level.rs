//! §5 ablation — "Why Multi-level ML Framework?"
//!
//! The paper argues the SVM filter (level 1) is what keeps the RL agent
//! trainable: it shrinks the state-action space to the culprit instances
//! and decouples the agent from the application architecture. This
//! ablation trains and runs FIRM twice — with the filter, and with the
//! RL agent fed *every* critical-path instance — and compares actions
//! issued, mitigation quality, and tail latency.

use firm_bench::{banner, paper_note, section, Args};
use firm_core::controller::{run_episode, EpisodeSpec};
use firm_core::injector::{AnomalyInjector, CampaignConfig};
use firm_core::manager::{FirmConfig, FirmManager};
use firm_core::training::{train_into, TrainingConfig};
use firm_sim::spec::ClusterSpec;
use firm_sim::{PoissonArrivals, SimDuration, Simulation};
use firm_workload::apps::Benchmark;

fn run_variant(svm_filter: bool, episodes: usize, seconds: u64, seed: u64) {
    let cluster = ClusterSpec::small(6);
    let mut app = Benchmark::SocialNetwork.build();
    firm_core::slo::calibrate_slos(&mut app, &cluster, 350.0, 1.4, seed);

    let mut mgr = FirmManager::new(FirmConfig {
        training: true,
        svm_filter,
        seed,
        ..FirmConfig::default()
    });
    let cfg = TrainingConfig {
        episodes,
        max_steps: 30,
        ramp_episodes: (episodes / 3).max(1),
        min_steps: 10,
        arrival_rate: 350.0,
        cluster: cluster.clone(),
        campaign: CampaignConfig {
            lambda: 0.6,
            intensity: (0.6, 1.0),
            ..Default::default()
        },
        seed,
        ..Default::default()
    };
    train_into(&app, &cfg, &mut mgr);
    let trained_actions = mgr.stats().actions;
    mgr.config.explore = false;
    mgr.reset_environment();

    let mut sim = Simulation::builder(cluster, app, seed)
        .arrivals(Box::new(PoissonArrivals::new(350.0)))
        .build();
    let campaign = CampaignConfig {
        lambda: 0.33,
        intensity: (0.6, 1.0),
        ..Default::default()
    };
    let mut injector = AnomalyInjector::new(campaign, seed ^ 0xF00D);
    let spec = EpisodeSpec {
        duration: SimDuration::from_secs(seconds),
        control_interval: SimDuration::from_secs(1),
        warmup: SimDuration::from_secs(5),
    };
    let r = run_episode(&mut sim, &mut mgr, Some(&mut injector), &spec);

    println!(
        "  {:<22} p50={:>8.2}ms p99={:>9.2}ms violations={:>5.1}% drops={:>5} cpu={:>6.1} actions(train)={}",
        if svm_filter { "two-level (SVM+RL)" } else { "RL-only (no filter)" },
        r.latency.p50() as f64 / 1e3,
        r.latency.p99() as f64 / 1e3,
        r.violation_rate() * 100.0,
        r.drops,
        r.mean_requested_cpu,
        trained_actions,
    );
}

fn main() {
    let args = Args::from_env();
    let episodes = args.u64("episodes", 40) as usize;
    let seconds = args.u64("seconds", 45);
    let seed = args.u64("seed", 67);

    banner(
        "§5 ablation",
        "Two-level (SVM filter + RL) vs RL acting on every CP instance",
    );
    section("validation scenario after equal training budgets");
    run_variant(true, episodes, seconds, seed);
    run_variant(false, episodes, seconds, seed);
    println!();
    paper_note("the SVM filter shrinks the RL's state-action space (faster training) and");
    paper_note("decouples the agent from the application architecture (§5)");
}
