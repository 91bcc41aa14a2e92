//! §5 ablation — "Why Multi-level ML Framework?"
//!
//! The paper argues the SVM filter (level 1) is what keeps the RL agent
//! trainable: it shrinks the state-action space to the culprit instances
//! and decouples the agent from the application architecture. This
//! ablation trains and runs FIRM twice — with the filter, and with the
//! RL agent fed *every* critical-path instance — and compares actions
//! issued, mitigation quality, and tail latency.

use firm_core::manager::{FirmConfig, FirmManager};
use firm_core::training::train_into;
use firm_sim::spec::ClusterSpec;
use firm_workload::apps::Benchmark;

use crate::{banner, calibrated_app, paper_note, section, training_config, Args, CampaignEpisode};

fn run_variant(svm_filter: bool, episodes: usize, seconds: u64, seed: u64) {
    let app = calibrated_app(
        Benchmark::SocialNetwork,
        &ClusterSpec::small(6),
        350.0,
        seed,
    );

    let mut mgr = FirmManager::new(FirmConfig {
        training: true,
        svm_filter,
        seed,
        ..FirmConfig::default()
    });
    let cfg = training_config(episodes, (episodes / 3).max(1), 10, 350.0, seed);
    train_into(&app, &cfg, &mut mgr);
    let trained_actions = mgr.stats().actions;
    mgr.config.explore = false;
    mgr.reset_environment();

    let episode = CampaignEpisode {
        rate: 350.0,
        lambda: 0.33,
        intensity: (0.6, 1.0),
        seconds,
        warmup_secs: 5,
    };
    let r = episode.run(&app, &mut mgr, seed);

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

pub fn run(args: &Args) {
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
