//! Online RL training with anomaly injection — §4.3 of the paper.
//!
//! Training proceeds in episodes against a live simulation under an
//! injection campaign. As in the paper, early episodes are terminated
//! early (initial policies cannot mitigate, so little useful trace data
//! flows); episode length then grows to the full Table 4 horizon. Each
//! episode reports its total reward (the Fig. 11a learning curves) and,
//! periodically, the evaluated SLO-mitigation time of the current policy
//! (Fig. 11b).

use firm_sim::spec::{AppSpec, ClusterSpec};
use firm_sim::{PoissonArrivals, SimDuration, Simulation};

use crate::controller::{run_episode, EpisodeSpec};
use crate::estimator::{AgentRegime, ResourceEstimator};
use crate::injector::{AnomalyInjector, CampaignConfig};
use crate::manager::{ExperienceLog, FirmConfig, FirmManager};

/// Control interval of every training step.
const CONTROL_INTERVAL: SimDuration = SimDuration::from_millis(500);

/// Training configuration.
#[derive(Debug, Clone)]
pub struct TrainingConfig {
    /// Number of episodes.
    pub episodes: usize,
    /// Full episode length in control ticks (Table 4 uses 300).
    pub max_steps: usize,
    /// Episodes over which the length ramps from `min_steps` to
    /// `max_steps` (the paper ramps over ~1000).
    pub ramp_episodes: usize,
    /// Initial (early-terminated) episode length.
    pub min_steps: usize,
    /// Arrival rate driving the app during training.
    pub arrival_rate: f64,
    /// Injection campaign.
    pub campaign: CampaignConfig,
    /// Cluster the training environment runs on.
    pub cluster: ClusterSpec,
    /// Base seed.
    pub seed: u64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            episodes: 100,
            max_steps: 60,
            ramp_episodes: 30,
            min_steps: 10,
            arrival_rate: 60.0,
            campaign: CampaignConfig::default(),
            cluster: ClusterSpec::small(4),
            seed: 13,
        }
    }
}

impl TrainingConfig {
    /// Episode length at episode `i` (linear ramp).
    pub fn steps_at(&self, episode: usize) -> usize {
        if episode >= self.ramp_episodes {
            return self.max_steps;
        }
        let frac = episode as f64 / self.ramp_episodes.max(1) as f64;
        let steps = self.min_steps as f64 + frac * (self.max_steps - self.min_steps) as f64;
        steps.round() as usize
    }
}

/// Per-episode training statistics.
#[derive(Debug, Clone, Copy)]
pub struct EpisodeStats {
    /// Episode index.
    pub episode: usize,
    /// Total reward accumulated.
    pub total_reward: f64,
    /// Steps executed.
    pub steps: usize,
    /// Actions issued.
    pub actions: u64,
}

/// Trains a fresh FIRM manager in `regime` on `app`, returning the
/// per-episode stats and the trained manager.
pub fn train_firm(
    app: &AppSpec,
    regime: AgentRegime,
    config: &TrainingConfig,
) -> (Vec<EpisodeStats>, FirmManager) {
    let mut manager = FirmManager::new(FirmConfig {
        control_interval: CONTROL_INTERVAL,
        regime,
        training: true,
        seed: config.seed,
        ..FirmConfig::default()
    });
    let stats = train_into(app, config, &mut manager);
    (stats, manager)
}

/// Trains an existing manager in place (used for transfer learning:
/// pass a manager whose estimator was seeded from a trained shared
/// agent). Each episode is one [`run_episode`] over a fresh simulation
/// and injector, unwarmed, closed by [`FirmManager::end_episode`].
pub fn train_into(
    app: &AppSpec,
    config: &TrainingConfig,
    manager: &mut FirmManager,
) -> Vec<EpisodeStats> {
    let mut all_stats = Vec::with_capacity(config.episodes);

    for episode in 0..config.episodes {
        // Fresh environment per episode, new seeds for variety.
        let seed = config.seed ^ ((episode as u64) << 24) ^ 0xE11A;
        let mut sim = Simulation::builder(config.cluster.clone(), app.clone(), seed)
            .arrivals(Box::new(PoissonArrivals::new(config.arrival_rate)))
            .build();
        let mut injector = AnomalyInjector::new(config.campaign.clone(), seed ^ 0xBEEF);
        manager.reset_environment();

        let actions_before = manager.stats().actions;
        let steps = config.steps_at(episode);
        let spec = EpisodeSpec {
            duration: SimDuration::from_micros(CONTROL_INTERVAL.as_micros() * steps as u64),
            control_interval: CONTROL_INTERVAL,
            warmup: SimDuration::ZERO,
        };
        run_episode(&mut sim, manager, Some(&mut injector), &spec);
        let total_reward = manager.end_episode(&sim.drain_telemetry(), 1.0);
        all_stats.push(EpisodeStats {
            episode,
            total_reward,
            steps,
            actions: manager.stats().actions - actions_before,
        });
    }
    all_stats
}

/// Trains a shared-regime estimator from pooled, already-collected
/// experience — the paper's §4.3 *one-for-all* regime fed offline.
///
/// Transitions are replayed into the shared agent's buffer in log
/// order, then `train_steps` minibatch updates run. Because the replay
/// order and the estimator's RNG stream are both deterministic, the
/// resulting weights depend only on `(log, estimator seed)` — which is
/// what lets a fleet runtime pool experience from worker threads and
/// still produce bit-identical trained agents at any thread count.
/// Returns the number of updates that actually trained.
pub fn replay_experience(
    estimator: &mut ResourceEstimator,
    log: &ExperienceLog,
    train_steps: usize,
) -> usize {
    for (service, t) in &log.transitions {
        estimator.observe(*service, t.clone());
    }
    estimator.train_shared(train_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use firm_sim::spec::AppSpec;

    fn tiny_config() -> TrainingConfig {
        TrainingConfig {
            episodes: 6,
            max_steps: 10,
            ramp_episodes: 3,
            min_steps: 3,
            arrival_rate: 50.0,
            campaign: CampaignConfig {
                lambda: 1.0,
                intensity: (0.8, 1.0),
                target_nodes: vec![firm_sim::NodeId(0), firm_sim::NodeId(1)],
                ..CampaignConfig::default()
            },
            ..TrainingConfig::default()
        }
    }

    fn tight_app() -> AppSpec {
        let mut app = AppSpec::three_tier_demo();
        app.request_types[0].slo_latency_us = 5_000;
        app
    }

    #[test]
    fn episode_length_ramps() {
        let cfg = tiny_config();
        assert_eq!(cfg.steps_at(0), 3);
        assert!(cfg.steps_at(1) > 3);
        assert_eq!(cfg.steps_at(3), 10);
        assert_eq!(cfg.steps_at(100), 10);
    }

    #[test]
    fn training_produces_episode_stats() {
        let (stats, manager) = train_firm(&tight_app(), AgentRegime::Shared, &tiny_config());
        assert_eq!(stats.len(), 6);
        assert_eq!(stats[0].steps, 3);
        assert_eq!(stats[5].steps, 10);
        // The campaign guarantees violations; the manager must have acted
        // and the SVM must have been trained.
        assert!(manager.stats().actions > 0);
        assert!(manager.extractor().trained_examples() > 0);
    }

    #[test]
    fn transfer_training_continues_from_shared_weights() {
        let (_, teacher) = train_firm(&tight_app(), AgentRegime::Shared, &tiny_config());
        let (actor, critic) = teacher.shared_weights();
        let mut student = FirmManager::new(FirmConfig {
            training: true,
            regime: AgentRegime::Transfer,
            seed: 99,
            ..FirmConfig::default()
        });
        student.estimator_mut().import_shared(&actor, &critic);
        let stats = train_into(&tight_app(), &tiny_config(), &mut student);
        assert_eq!(stats.len(), 6);
    }

    #[test]
    fn trained_manager_matches_the_golden_captured_before_the_loop_move() {
        // A from-scratch leg and a transfer leg; FNV-1a over each
        // manager's shared weights and every episode's reward bits,
        // steps and actions. The literal was captured at commit 4d3e786
        // (debug and release agree), while `train_into` still had its
        // own tick loop: a failure means training moved — do not re-pin.
        let mut bytes = Vec::new();
        let mut record = |manager: &FirmManager, stats: &[EpisodeStats]| {
            let (actor, critic) = manager.shared_weights();
            for w in actor.iter().chain(&critic) {
                bytes.extend(w.to_bits().to_le_bytes());
            }
            for s in stats {
                bytes.extend(s.total_reward.to_bits().to_le_bytes());
                bytes.extend((s.steps as u64).to_le_bytes());
                bytes.extend(s.actions.to_le_bytes());
            }
        };
        let (stats, teacher) = train_firm(&tight_app(), AgentRegime::Shared, &tiny_config());
        record(&teacher, &stats);
        let (actor, critic) = teacher.shared_weights();
        let mut student = FirmManager::new(FirmConfig {
            training: true,
            regime: AgentRegime::Transfer,
            seed: 99,
            ..FirmConfig::default()
        });
        student.estimator_mut().import_shared(&actor, &critic);
        let stats = train_into(&tight_app(), &tiny_config(), &mut student);
        record(&student, &stats);
        assert_eq!(firm_wire::fnv64(&bytes), 0x5a9f_5018_ee5f_5fe3);
    }
}
