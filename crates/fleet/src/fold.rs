//! The one-for-all fold (§4.3): pool every tenant's experience in a
//! fixed order, train one shared agent from it.
//!
//! A [`Fold`] is the only place results are pooled and trained on. The
//! batch [`crate::runner::FleetRunner`] absorbs one catalog and trains
//! once; the resident `firm-serve` coordinator keeps one `Fold` for its
//! lifetime, absorbs every submission and trains when its cumulative
//! report is read. Training is always **from scratch** on the whole
//! pool with seeds derived from the fleet seed alone, so the trained
//! weights are a pure function of *what was absorbed in which order* —
//! which is why a catalog submitted to a coordinator in sequential
//! slices leaves the same policy bytes as one batch run.

use firm_core::estimator::{AgentRegime, ResourceEstimator};
use firm_core::manager::ExperienceLog;
use firm_core::training::replay_experience;

use crate::report::ScenarioOutcome;
use crate::runner::FleetConfig;

/// Salt of the shared agent's seed.
const AGENT_SALT: u64 = 0x0A11;

/// Ordered outcomes, the pooled RL transitions, and the seeded training
/// of the shared agent from them. SVM examples are never pooled: each
/// FIRM scenario's extractor learns online inside its own episode, so
/// an outcome's `svm_examples` count is all that reaches the fold.
pub struct Fold {
    seed: u64,
    train_steps: usize,
    /// Every absorbed outcome, in absorption order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// The pooled RL transitions (no SVM examples), in absorption order.
    pub pooled: ExperienceLog,
}

impl Fold {
    /// An empty fold under the config's seed and `train_steps`.
    pub fn new(config: &FleetConfig) -> Fold {
        Fold {
            seed: config.seed,
            train_steps: config.train_steps,
            outcomes: Vec::new(),
            pooled: ExperienceLog::default(),
        }
    }

    /// Appends one catalog's results, in the order given — the only
    /// ordering aggregation and training ever see, regardless of which
    /// worker finished first. A log's SVM examples, if any, are dropped.
    pub fn absorb(&mut self, results: Vec<(ScenarioOutcome, ExperienceLog)>) {
        for (outcome, log) in results {
            self.outcomes.push(outcome);
            self.pooled.transitions.extend(log.transitions);
        }
    }

    /// Trains a fresh shared agent on the whole pool by uniform replay;
    /// returns it with the number of updates that actually trained.
    pub fn train(&self) -> (ResourceEstimator, usize) {
        let mut estimator = ResourceEstimator::new(AgentRegime::Shared, self.seed ^ AGENT_SALT);
        let trained = replay_experience(&mut estimator, &self.pooled, self.train_steps);
        (estimator, trained)
    }
}
