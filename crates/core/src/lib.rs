//! FIRM: fine-grained, ML-driven resource management for SLO-oriented
//! microservices — the core framework of the reproduction.
//!
//! This crate wires the substrates together into the architecture of
//! Fig. 6 of the paper:
//!
//! 1. the **Tracing Coordinator** (`firm-trace`) collects spans; Table 2
//!    telemetry is the simulator's `TelemetryWindow`, read in place — ①;
//! 2. the **Extractor** ([`extractor`]) detects SLO violations
//!    ([`slo`]), extracts critical paths (Algorithm 1, in `firm-trace`)
//!    and localizes critical instances with per-CP/per-instance
//!    variability features and an incremental SVM (Algorithm 2) — ② ③;
//! 3. the **RL-based Resource Estimator** ([`estimator`]) maps the
//!    Table 3 state of each culprit instance to fine-grained resource
//!    actions with a DDPG agent (§3.4) — ④;
//! 4. the **Deployment Module** ([`deployment::plan`]) turns each action
//!    into commands, actuated with the Table 6 latencies, under two
//!    scale-out rules: an oversubscribing limit is replaced by a
//!    scale-out (§3.5), and an action at the top of its range asks for
//!    one (§3.4) — ⑤;
//! 5. the **Performance Anomaly Injector** ([`injector`]) creates
//!    resource contention with configurable type, intensity, timing and
//!    duration for online training (§3.6) — ⑥.
//!
//! [`manager::FirmManager`] runs the full loop; [`baselines`] provides
//! the Kubernetes-autoscaler and AIMD comparison points; [`controller`]
//! unifies them behind one [`controller::Controller`] trait and one
//! [`controller::run_episode`] driver, which every evaluation harness
//! and the online trainer in [`training`] run on.

pub mod baselines;
pub mod controller;
pub mod deployment;
pub mod estimator;
pub mod extractor;
pub mod injector;
pub mod manager;
pub mod slo;
pub mod training;
pub mod wire;

pub use baselines::{AimdController, K8sHpaController};
pub use controller::{
    run_episode, ControlDecision, Controller, EpisodeResult, EpisodeSpec, MitigationTracker,
    PolicyCheckpoint, TickContext, TimelinePoint, Unmanaged,
};
pub use estimator::ResourceEstimator;
pub use extractor::{CriticalComponentExtractor, InstanceFeatures};
pub use injector::{AnomalyInjector, CampaignConfig};
pub use manager::{ExperienceLog, FirmConfig, FirmManager};
pub use slo::SloAssessment;
pub use training::{replay_experience, train_firm, EpisodeStats, TrainingConfig};
