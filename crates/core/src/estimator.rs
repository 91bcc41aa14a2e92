//! The RL-based Resource Estimator (§3.4, Table 3, Fig. 7/8).
//!
//! For each culprit instance the estimator builds the Table 3 state,
//! queries a DDPG agent for an action in `[-1, 1]⁵`, and maps it to
//! absolute resource limits `RLT` within per-resource bounds. The paper's
//! Fig. 8 dimensions are preserved: the actor sees the 8 state inputs
//! `(SV, WC, RC, RU[5])`; the critic additionally sees the current
//! normalized limits and usage — 18 state dims ⊕ 5 action dims = 23
//! critic inputs.
//!
//! The estimator supports the paper's three agent regimes (§4.3): a
//! shared *one-for-all* agent, per-service *one-for-each* agents, and
//! transfer-learning agents initialized from the shared one.

use std::collections::BTreeMap;

use firm_ml::ddpg::{DdpgAgent, DdpgConfig, Transition};
use firm_sim::telemetry_probe::InstanceSnapshot;
use firm_sim::{ResourceKind, ServiceId, RESOURCE_KINDS};

/// Full state dimension: `(SV, WC, RC)` ⊕ `RU[5]` ⊕ `norm-RLT[5]` ⊕
/// `norm-usage[5]`.
pub const STATE_DIM: usize = 18;
/// Actor-visible prefix: `(SV, WC, RC, RU[5])` — Fig. 8's 8 inputs.
pub const ACTOR_STATE_DIM: usize = 8;
/// Action dimension: one limit per controlled resource type.
pub const ACTION_DIM: usize = 5;

/// Builds the full 18-dimensional Table 3 state for one instance.
///
/// * `sv` — SLO violation ratio (1 = healthy, <1 = violating).
/// * `wc` — workload-change ratio (current / previous arrival rate).
/// * `request_mix` — request-type composition of the window.
pub fn state(snapshot: &InstanceSnapshot, sv: f64, wc: f64, request_mix: &[f64]) -> Vec<f64> {
    let mut s = Vec::with_capacity(STATE_DIM);
    s.push(sv.clamp(0.0, 2.0));
    s.push(wc.clamp(0.0, 3.0));
    s.push(encode_mix(request_mix));
    for kind in RESOURCE_KINDS {
        s.push(snapshot.utilization.get(kind).clamp(0.0, 1.0));
    }
    // Critic-only context: limits and usage normalized by a fixed
    // reference scale (node capacities are near-constant).
    for kind in RESOURCE_KINDS {
        let cap = reference_capacity(kind);
        s.push((snapshot.rlt.get(kind) / cap).clamp(0.0, 1.0));
    }
    for kind in RESOURCE_KINDS {
        let cap = reference_capacity(kind);
        s.push((snapshot.usage.get(kind) / cap).clamp(0.0, 1.0));
    }
    debug_assert_eq!(s.len(), STATE_DIM);
    s
}

/// Scalar encoding of the request composition (`RC` of Table 3; the
/// paper uses `numpy.ravel_multi_index` — any stable injective-ish
/// encoding works). Mix fractions are folded into `[0, 1]`.
fn encode_mix(mix: &[f64]) -> f64 {
    if mix.is_empty() {
        return 0.0;
    }
    let mut code = 0.0;
    let mut weight = 0.5;
    for m in mix {
        code += m.clamp(0.0, 1.0) * weight;
        weight *= 0.5;
    }
    code
}

/// Fixed normalization scale per resource (a mid-size x86 node).
fn reference_capacity(kind: ResourceKind) -> f64 {
    match kind {
        ResourceKind::Cpu => 48.0,
        ResourceKind::MemBw => 25_600.0,
        ResourceKind::Llc => 35.0,
        ResourceKind::IoBw => 2_000.0,
        ResourceKind::NetBw => 1_250.0,
    }
}

/// Per-resource action bounds `[R̂_lower, R̂_upper]` in native units
/// (§3.4: limits have predefined upper and lower bounds; CPU cannot
/// be 0).
pub const ACTION_BOUNDS: [(f64, f64); ACTION_DIM] = [
    (0.5, 8.0),        // CPU cores.
    (256.0, 12_800.0), // Memory bandwidth MB/s.
    (1.0, 20.0),       // LLC MB.
    (50.0, 1_000.0),   // Disk MB/s.
    (50.0, 800.0),     // Network MB/s.
];

/// Maps an agent action in `[-1, 1]⁵` to absolute limits `RLT` within
/// [`ACTION_BOUNDS`].
pub fn to_limits(action: &[f64]) -> [f64; ACTION_DIM] {
    let mut out = [0.0; ACTION_DIM];
    for (i, a) in action.iter().take(ACTION_DIM).enumerate() {
        let (lo, hi) = ACTION_BOUNDS[i];
        out[i] = lo + (a.clamp(-1.0, 1.0) + 1.0) / 2.0 * (hi - lo);
    }
    out
}

/// Reward function of §3.4:
/// `r = α·SV·|R| + (1−α)·Σᵢ RUᵢ/RLTᵢ`, where the second term is the
/// per-resource utilization sum (our `RU` is already `usage/RLT`).
pub fn reward(sv: f64, utilizations: &[f64; 5], alpha: f64) -> f64 {
    let util_sum: f64 = utilizations.iter().map(|u| u.clamp(0.0, 1.0)).sum();
    alpha * sv.clamp(0.0, 2.0) * 5.0 + (1.0 - alpha) * util_sum
}

/// SLO-penalized reward variant: the violation term is centred on
/// `SV = 1` (exact SLO compliance), so deep violations (`SV < 1`)
/// yield genuinely negative rewards instead of merely small positive
/// ones. Opt-in via [`crate::manager::FirmConfig::slo_penalty`] —
/// the legacy [`reward`] is structurally non-negative (`SV` and the
/// utilizations are clamped to non-negative ranges), so a pool fed by
/// it never holds a negative reward.
pub fn reward_penalized(sv: f64, utilizations: &[f64; 5], alpha: f64) -> f64 {
    let util_sum: f64 = utilizations.iter().map(|u| u.clamp(0.0, 1.0)).sum();
    alpha * (sv.clamp(0.0, 2.0) - 1.0) * 5.0 + (1.0 - alpha) * util_sum
}

/// Which agent serves a given service (§4.3's three regimes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentRegime {
    /// One shared agent for all microservices (*one-for-all*).
    Shared,
    /// A dedicated agent per microservice (*one-for-each*).
    PerService,
    /// Per-service agents initialized from a trained shared agent.
    Transfer,
}

/// The resource estimator: agent pool + state/action plumbing.
#[derive(Debug)]
pub struct ResourceEstimator {
    regime: AgentRegime,
    shared: DdpgAgent,
    per_service: BTreeMap<u16, DdpgAgent>,
    seed: u64,
}

impl ResourceEstimator {
    /// Creates an estimator in the given regime.
    pub fn new(regime: AgentRegime, seed: u64) -> Self {
        let config = DdpgConfig::paper(STATE_DIM, ACTOR_STATE_DIM, ACTION_DIM);
        ResourceEstimator {
            regime,
            shared: DdpgAgent::new(config, seed),
            per_service: BTreeMap::new(),
            seed,
        }
    }

    /// The regime in use.
    pub fn regime(&self) -> AgentRegime {
        self.regime
    }

    /// The shared agent (read access, e.g. for checkpoints).
    pub fn shared_agent(&self) -> &DdpgAgent {
        &self.shared
    }

    /// Imports weights into the shared agent (e.g. a trained checkpoint).
    pub fn import_shared(&mut self, actor: &[f64], critic: &[f64]) {
        self.shared.import_weights(actor, critic);
    }

    /// The agent responsible for `service`, creating it on first use in
    /// per-service regimes.
    pub fn agent_mut(&mut self, service: ServiceId) -> &mut DdpgAgent {
        match self.regime {
            AgentRegime::Shared => &mut self.shared,
            AgentRegime::PerService | AgentRegime::Transfer => {
                if !self.per_service.contains_key(&service.raw()) {
                    let config = DdpgConfig::paper(STATE_DIM, ACTOR_STATE_DIM, ACTION_DIM);
                    let mut agent =
                        DdpgAgent::new(config, self.seed ^ (service.raw() as u64) << 17);
                    if self.regime == AgentRegime::Transfer {
                        agent.clone_weights_from(&self.shared);
                    }
                    self.per_service.insert(service.raw(), agent);
                }
                self.per_service
                    .get_mut(&service.raw())
                    .expect("inserted above")
            }
        }
    }

    /// Deterministic action for a state.
    pub fn act(&mut self, service: ServiceId, state: &[f64]) -> Vec<f64> {
        self.agent_mut(service).act(state)
    }

    /// Exploratory action for a state (training).
    pub fn act_explore(&mut self, service: ServiceId, state: &[f64]) -> Vec<f64> {
        self.agent_mut(service).act_explore(state)
    }

    /// Records a transition and performs one training step on the
    /// responsible agent.
    pub fn learn(&mut self, service: ServiceId, transition: Transition) {
        let agent = self.agent_mut(service);
        agent.observe(transition);
        agent.train_step();
    }

    /// Records a transition on the responsible agent's replay buffer
    /// *without* training — the ingest half of an external experience
    /// feed (a fleet trainer pools transitions from many simulations,
    /// then trains in bulk with [`ResourceEstimator::train_shared`]).
    pub fn observe(&mut self, service: ServiceId, transition: Transition) {
        self.agent_mut(service).observe(transition);
    }

    /// Runs up to `steps` minibatch updates on the shared agent and
    /// returns how many actually trained (the agent skips steps until
    /// its replay buffer warms up).
    pub fn train_shared(&mut self, steps: usize) -> usize {
        (0..steps).filter(|_| self.shared.train_step()).count()
    }

    /// Resets exploration noise on all agents (episode boundary).
    pub fn episode_reset(&mut self) {
        self.shared.episode_reset();
        for agent in self.per_service.values_mut() {
            agent.episode_reset();
        }
    }

    /// Total training steps across all agents.
    pub fn train_steps(&self) -> u64 {
        self.shared.train_steps()
            + self
                .per_service
                .values()
                .map(|a| a.train_steps())
                .sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firm_sim::spec::{AppSpec, ClusterSpec};
    use firm_sim::{SimDuration, Simulation};

    fn snapshot() -> InstanceSnapshot {
        let mut sim =
            Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), 41).build();
        sim.run_for(SimDuration::from_secs(1));
        sim.drain_telemetry().instances.remove(0)
    }

    #[test]
    fn state_has_paper_dimensions() {
        let snap = snapshot();
        let s = state(&snap, 0.8, 1.2, &[1.0]);
        assert_eq!(s.len(), STATE_DIM);
        assert_eq!(&s[0..2], &[0.8, 1.2]);
        assert!(s.iter().all(|v| v.is_finite()));
        // All normalized components are in range.
        assert!(s[3..].iter().all(|v| (0.0..=1.0).contains(v)));
        // Critic input = 18 + 5 = 23, matching Fig. 8.
        assert_eq!(STATE_DIM + ACTION_DIM, 23);
        assert_eq!(ACTOR_STATE_DIM, 8);
    }

    #[test]
    fn mix_encoding_is_stable_and_bounded() {
        assert_eq!(encode_mix(&[]), 0.0);
        let a = encode_mix(&[1.0, 0.0]);
        let b = encode_mix(&[0.0, 1.0]);
        assert_ne!(a, b);
        for mix in [&[0.3, 0.3, 0.4][..], &[1.0][..], &[0.5; 8][..]] {
            let c = encode_mix(mix);
            assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn action_mapping_roundtrips() {
        let limits = to_limits(&[-1.0, 0.0, 1.0, 0.5, -0.5]);
        assert_eq!(limits[0], 0.5); // CPU lower bound.
        assert_eq!(limits[2], 20.0); // LLC upper bound.
        assert!((limits[1] - (256.0 + 12_544.0 / 2.0)).abs() < 1e-9);
        assert_eq!(limits[3], 50.0 + 950.0 * 0.75);
        assert_eq!(limits[4], 50.0 + 750.0 * 0.25);
        // Out-of-range actions clamp to the bounds.
        assert_eq!(to_limits(&[-3.0; 5]), ACTION_BOUNDS.map(|(lo, _)| lo));
        assert_eq!(to_limits(&[3.0; 5]), ACTION_BOUNDS.map(|(_, hi)| hi));
    }

    #[test]
    fn reward_balances_slo_and_utilization() {
        // Healthy and fully utilized: maximal reward.
        let healthy = reward(1.0, &[1.0; 5], 0.5);
        assert!((healthy - 5.0).abs() < 1e-12);
        // Violating and idle: low reward.
        let bad = reward(0.2, &[0.05; 5], 0.5);
        assert!(bad < 1.0);
        // SLO weight dominates as alpha → 1.
        let slo_only = reward(0.2, &[1.0; 5], 1.0);
        assert!((slo_only - 1.0).abs() < 1e-12);
    }

    #[test]
    fn regimes_route_to_distinct_agents() {
        let snap = snapshot();
        let state = state(&snap, 1.0, 1.0, &[1.0]);

        let mut shared = ResourceEstimator::new(AgentRegime::Shared, 1);
        let a1 = shared.act(ServiceId(1), &state);
        let a2 = shared.act(ServiceId(2), &state);
        assert_eq!(a1, a2, "shared agent gives one policy");

        let mut per = ResourceEstimator::new(AgentRegime::PerService, 1);
        let b1 = per.act(ServiceId(1), &state);
        let b2 = per.act(ServiceId(2), &state);
        assert_ne!(b1, b2, "per-service agents are independent");

        let mut xfer = ResourceEstimator::new(AgentRegime::Transfer, 1);
        let c1 = xfer.act(ServiceId(1), &state);
        let c2 = xfer.act(ServiceId(2), &state);
        let c0 = xfer.shared_agent().act(&state);
        assert_eq!(c1, c0, "transferred agent starts from the shared policy");
        assert_eq!(c1, c2);
    }

    #[test]
    fn learn_accumulates_training_steps() {
        let mut est = ResourceEstimator::new(AgentRegime::Shared, 2);
        let state = vec![0.5; STATE_DIM];
        for _ in 0..70 {
            est.learn(
                ServiceId(0),
                Transition {
                    state: state.clone(),
                    action: vec![0.0; ACTION_DIM],
                    reward: 1.0,
                    next_state: state.clone(),
                    done: false,
                },
            );
        }
        assert!(est.train_steps() > 0);
    }
}
