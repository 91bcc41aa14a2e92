//! Deep deterministic policy gradient (DDPG) — §3.4 and Algorithm 3 of
//! the paper.
//!
//! The agent follows the paper's setup exactly:
//!
//! * actor π(s): MLP with two hidden ReLU layers and a Tanh output
//!   (Fig. 8), seeing the 8-dimensional state summary of Table 3;
//! * critic Q(s, a): MLP with two hidden ReLU layers and a linear output,
//!   seeing the full state ⊕ action (23 inputs in the paper's Fig. 8);
//! * replay buffer, minibatch updates, Ornstein-Uhlenbeck exploration
//!   noise, and soft target updates `w' ← τ·w + (1−τ)·w'` (Algorithm 3
//!   reuses γ as the update coefficient; we expose it as `tau`);
//! * Table 4 hyperparameters as consts: batch 64 ([`BATCH_SIZE`]),
//!   buffer 10⁵, actor lr 3·10⁻⁴, critic lr 3·10⁻³, γ = 0.9.
//!
//! The *actor-state prefix* device lets the critic condition on richer
//! context than the actor: the paper's critic takes 23 inputs while the
//! actor takes 8; here `state` is the full vector and the actor reads
//! only its first [`DdpgConfig::actor_state_dim`] entries.

use crate::linalg::Matrix;
use crate::nn::{Activation, Mlp};
use crate::optim::{Adam, Optimizer};
use firm_rng::Xoshiro256;

/// One environment transition.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Full state (critic view); the actor reads the prefix.
    pub state: Vec<f64>,
    /// Action taken, each component in `[-1, 1]`.
    pub action: Vec<f64>,
    /// Immediate reward.
    pub reward: f64,
    /// Full successor state.
    pub next_state: Vec<f64>,
    /// Episode terminated at this transition.
    pub done: bool,
}

/// Replay buffer: a fixed-capacity ring sampled uniformly with
/// replacement (Algorithm 3, line 11).
#[derive(Debug)]
pub struct ReplayBuffer {
    data: Vec<Transition>,
    capacity: usize,
    cursor: usize,
}

impl ReplayBuffer {
    /// Creates a buffer of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        ReplayBuffer {
            data: Vec::with_capacity(capacity.min(4096)),
            capacity,
            cursor: 0,
        }
    }

    /// Stores a transition, overwriting the oldest when full.
    pub fn push(&mut self, t: Transition) {
        if self.data.len() < self.capacity {
            self.data.push(t);
        } else {
            self.data[self.cursor] = t;
        }
        self.cursor = (self.cursor + 1) % self.capacity;
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no transitions are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Draws `n` uniform-with-replacement indices into `out` (cleared
    /// first) — the allocation-free minibatch draw of
    /// [`DdpgAgent::train_step`].
    pub fn sample_indices_into(&self, n: usize, rng: &mut Xoshiro256, out: &mut Vec<usize>) {
        out.clear();
        for _ in 0..n {
            out.push(rng.index(self.data.len()));
        }
    }
}

/// Ornstein-Uhlenbeck exploration noise (the paper's `N_t` process in
/// Algorithm 3, line 8).
#[derive(Debug, Clone)]
pub struct OuNoise {
    state: Vec<f64>,
    theta: f64,
    sigma: f64,
}

impl OuNoise {
    /// Creates a zero-mean OU process for `dim`-dimensional actions.
    pub fn new(dim: usize, theta: f64, sigma: f64) -> Self {
        OuNoise {
            state: vec![0.0; dim],
            theta,
            sigma,
        }
    }

    /// Advances the process and returns the noise sample.
    pub fn step(&mut self, rng: &mut Xoshiro256) -> Vec<f64> {
        for x in &mut self.state {
            *x += self.theta * (0.0 - *x) + self.sigma * rng.standard_normal();
        }
        self.state.clone()
    }

    /// Resets the process to zero (between episodes).
    pub fn reset(&mut self) {
        self.state.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Scales the noise magnitude (used when fine-tuning transferred
    /// agents, which need less exploration).
    pub fn scale_sigma(&mut self, k: f64) {
        self.sigma *= k;
    }
}

/// Hidden-layer sizes of both networks (Fig. 8: two layers of 40).
pub const HIDDEN: [usize; 2] = [40, 40];
/// Actor learning rate (Table 4: 3·10⁻⁴).
pub const ACTOR_LR: f64 = 3e-4;
/// Critic learning rate (Table 4: 3·10⁻³).
pub const CRITIC_LR: f64 = 3e-3;
/// Discount factor (Table 4: 0.9).
pub const GAMMA: f64 = 0.9;
/// Soft-target-update coefficient toward the online weights
/// (Algorithm 3 reuses γ here).
pub const TAU: f64 = 0.9;
/// Replay-buffer capacity (Table 4: 10⁵).
pub const REPLAY_CAPACITY: usize = 100_000;
/// Minibatch size (Table 4: 64).
pub const BATCH_SIZE: usize = 64;
/// OU noise mean-reversion rate.
pub const NOISE_THETA: f64 = 0.15;
/// OU noise volatility.
pub const NOISE_SIGMA: f64 = 0.2;

/// The agent's dimensions; its hyperparameters are the Table 4 consts
/// above.
#[derive(Debug, Clone)]
pub struct DdpgConfig {
    /// Full state dimension (critic view).
    pub state_dim: usize,
    /// Prefix of the state visible to the actor (8 in the paper).
    pub actor_state_dim: usize,
    /// Action dimension (5 in the paper: one limit per resource type).
    pub action_dim: usize,
}

impl DdpgConfig {
    /// The paper's configuration for given dimensions.
    pub fn paper(state_dim: usize, actor_state_dim: usize, action_dim: usize) -> Self {
        DdpgConfig {
            state_dim,
            actor_state_dim,
            action_dim,
        }
    }
}

/// Preallocated minibatch workspaces: one warmed-up
/// [`DdpgAgent::train_step`] performs zero matrix allocations — every
/// intermediate (batch assembly, target bootstrap, both forward/backward
/// passes, the actor's critic-gradient slice) lands in a reused buffer.
#[derive(Debug, Default)]
struct TrainScratch {
    idx: Vec<usize>,
    s_full: Matrix,
    s_actor: Matrix,
    s_actor2: Matrix,
    s_full2: Matrix,
    actions: Matrix,
    rewards: Vec<f64>,
    dones: Vec<bool>,
    y: Vec<f64>,
    a2: Matrix,
    cat: Matrix,
    q2: Matrix,
    q: Matrix,
    grad: Matrix,
    a_pred: Matrix,
    q_pi: Matrix,
    grad_q: Matrix,
    da: Matrix,
}

impl TrainScratch {
    fn new() -> Self {
        TrainScratch::default()
    }
}

/// The DDPG agent: actor, critic, targets, replay, and noise.
#[derive(Debug)]
pub struct DdpgAgent {
    config: DdpgConfig,
    actor: Mlp,
    actor_target: Mlp,
    critic: Mlp,
    critic_target: Mlp,
    actor_opt: Adam,
    critic_opt: Adam,
    replay: ReplayBuffer,
    noise: OuNoise,
    rng: Xoshiro256,
    train_steps: u64,
    scratch: TrainScratch,
}

impl DdpgAgent {
    /// Creates an agent with freshly initialized networks.
    ///
    /// # Panics
    ///
    /// Panics if `actor_state_dim > state_dim` or any dimension is zero.
    pub fn new(config: DdpgConfig, seed: u64) -> Self {
        assert!(config.actor_state_dim <= config.state_dim);
        assert!(config.state_dim > 0 && config.action_dim > 0);

        let mut actor_dims = vec![config.actor_state_dim];
        actor_dims.extend(HIDDEN);
        actor_dims.push(config.action_dim);
        let mut critic_dims = vec![config.state_dim + config.action_dim];
        critic_dims.extend(HIDDEN);
        critic_dims.push(1);

        let actor = Mlp::new(&actor_dims, Activation::Relu, Activation::Tanh, seed);
        let critic = Mlp::new(
            &critic_dims,
            Activation::Relu,
            Activation::Identity,
            seed ^ 0xDDD0,
        );
        // Targets start as exact copies (Algorithm 3, line 2).
        let actor_target = actor.clone();
        let critic_target = critic.clone();

        DdpgAgent {
            replay: ReplayBuffer::new(REPLAY_CAPACITY),
            noise: OuNoise::new(config.action_dim, NOISE_THETA, NOISE_SIGMA),
            actor_opt: Adam::new(ACTOR_LR),
            critic_opt: Adam::new(CRITIC_LR),
            rng: Xoshiro256::new(seed ^ 0xA5A5),
            actor,
            actor_target,
            critic,
            critic_target,
            config,
            train_steps: 0,
            scratch: TrainScratch::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DdpgConfig {
        &self.config
    }

    /// Training steps performed so far.
    pub fn train_steps(&self) -> u64 {
        self.train_steps
    }

    fn actor_view<'a>(&self, state: &'a [f64]) -> &'a [f64] {
        &state[..self.config.actor_state_dim]
    }

    /// Deterministic policy action, each component in `[-1, 1]`.
    pub fn act(&self, state: &[f64]) -> Vec<f64> {
        self.actor.forward_one(self.actor_view(state))
    }

    /// Policy action plus OU exploration noise (Algorithm 3, line 8),
    /// clamped to `[-1, 1]`.
    pub fn act_explore(&mut self, state: &[f64]) -> Vec<f64> {
        let mut a = self.act(state);
        let n = self.noise.step(&mut self.rng);
        for (ai, ni) in a.iter_mut().zip(n) {
            *ai = (*ai + ni).clamp(-1.0, 1.0);
        }
        a
    }

    /// Stores a transition in the replay buffer.
    pub fn observe(&mut self, t: Transition) {
        debug_assert_eq!(t.state.len(), self.config.state_dim);
        debug_assert_eq!(t.action.len(), self.config.action_dim);
        self.replay.push(t);
    }

    /// Resets the exploration-noise process (start of an episode).
    pub fn episode_reset(&mut self) {
        self.noise.reset();
    }

    /// Scales exploration noise (e.g. after transfer learning).
    pub fn scale_exploration(&mut self, k: f64) {
        self.noise.scale_sigma(k);
    }

    /// One minibatch update of critic, actor and targets (Algorithm 3,
    /// lines 11–15). Returns whether it trained: `false`, and nothing
    /// changes, while the replay buffer holds fewer than one batch.
    ///
    /// Runs entirely on preallocated `TrainScratch` workspaces: after the first
    /// call no matrix is allocated, and the arithmetic (operand values,
    /// per-element fold order) is identical to the allocating
    /// formulation, so trained weights stay bit-for-bit reproducible.
    ///
    /// Each of the three backward passes tells [`Mlp::backward_into`]
    /// what it will read: the critic and actor updates want parameter
    /// gradients and no input gradient; the critic pass that feeds the
    /// actor wants the action columns of the input gradient and no
    /// parameter gradients. Nothing else is computed, and what is
    /// computed is the same bits as in the full pass.
    pub fn train_step(&mut self) -> bool {
        let b = BATCH_SIZE;
        if self.replay.len() < b {
            return false;
        }
        let sd = self.config.state_dim;
        let asd = self.config.actor_state_dim;
        let ad = self.config.action_dim;
        let sc = &mut self.scratch;

        // Assemble the minibatch from uniform draws.
        self.replay
            .sample_indices_into(b, &mut self.rng, &mut sc.idx);
        sc.s_full.resize(b, sd);
        sc.s_actor2.resize(b, asd);
        sc.s_full2.resize(b, sd);
        sc.actions.resize(b, ad);
        sc.rewards.clear();
        sc.dones.clear();
        for (i, &j) in sc.idx.iter().enumerate() {
            let t = &self.replay.data[j];
            sc.s_full.row_mut(i).copy_from_slice(&t.state);
            sc.s_full2.row_mut(i).copy_from_slice(&t.next_state);
            sc.s_actor2.row_mut(i).copy_from_slice(&t.next_state[..asd]);
            sc.actions.row_mut(i).copy_from_slice(&t.action);
            sc.rewards.push(t.reward);
            sc.dones.push(t.done);
        }

        // Critic targets: y = r + γ(1−done)·Q'(s', π'(s')).
        self.actor_target
            .forward_into(&sc.s_actor2, &mut sc.a2, false);
        sc.s_full2.hstack_into(&sc.a2, &mut sc.cat);
        self.critic_target.forward_into(&sc.cat, &mut sc.q2, false);
        sc.y.clear();
        for i in 0..b {
            let bootstrap = if sc.dones[i] {
                0.0
            } else {
                GAMMA * sc.q2.get(i, 0)
            };
            sc.y.push(sc.rewards[i] + bootstrap);
        }

        // Critic update: minimize MSE(Q(s, a), y).
        self.critic.zero_grads();
        sc.s_full.hstack_into(&sc.actions, &mut sc.cat);
        self.critic.forward_into(&sc.cat, &mut sc.q, true);
        sc.grad.resize(b, 1);
        for (i, &yi) in sc.y.iter().enumerate() {
            let d = sc.q.get(i, 0) - yi;
            sc.grad.set(i, 0, 2.0 * d / b as f64);
        }
        self.critic.backward_into(&sc.grad, true, None);
        self.critic_opt.step(&mut self.critic);

        // Actor update: ascend ∇_θ E[Q(s, π(s))] via the chain rule
        // through the critic input gradient.
        self.actor.zero_grads();
        sc.s_full.slice_cols_into(0, asd, &mut sc.s_actor);
        self.actor.forward_into(&sc.s_actor, &mut sc.a_pred, true);
        sc.s_full.hstack_into(&sc.a_pred, &mut sc.cat);
        self.critic.forward_into(&sc.cat, &mut sc.q_pi, true);
        sc.grad_q.resize(b, 1);
        sc.grad_q.fill(-1.0 / b as f64);
        // Only the actor learns from this pass: ask the critic for the
        // action columns of its input gradient and nothing else, so
        // its parameter gradients are never computed.
        self.critic
            .backward_into(&sc.grad_q, false, Some((sd..sd + ad, &mut sc.da)));
        self.actor.backward_into(&sc.da, true, None);
        self.actor_opt.step(&mut self.actor);

        // Soft target updates (Algorithm 3, lines 14–15).
        self.actor_target.soft_update_from(&self.actor, TAU);
        self.critic_target.soft_update_from(&self.critic, TAU);

        self.train_steps += 1;
        true
    }

    /// Exports `(actor, critic)` weights for checkpoints and transfer.
    pub fn export_weights(&self) -> (Vec<f64>, Vec<f64>) {
        (self.actor.get_weights(), self.critic.get_weights())
    }

    /// Imports weights exported from an agent of identical shape,
    /// synchronizing the targets to them.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn import_weights(&mut self, actor: &[f64], critic: &[f64]) {
        self.actor.set_weights(actor);
        self.critic.set_weights(critic);
        self.actor_target.set_weights(actor);
        self.critic_target.set_weights(critic);
    }

    /// Transfer learning (§3.4): initialize this agent from a trained
    /// general agent, keep its replay, and damp exploration.
    pub fn clone_weights_from(&mut self, other: &DdpgAgent) {
        let (a, c) = other.export_weights();
        self.import_weights(&a, &c);
        self.scale_exploration(0.5);
    }

    /// Critic value estimate for a `(state, action)` pair.
    pub fn q_value(&self, state: &[f64], action: &[f64]) -> f64 {
        let mut input = state.to_vec();
        input.extend_from_slice(action);
        self.critic.forward_one(&input)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimensions_match_fig8() {
        // State 18 (8 actor-visible), action 5 → critic 23 inputs.
        let agent = DdpgAgent::new(DdpgConfig::paper(18, 8, 5), 1);
        let state = vec![0.1; 18];
        let a = agent.act(&state);
        assert_eq!(a.len(), 5);
        assert!(a.iter().all(|v| (-1.0..=1.0).contains(v)));
        let q = agent.q_value(&state, &a);
        assert!(q.is_finite());
    }

    #[test]
    fn replay_ring_overwrites_oldest() {
        let mut buf = ReplayBuffer::new(4);
        for i in 0..6 {
            buf.push(Transition {
                state: vec![i as f64],
                action: vec![0.0],
                reward: i as f64,
                next_state: vec![0.0],
                done: false,
            });
        }
        assert_eq!(buf.len(), 4);
        let rewards: Vec<f64> = buf.data.iter().map(|t| t.reward).collect();
        assert!(rewards.contains(&5.0));
        assert!(!rewards.contains(&0.0));
        assert!(!rewards.contains(&1.0));
    }

    #[test]
    fn ou_noise_is_zero_mean_and_resettable() {
        let mut noise = OuNoise::new(2, 0.15, 0.2);
        let mut rng = Xoshiro256::new(5);
        let mut sum = [0.0; 2];
        let n = 20_000;
        for _ in 0..n {
            let s = noise.step(&mut rng);
            sum[0] += s[0];
            sum[1] += s[1];
        }
        assert!((sum[0] / n as f64).abs() < 0.05);
        assert!((sum[1] / n as f64).abs() < 0.05);
        noise.reset();
        assert_eq!(noise.state, vec![0.0, 0.0]);
    }

    #[test]
    fn exploration_stays_in_bounds() {
        let mut agent = DdpgAgent::new(DdpgConfig::paper(3, 2, 2), 2);
        for _ in 0..100 {
            let a = agent.act_explore(&[0.3, -0.5, 0.9]);
            assert!(a.iter().all(|v| (-1.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn train_step_requires_full_batch() {
        let mut agent = DdpgAgent::new(DdpgConfig::paper(3, 2, 2), 3);
        assert!(!agent.train_step());
        for _ in 0..BATCH_SIZE - 1 {
            agent.observe(Transition {
                state: vec![0.0; 3],
                action: vec![0.0; 2],
                reward: 0.0,
                next_state: vec![0.0; 3],
                done: true,
            });
        }
        assert!(!agent.train_step());
        agent.observe(Transition {
            state: vec![0.0; 3],
            action: vec![0.0; 2],
            reward: 0.0,
            next_state: vec![0.0; 3],
            done: true,
        });
        assert!(agent.train_step());
        assert_eq!(agent.train_steps(), 1);
    }

    /// Contextual bandit: optimal action is a known function of the
    /// state; the agent must learn it end-to-end through the critic.
    #[test]
    fn learns_contextual_bandit() {
        let mut agent = DdpgAgent::new(DdpgConfig::paper(3, 2, 2), 4);
        let mut env_rng = Xoshiro256::new(99);
        let reward_of = |s: &[f64], a: &[f64]| -> f64 {
            // Optimal: a0 = 0.8·s0, a1 = −0.5·s1.
            let d0 = a[0] - 0.8 * s[0];
            let d1 = a[1] + 0.5 * s[1];
            1.0 - (d0 * d0 + d1 * d1)
        };
        for step in 0..4_000 {
            let s = vec![
                env_rng.uniform_range(-1.0, 1.0),
                env_rng.uniform_range(-1.0, 1.0),
                env_rng.uniform_range(-1.0, 1.0),
            ];
            let a = agent.act_explore(&s);
            let r = reward_of(&s, &a);
            agent.observe(Transition {
                state: s.clone(),
                action: a,
                reward: r,
                next_state: s,
                done: true,
            });
            if step > 100 {
                agent.train_step();
            }
        }
        // Evaluate greedily.
        let mut total = 0.0;
        let n = 200;
        for _ in 0..n {
            let s = vec![
                env_rng.uniform_range(-1.0, 1.0),
                env_rng.uniform_range(-1.0, 1.0),
                env_rng.uniform_range(-1.0, 1.0),
            ];
            let a = agent.act(&s);
            total += reward_of(&s, &a);
        }
        let mean = total / n as f64;
        // Random actions average ≈ 0.1; optimal = 1.0.
        assert!(mean > 0.8, "greedy mean reward {mean}");
    }

    #[test]
    fn weight_transfer_reproduces_policy() {
        let cfg = DdpgConfig::paper(3, 2, 2);
        let mut teacher = DdpgAgent::new(cfg.clone(), 6);
        for _ in 0..200 {
            teacher.observe(Transition {
                state: vec![0.1, 0.2, 0.3],
                action: vec![0.5, -0.5],
                reward: 1.0,
                next_state: vec![0.1, 0.2, 0.3],
                done: true,
            });
        }
        teacher.train_step();
        let mut student = DdpgAgent::new(cfg, 7);
        let s = [0.4, -0.2, 0.6];
        assert_ne!(teacher.act(&s), student.act(&s));
        student.clone_weights_from(&teacher);
        assert_eq!(teacher.act(&s), student.act(&s));
        assert_eq!(
            teacher.q_value(&s, &[0.1, 0.1]).to_bits(),
            student.q_value(&s, &[0.1, 0.1]).to_bits()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = |seed| {
            let mut agent = DdpgAgent::new(DdpgConfig::paper(3, 2, 2), seed);
            let mut out = Vec::new();
            for i in 0..10 {
                let s = vec![i as f64 / 10.0, 0.5, -0.5];
                out.extend(agent.act_explore(&s));
            }
            out
        };
        assert_eq!(mk(11), mk(11));
        assert_ne!(mk(11), mk(12));
    }

    #[test]
    fn trained_weights_match_the_golden_captured_before_the_kernel_change() {
        // Seeded, varied transitions at the paper's dimensions, then
        // 200 updates; FNV-1a over the exported weights' bits. Both
        // literals were captured at commit 2a2710d (debug and release
        // agree), before any kernel, backward or constructor change:
        // a failure means trained bits moved — do not re-pin.
        let weights_fnv = |agent: &DdpgAgent| {
            let (actor, critic) = agent.export_weights();
            let bytes: Vec<u8> = actor
                .iter()
                .chain(&critic)
                .flat_map(|w| w.to_bits().to_le_bytes())
                .collect();
            firm_wire::fnv64(&bytes)
        };
        let mut agent = DdpgAgent::new(DdpgConfig::paper(18, 8, 5), 7);
        assert_eq!(weights_fnv(&agent), 0xd4cf_2df3_8b79_11c3);
        let mut rng = Xoshiro256::new(23);
        for i in 0..300 {
            agent.observe(Transition {
                state: (0..18).map(|_| rng.uniform_range(-1.0, 1.0)).collect(),
                action: (0..5).map(|_| rng.uniform_range(-1.0, 1.0)).collect(),
                reward: rng.uniform_range(-2.0, 1.0),
                next_state: (0..18).map(|_| rng.uniform_range(-1.0, 1.0)).collect(),
                done: i % 17 == 0,
            });
        }
        for _ in 0..200 {
            assert!(agent.train_step(), "buffer holds a batch");
        }
        assert_eq!(weights_fnv(&agent), 0x66fe_ee2e_08a1_9e8f);
    }

    #[test]
    fn the_golden_also_holds_on_the_portable_kernel() {
        // The test above runs the dispatched kernel (AVX2 where the CPU
        // has it); this one pins the portable instantiation to the same
        // bits.
        let golden = trained_weights_match_the_golden_captured_before_the_kernel_change;
        crate::linalg::with_portable_kernel(golden);
    }
}
