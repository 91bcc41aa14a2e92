//! Gradient-descent optimizers.

use crate::nn::Mlp;

/// An optimizer that applies accumulated gradients to an [`Mlp`].
pub trait Optimizer {
    /// Applies one update step from the network's accumulated gradients,
    /// then zeroes them.
    fn step(&mut self, net: &mut Mlp);
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f64,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f64) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, net: &mut Mlp) {
        let lr = self.lr;
        net.visit_params(|w, g| *w -= lr * g);
        net.zero_grads();
    }
}

/// Adam (Kingma & Ba) with bias correction; the de-facto optimizer for
/// DDPG and what PyTorch defaults to in the paper's implementation.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimizer with standard betas (0.9, 0.999).
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, net: &mut Mlp) {
        let n = net.param_count();
        if self.m.len() != n {
            self.m = vec![0.0; n];
            self.v = vec![0.0; n];
            self.t = 0;
        }
        self.t += 1;
        let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        // Walk whole parameter buffers in lockstep with the flat moment
        // vectors: each parameter's update is independent (no
        // cross-parameter accumulation), so this slice loop is
        // bit-identical to the per-scalar closure form while letting
        // the divides and sqrts vectorize.
        let mut offset = 0;
        let (ms, vs) = (&mut self.m, &mut self.v);
        net.visit_param_slices(|ws, gs| {
            let end = offset + ws.len();
            let (ms, vs) = (&mut ms[offset..end], &mut vs[offset..end]);
            offset = end;
            for (((w, &g), m), v) in ws.iter_mut().zip(gs).zip(ms).zip(vs) {
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *w -= lr * mhat / (vhat.sqrt() + eps);
            }
        });
        net.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Matrix;
    use crate::nn::Activation;
    use firm_rng::Xoshiro256;

    fn train(optimizer: &mut dyn Optimizer, seed: u64) -> f64 {
        // Fit y = x0 * x1 on [-1, 1]²: needs the hidden layer.
        let mut net = Mlp::new(&[2, 16, 1], Activation::Tanh, Activation::Identity, seed);
        let mut rng = Xoshiro256::new(seed + 100);
        let mut final_loss = f64::MAX;
        for epoch in 0..600 {
            let xs: Vec<f64> = (0..64).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
            let x = Matrix::from_vec(32, 2, xs);
            let target = Matrix::from_fn(32, 1, |r, _| x.get(r, 0) * x.get(r, 1));
            net.zero_grads();
            let pred = net.forward(&x, true);
            let nrows = pred.rows() as f64;
            let mut grad = Matrix::zeros(32, 1);
            let mut loss = 0.0;
            for r in 0..32 {
                let d = pred.get(r, 0) - target.get(r, 0);
                loss += d * d / nrows;
                grad.set(r, 0, 2.0 * d / nrows);
            }
            net.backward(&grad);
            optimizer.step(&mut net);
            if epoch >= 595 {
                final_loss = final_loss.min(loss);
            }
        }
        final_loss
    }

    #[test]
    fn sgd_converges() {
        let mut opt = Sgd::new(0.05);
        let loss = train(&mut opt, 1);
        assert!(loss < 0.02, "loss {loss}");
    }

    #[test]
    fn adam_converges_faster_than_sgd_here() {
        let mut adam = Adam::new(0.01);
        let adam_loss = train(&mut adam, 2);
        assert!(adam_loss < 0.01, "adam loss {adam_loss}");
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut net = Mlp::new(&[2, 2], Activation::Identity, Activation::Identity, 3);
        let x = Matrix::row_from(&[1.0, 1.0]);
        net.forward(&x, true);
        net.backward(&Matrix::row_from(&[1.0, 1.0]));
        let mut opt = Sgd::new(0.1);
        opt.step(&mut net);
        let mut grads = Vec::new();
        net.visit_params(|_, g| grads.push(g));
        assert!(grads.iter().all(|g| *g == 0.0));
    }
}
