//! Dense feed-forward networks with manual backpropagation.
//!
//! The paper's actor and critic (Fig. 8) are small MLPs: two hidden
//! layers of 40 ReLU units, with Tanh on the actor output. [`Mlp`]
//! implements exactly that family: a stack of fully connected layers with
//! per-layer activations, batch forward/backward, and flat weight
//! import/export for target networks and transfer learning.

use crate::linalg::Matrix;
use firm_rng::Xoshiro256;
use std::ops::Range;

/// Element-wise activation function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// max(0, x).
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (linear output).
    Identity,
}

impl Activation {
    /// The activation of one pre-activation value — the one form both
    /// the batch kernel's epilogue and the single-sample path apply, so
    /// the two match bit for bit.
    fn apply_scalar(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed in terms of the *output* value.
    fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Identity => 1.0,
        }
    }
}

/// One fully connected layer: `y = act(x·Wᵀ + b)`.
#[derive(Debug, Clone)]
struct Linear {
    /// Weights, `out × in` — the canonical layout every export, import,
    /// optimizer and [`Mlp::forward_one`] sees.
    w: Matrix,
    /// `wᵀ` (`in × out`), the k-major operand of the batch forward
    /// kernel. Private scratch rebuilt from `w` at the top of every
    /// batch forward pass, so nothing that writes `w` has to know it
    /// exists.
    wt: Matrix,
    /// Bias, length `out`.
    b: Vec<f64>,
    /// Activation applied after the affine map.
    act: Activation,
    /// Accumulated weight gradients.
    grad_w: Matrix,
    /// Accumulated bias gradients.
    grad_b: Vec<f64>,
    /// Cached input of the last forward pass.
    input: Matrix,
    /// Cached output of the last forward pass.
    output: Matrix,
    /// Backward-pass scratch: `grad_out ⊙ act'(output)`.
    dz: Matrix,
}

impl Linear {
    fn new(fan_in: usize, fan_out: usize, act: Activation, rng: &mut Xoshiro256) -> Self {
        // Xavier-uniform initialization.
        let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
        let w = Matrix::from_fn(fan_out, fan_in, |_, _| rng.uniform_range(-limit, limit));
        Linear {
            grad_w: Matrix::zeros(fan_out, fan_in),
            grad_b: vec![0.0; fan_out],
            w,
            wt: Matrix::zeros(0, 0),
            b: vec![0.0; fan_out],
            act,
            input: Matrix::zeros(0, 0),
            output: Matrix::zeros(0, 0),
            dz: Matrix::zeros(0, 0),
        }
    }

    /// Forward pass into a caller-provided buffer: no allocation once
    /// the buffers (and the training caches) have warmed up.
    fn forward_into(&mut self, x: &Matrix, out: &mut Matrix, train: bool) {
        let Linear { w, wt, b, act, .. } = self;
        w.transpose_into(wt);
        x.matmul_map_into(wt, 0..b.len(), out, |j, z| act.apply_scalar(z + b[j]));
        if train {
            self.input.copy_from(x);
            self.output.copy_from(out);
        }
    }

    /// Backpropagates `grad_out` (n × out) through this layer, producing
    /// what [`Mlp::backward_into`]'s `params` and `gin` ask for and
    /// nothing else.
    fn backward_into(
        &mut self,
        grad_out: &Matrix,
        params: bool,
        gin: Option<(Range<usize>, &mut Matrix)>,
    ) {
        let Linear {
            w,
            act,
            grad_w,
            grad_b,
            input,
            output,
            dz,
            ..
        } = self;
        // dz = grad_out ⊙ act'(output) — one pass over the flat
        // buffers (same element order as the nested row/column loops,
        // so the products are unchanged bit for bit).
        dz.resize(grad_out.rows(), grad_out.cols());
        for ((d, &g), &y) in dz
            .data_mut()
            .iter_mut()
            .zip(grad_out.data())
            .zip(output.data())
        {
            *d = g * act.derivative_from_output(y);
        }
        // dW += dzᵀ · x; db += colsum(dz); dx = dz · W. The gradient
        // products accumulate straight into the gradient buffers — no
        // intermediate matrices.
        if params {
            dz.transpose_matmul_acc(input, grad_w);
            dz.col_sums_acc(grad_b);
        }
        if let Some((cols, gin)) = gin {
            dz.matmul_map_into(w, cols, gin, |_, sum| sum);
        }
    }

    fn zero_grads(&mut self) {
        self.grad_w.data_mut().iter_mut().for_each(|g| *g = 0.0);
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }
}

/// A multilayer perceptron.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    input_dim: usize,
    /// Ping-pong activation buffers for the batch passes; after warmup
    /// a forward/backward pair performs zero matrix allocations.
    ping: Matrix,
    pong: Matrix,
}

/// Widest layer [`Mlp::forward_one`] takes: the paper's networks (hidden
/// width 40, critic input 23) with headroom.
const FORWARD_ONE_STACK: usize = 64;

impl Mlp {
    /// Builds an MLP with the given layer `dims` (input first), `hidden`
    /// activation on all but the last layer, and `output` activation on
    /// the last.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given.
    pub fn new(dims: &[usize], hidden: Activation, output: Activation, seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let mut rng = Xoshiro256::new(seed);
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let act = if i + 2 == dims.len() { output } else { hidden };
            layers.push(Linear::new(dims[i], dims[i + 1], act, &mut rng));
        }
        Mlp {
            layers,
            input_dim: dims[0],
            ping: Matrix::zeros(0, 0),
            pong: Matrix::zeros(0, 0),
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Batch forward pass; caches intermediates when `train` so a
    /// following [`Mlp::backward`] can run.
    pub fn forward(&mut self, x: &Matrix, train: bool) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(x, &mut out, train);
        out
    }

    /// Batch forward pass into a caller-provided output buffer.
    /// Intermediate activations live in the network's own ping-pong
    /// scratch — after warmup the whole pass allocates nothing.
    pub fn forward_into(&mut self, x: &Matrix, out: &mut Matrix, train: bool) {
        let n = self.layers.len();
        if n == 1 {
            self.layers[0].forward_into(x, out, train);
            return;
        }
        let Mlp {
            layers, ping, pong, ..
        } = self;
        layers[0].forward_into(x, ping, train);
        for layer in layers.iter_mut().take(n - 1).skip(1) {
            layer.forward_into(ping, pong, train);
            std::mem::swap(ping, pong);
        }
        layers[n - 1].forward_into(ping, out, train);
    }

    /// Convenience single-sample forward (no caching).
    ///
    /// Activations live in two stack buffers; only the returned output
    /// vector is heap-allocated. The arithmetic (dot in `k` order, then
    /// bias, then activation) matches the batch path exactly.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `input_dim` wide, or if the input or any
    /// layer is wider than 64 (every DDPG network is at most 40).
    pub fn forward_one(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_dim, "forward_one input width mismatch");
        let widest = self
            .layers
            .iter()
            .map(|l| l.w.rows())
            .fold(x.len(), usize::max);
        assert!(
            widest <= FORWARD_ONE_STACK,
            "forward_one takes layers up to {FORWARD_ONE_STACK} wide, not {widest}"
        );
        let mut cur = [0.0f64; FORWARD_ONE_STACK];
        let mut next = [0.0f64; FORWARD_ONE_STACK];
        cur[..x.len()].copy_from_slice(x);
        let mut len = x.len();
        for layer in &self.layers {
            let nout = layer.w.rows();
            for (j, slot) in next.iter_mut().take(nout).enumerate() {
                let wrow = layer.w.row(j);
                let mut acc = 0.0;
                for (a, b) in cur[..len].iter().zip(wrow) {
                    acc += a * b;
                }
                *slot = layer.act.apply_scalar(acc + layer.b[j]);
            }
            std::mem::swap(&mut cur, &mut next);
            len = nout;
        }
        cur[..len].to_vec()
    }

    /// Backpropagates the loss gradient w.r.t. the network output,
    /// accumulating parameter gradients; returns the gradient w.r.t. the
    /// input.
    ///
    /// Must follow a `forward(..., train = true)` pass with a matching
    /// batch size.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut gin = Matrix::zeros(0, 0);
        self.backward_into(grad_out, true, Some((0..self.input_dim, &mut gin)));
        gin
    }

    /// [`Mlp::backward`] computing only what the caller will read
    /// (allocation-free after warmup):
    ///
    /// * `params` — accumulate the parameter gradients. Without it no
    ///   layer's `dW`/`db` is computed or touched (a pass that only
    ///   wants the input gradient, like DDPG's critic-for-the-actor,
    ///   has nothing to discard afterwards).
    /// * `gin = Some((cols, buf))` — write columns `cols` of the input
    ///   gradient into `buf` (n × `cols.len()`); `None` skips the first
    ///   layer's input-gradient product and leaves every caller buffer
    ///   alone.
    ///
    /// Whatever is produced is bit-identical to the same piece of the
    /// full pass `backward_into(g, true, Some((0..input_dim, buf)))`:
    /// the three products of a layer are independent of one another,
    /// and each input-gradient column is its own fold.
    pub fn backward_into(
        &mut self,
        grad_out: &Matrix,
        params: bool,
        gin: Option<(Range<usize>, &mut Matrix)>,
    ) {
        let Mlp {
            layers, ping, pong, ..
        } = self;
        let (last, mut gin) = (layers.len() - 1, gin);
        for (i, layer) in layers.iter_mut().enumerate().rev() {
            let grad = if i == last { grad_out } else { &*ping };
            // Inner layers always hand their full input gradient down.
            let down = Some((0..layer.w.cols(), &mut *pong));
            layer.backward_into(grad, params, if i == 0 { gin.take() } else { down });
            std::mem::swap(ping, pong);
        }
    }

    /// Zeroes accumulated parameter gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Visits `(param, grad)` pairs in a deterministic order.
    pub fn visit_params(&mut self, mut f: impl FnMut(&mut f64, f64)) {
        for layer in &mut self.layers {
            for (w, g) in layer.w.data_mut().iter_mut().zip(layer.grad_w.data()) {
                f(w, *g);
            }
            for (b, g) in layer.b.iter_mut().zip(&layer.grad_b) {
                f(b, *g);
            }
        }
    }

    /// Visits each contiguous `(params, grads)` buffer pair — every
    /// layer's weight matrix then its bias vector, covering exactly the
    /// parameters [`Mlp::visit_params`] visits, in the same order.
    /// Optimizers that keep flat per-parameter state (Adam's moments)
    /// walk these slices in lockstep instead of dispatching a closure
    /// per scalar, which lets their element-wise update loops
    /// autovectorize.
    pub fn visit_param_slices(&mut self, mut f: impl FnMut(&mut [f64], &[f64])) {
        for layer in &mut self.layers {
            f(layer.w.data_mut(), layer.grad_w.data());
            f(&mut layer.b, &layer.grad_b);
        }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.data().len() + l.b.len())
            .sum()
    }

    /// Exports all weights as a flat vector (deterministic order).
    pub fn get_weights(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            out.extend_from_slice(layer.w.data());
            out.extend_from_slice(&layer.b);
        }
        out
    }

    /// Imports weights exported by [`Mlp::get_weights`] from a network of
    /// identical shape.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn set_weights(&mut self, weights: &[f64]) {
        assert_eq!(weights.len(), self.param_count(), "weight count mismatch");
        let mut i = 0;
        for layer in &mut self.layers {
            let wlen = layer.w.data().len();
            layer.w.data_mut().copy_from_slice(&weights[i..i + wlen]);
            i += wlen;
            let blen = layer.b.len();
            layer.b.copy_from_slice(&weights[i..i + blen]);
            i += blen;
        }
    }

    /// Soft update: `self ← tau · source + (1 − tau) · self` (the target-
    /// network update of Algorithm 3, lines 14–15). Runs in place over
    /// the parameter buffers — the old export/blend/import round trip
    /// allocated two full weight vectors per call, twice per train step.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn soft_update_from(&mut self, source: &Mlp, tau: f64) {
        assert_eq!(source.param_count(), self.param_count(), "shape mismatch");
        for (dst, src) in self.layers.iter_mut().zip(&source.layers) {
            assert_eq!(dst.w.rows(), src.w.rows(), "shape mismatch");
            assert_eq!(dst.w.cols(), src.w.cols(), "shape mismatch");
            for (m, s) in dst.w.data_mut().iter_mut().zip(src.w.data()) {
                *m = tau * s + (1.0 - tau) * *m;
            }
            for (m, s) in dst.b.iter_mut().zip(&src.b) {
                *m = tau * s + (1.0 - tau) * *m;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mse_loss_grad(pred: &Matrix, target: &Matrix) -> (f64, Matrix) {
        let n = pred.rows() as f64;
        let mut grad = Matrix::zeros(pred.rows(), pred.cols());
        let mut loss = 0.0;
        for r in 0..pred.rows() {
            for c in 0..pred.cols() {
                let d = pred.get(r, c) - target.get(r, c);
                loss += d * d / n;
                grad.set(r, c, 2.0 * d / n);
            }
        }
        (loss, grad)
    }

    #[test]
    fn shapes_and_bounds() {
        let net = Mlp::new(&[8, 40, 40, 5], Activation::Relu, Activation::Tanh, 1);
        assert_eq!(net.input_dim(), 8);
        assert_eq!(net.param_count(), 8 * 40 + 40 + 40 * 40 + 40 + 40 * 5 + 5);
        let y = net.forward_one(&[0.3; 8]);
        assert!(y.iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    #[test]
    fn forward_one_matches_batch_forward() {
        let mut net = Mlp::new(&[4, 16, 3], Activation::Relu, Activation::Identity, 2);
        let x = [0.1, -0.2, 0.3, 0.9];
        let single = net.forward_one(&x);
        let batch = net.forward(&Matrix::row_from(&x), false);
        for (a, b) in single.iter().zip(batch.row(0)) {
            assert_eq!(a.to_bits(), b.to_bits(), "stack path diverged: {a} vs {b}");
        }
    }

    #[test]
    #[should_panic(expected = "forward_one takes layers up to 64 wide, not 100")]
    fn forward_one_rejects_layers_wider_than_its_stack() {
        let net = Mlp::new(&[4, 100, 3], Activation::Tanh, Activation::Identity, 12);
        net.forward_one(&[0.4, -0.9, 0.05, 0.3]);
    }

    #[test]
    fn into_passes_match_allocating_passes_and_reuse_buffers() {
        let make = || Mlp::new(&[3, 8, 8, 2], Activation::Relu, Activation::Identity, 21);
        let x = Matrix::from_fn(5, 3, |r, c| ((r * 3 + c) as f64).sin());
        let grad = Matrix::from_fn(5, 2, |r, c| ((r + c) as f64).cos() / 5.0);

        let mut a = make();
        a.zero_grads();
        let ya = a.forward(&x, true);
        let gina = a.backward(&grad);
        let mut grads_a = Vec::new();
        a.visit_params(|_, g| grads_a.push(g));

        let mut b = make();
        b.zero_grads();
        let mut yb = Matrix::zeros(17, 1); // wrong warmup shape on purpose
        let mut ginb = Matrix::zeros(1, 1);
        b.forward_into(&x, &mut yb, true);
        b.backward_into(&grad, true, Some((0..3, &mut ginb)));
        let mut grads_b = Vec::new();
        b.visit_params(|_, g| grads_b.push(g));

        assert_eq!(ya, yb);
        assert_eq!(gina, ginb);
        assert_eq!(grads_a.len(), grads_b.len());
        for (ga, gb) in grads_a.iter().zip(&grads_b) {
            assert_eq!(ga.to_bits(), gb.to_bits());
        }
    }

    #[test]
    fn selective_backward_is_the_matching_piece_of_the_full_pass() {
        // The critic's shape, ReLU hidden layers (so every `dz` is
        // masked), and the three requests DDPG makes — against the full
        // pass, bit for bit; what is not requested is not touched.
        let make = || Mlp::new(&[23, 40, 40, 1], Activation::Relu, Activation::Identity, 31);
        let x = Matrix::from_fn(64, 23, |r, c| ((r * 23 + c * 7) as f64).sin());
        let grad = Matrix::from_fn(64, 1, |r, _| ((r * 5) as f64).cos() / 64.0);
        let grads = |net: &mut Mlp| {
            let mut g = Vec::new();
            net.visit_params(|_, grad| g.push(grad.to_bits()));
            g
        };
        let run = |params: bool, cols: Option<std::ops::Range<usize>>| {
            let mut net = make();
            net.zero_grads();
            net.forward(&x, true);
            // A recognisable buffer: untouched means still this.
            let mut gin = Matrix::from_fn(2, 2, |_, _| 7.5);
            net.backward_into(&grad, params, cols.map(|c| (c, &mut gin)));
            (grads(&mut net), gin)
        };

        let (full_grads, full_gin) = run(true, Some(0..23));
        assert!(full_grads.iter().any(|&g| g != 0), "degenerate reference");
        let untouched = Matrix::from_fn(2, 2, |_, _| 7.5);
        let zero_grads = vec![0u64; full_grads.len()];

        let (g, gin) = run(true, None);
        assert_eq!(g, full_grads);
        assert_eq!(gin, untouched);

        let (g, gin) = run(false, Some(18..23));
        assert_eq!(g, zero_grads, "parameter gradients were touched");
        assert_eq!((gin.rows(), gin.cols()), (64, 5));
        for r in 0..64 {
            for c in 0..5 {
                assert_eq!(gin.get(r, c).to_bits(), full_gin.get(r, 18 + c).to_bits());
            }
        }

        let (g, gin) = run(false, Some(0..23));
        assert_eq!(g, zero_grads);
        assert_eq!(gin, full_gin);
    }

    #[test]
    fn gradient_check_against_numerical() {
        // Small net, tanh everywhere for smoothness.
        let mut net = Mlp::new(&[3, 5, 2], Activation::Tanh, Activation::Identity, 3);
        let x = Matrix::from_vec(4, 3, (0..12).map(|i| (i as f64) / 7.0 - 0.8).collect());
        let target = Matrix::from_vec(4, 2, (0..8).map(|i| ((i * 3) % 5) as f64 / 5.0).collect());

        // Analytical gradients.
        net.zero_grads();
        let pred = net.forward(&x, true);
        let (_, grad) = mse_loss_grad(&pred, &target);
        net.backward(&grad);
        let mut analytical = Vec::new();
        net.visit_params(|_, g| analytical.push(g));

        // Numerical gradients by central differences.
        let eps = 1e-6;
        let base = net.get_weights();
        for (i, &a) in analytical.iter().enumerate() {
            let mut wp = base.clone();
            wp[i] += eps;
            net.set_weights(&wp);
            let (lp, _) = mse_loss_grad(&net.forward(&x, false), &target);
            let mut wm = base.clone();
            wm[i] -= eps;
            net.set_weights(&wm);
            let (lm, _) = mse_loss_grad(&net.forward(&x, false), &target);
            let numerical = (lp - lm) / (2.0 * eps);
            assert!(
                (a - numerical).abs() < 1e-6,
                "param {i}: analytical {a} vs numerical {numerical}"
            );
        }
    }

    #[test]
    fn input_gradient_check() {
        let mut net = Mlp::new(&[3, 6, 1], Activation::Tanh, Activation::Identity, 4);
        let x = Matrix::row_from(&[0.2, -0.4, 0.7]);
        net.zero_grads();
        let pred = net.forward(&x, true);
        // Loss = output itself → grad_out = 1.
        let gin = net.backward(&Matrix::row_from(&[1.0]));

        let eps = 1e-6;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.set(0, i, xp.get(0, i) + eps);
            let fp = net.forward(&xp, false).get(0, 0);
            let mut xm = x.clone();
            xm.set(0, i, xm.get(0, i) - eps);
            let fm = net.forward(&xm, false).get(0, 0);
            let numerical = (fp - fm) / (2.0 * eps);
            assert!(
                (gin.get(0, i) - numerical).abs() < 1e-6,
                "input {i}: analytical {} vs numerical {numerical}",
                gin.get(0, i)
            );
        }
        let _ = pred;
    }

    #[test]
    fn sgd_learns_linear_map() {
        // y = 2x0 - x1; a linear net should fit it quickly.
        let mut net = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Identity, 5);
        let mut rng = Xoshiro256::new(6);
        let lr = 0.05;
        let mut last_loss = f64::MAX;
        for epoch in 0..400 {
            let xs: Vec<f64> = (0..32).map(|_| rng.uniform_range(-1.0, 1.0)).collect();
            let x = Matrix::from_vec(16, 2, xs);
            let target = Matrix::from_fn(16, 1, |r, _| 2.0 * x.get(r, 0) - x.get(r, 1));
            net.zero_grads();
            let pred = net.forward(&x, true);
            let (loss, grad) = mse_loss_grad(&pred, &target);
            net.backward(&grad);
            net.visit_params(|w, g| *w -= lr * g);
            if epoch == 399 {
                last_loss = loss;
            }
        }
        assert!(last_loss < 0.01, "final loss {last_loss}");
    }

    #[test]
    fn weight_roundtrip_and_soft_update() {
        let mut a = Mlp::new(&[3, 4, 2], Activation::Relu, Activation::Identity, 7);
        let b = Mlp::new(&[3, 4, 2], Activation::Relu, Activation::Identity, 8);
        let wa = a.get_weights();
        let wb = b.get_weights();
        assert_ne!(wa, wb);

        a.set_weights(&wb);
        assert_eq!(a.get_weights(), wb);

        // Full soft update (tau = 1) copies the source.
        a.set_weights(&wa);
        a.soft_update_from(&b, 1.0);
        assert_eq!(a.get_weights(), wb);

        // Partial update interpolates.
        a.set_weights(&wa);
        a.soft_update_from(&b, 0.25);
        for ((w, s), t) in a.get_weights().iter().zip(&wa).zip(&wb) {
            assert!((w - (0.25 * t + 0.75 * s)).abs() < 1e-12);
        }
    }

    #[test]
    fn relu_blocks_negative_gradients() {
        let mut net = Mlp::new(&[1, 1], Activation::Relu, Activation::Relu, 9);
        // Force a negative pre-activation.
        net.set_weights(&[1.0, -5.0]);
        let x = Matrix::row_from(&[1.0]);
        net.zero_grads();
        let y = net.forward(&x, true);
        assert_eq!(y.get(0, 0), 0.0);
        let gin = net.backward(&Matrix::row_from(&[1.0]));
        assert_eq!(gin.get(0, 0), 0.0);
    }
}
