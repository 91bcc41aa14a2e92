//! Incremental SVM with RBF kernel approximation — §3.3 of the paper.
//!
//! The paper's critical-component classifier is "an incremental SVM
//! classifier implemented using stochastic gradient descent optimization
//! and RBF kernel approximation by scikit-learn" — i.e. `RBFSampler`
//! (random Fourier features, Rahimi & Recht) feeding an `SGDClassifier`
//! with hinge loss. [`IncrementalSvm`] is that exact construction:
//!
//! * [`RandomFourierFeatures`] maps an input `x ∈ ℝᵈ` to
//!   `φ(x) = √(2/D)·cos(Wx + b)` with `W ~ N(0, 2γ)` and `b ~ U[0, 2π)`,
//!   so that `φ(x)·φ(y) ≈ exp(−γ‖x−y‖²)`;
//! * a linear model over `φ` is trained online with the regularized
//!   hinge-loss SGD update, one example at a time (`partial_fit`).

use firm_rng::Xoshiro256;

/// Random Fourier feature map approximating an RBF kernel.
#[derive(Debug, Clone)]
pub struct RandomFourierFeatures {
    /// Projection matrix, `features × input_dim`, row-major.
    w: Vec<f64>,
    /// Phase offsets, length `features`.
    b: Vec<f64>,
    input_dim: usize,
    features: usize,
}

impl RandomFourierFeatures {
    /// Creates a map with `features` components approximating
    /// `exp(−gamma·‖x−y‖²)`.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` or `features` is zero, or `gamma <= 0`.
    pub fn new(input_dim: usize, features: usize, gamma: f64, seed: u64) -> Self {
        assert!(input_dim > 0 && features > 0, "dimensions must be positive");
        assert!(gamma > 0.0, "gamma must be positive");
        let mut rng = Xoshiro256::new(seed);
        let scale = (2.0 * gamma).sqrt();
        let w = (0..features * input_dim)
            .map(|_| rng.standard_normal() * scale)
            .collect();
        let b = (0..features)
            .map(|_| rng.uniform_range(0.0, 2.0 * core::f64::consts::PI))
            .collect();
        RandomFourierFeatures {
            w,
            b,
            input_dim,
            features,
        }
    }

    /// Output dimension.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Maps an input vector into feature space.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != input_dim`.
    pub fn map(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        let norm = (2.0 / self.features as f64).sqrt();
        (0..self.features)
            .map(|f| {
                let row = &self.w[f * self.input_dim..(f + 1) * self.input_dim];
                let z: f64 = row.iter().zip(x).map(|(w, xi)| w * xi).sum();
                norm * (z + self.b[f]).cos()
            })
            .collect()
    }
}

/// Online linear SVM over random Fourier features.
#[derive(Debug, Clone)]
pub struct IncrementalSvm {
    rff: RandomFourierFeatures,
    weights: Vec<f64>,
    bias: f64,
    lr: f64,
    lambda: f64,
    /// Update-step multiplier for positive examples, countering class
    /// imbalance (scikit-learn's `class_weight`); 1.0 = balanced data.
    pos_weight: f64,
    seen: u64,
}

impl IncrementalSvm {
    /// Creates an untrained classifier.
    ///
    /// `gamma` is the RBF width; `features` the approximation rank
    /// (scikit-learn defaults to 100); `lr` the SGD step size; `lambda`
    /// the L2 regularization strength.
    pub fn new(
        input_dim: usize,
        features: usize,
        gamma: f64,
        lr: f64,
        lambda: f64,
        seed: u64,
    ) -> Self {
        let rff = RandomFourierFeatures::new(input_dim, features, gamma, seed);
        IncrementalSvm {
            weights: vec![0.0; rff.features()],
            rff,
            bias: 0.0,
            lr,
            lambda,
            pos_weight: 1.0,
            seen: 0,
        }
    }

    /// A sensible default for FIRM's 2-feature `(RI, CI)` inputs: culprit
    /// labels are rare (one stressed container among dozens on critical
    /// paths), so positives are up-weighted.
    pub fn firm_default(seed: u64) -> Self {
        let mut svm = IncrementalSvm::new(2, 100, 1.0, 0.05, 1e-4, seed);
        svm.pos_weight = 8.0;
        svm
    }

    /// Examples seen so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The decision value `f(x) = w·φ(x) + b` (positive ⇒ class `true`).
    pub fn decision(&self, x: &[f64]) -> f64 {
        let phi = self.rff.map(x);
        let dot: f64 = self.weights.iter().zip(&phi).map(|(w, p)| w * p).sum();
        dot + self.bias
    }

    /// Binary prediction.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.decision(x) > 0.0
    }

    /// One SGD step on a single labelled example (regularized hinge
    /// loss); this is the *incremental* training of §3.3 — labels arrive
    /// online from the anomaly injector's ground truth.
    pub fn partial_fit(&mut self, x: &[f64], label: bool) {
        let y = if label { 1.0 } else { -1.0 };
        let step = self.lr * if label { self.pos_weight } else { 1.0 };
        let phi = self.rff.map(x);
        let f: f64 = self
            .weights
            .iter()
            .zip(&phi)
            .map(|(w, p)| w * p)
            .sum::<f64>()
            + self.bias;
        // Regularization shrink.
        let shrink = 1.0 - self.lr * self.lambda;
        for w in &mut self.weights {
            *w *= shrink;
        }
        // Hinge subgradient.
        if y * f < 1.0 {
            for (w, p) in self.weights.iter_mut().zip(&phi) {
                *w += step * y * p;
            }
            self.bias += step * y;
        }
        self.seen += 1;
    }

    /// Fits a batch by shuffled passes over the data.
    pub fn fit_epochs(
        &mut self,
        xs: &[Vec<f64>],
        labels: &[bool],
        epochs: usize,
        rng: &mut Xoshiro256,
    ) {
        assert_eq!(xs.len(), labels.len(), "example/label length mismatch");
        let mut order: Vec<usize> = (0..xs.len()).collect();
        for _ in 0..epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                self.partial_fit(&xs[i], labels[i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rff_approximates_rbf_kernel() {
        let gamma = 0.5;
        let rff = RandomFourierFeatures::new(3, 2_000, gamma, 1);
        let pairs = [
            (vec![0.0, 0.0, 0.0], vec![0.0, 0.0, 0.0]),
            (vec![0.2, -0.1, 0.4], vec![0.1, 0.0, 0.3]),
            (vec![1.0, 1.0, 1.0], vec![-1.0, 0.5, 0.0]),
        ];
        for (x, y) in &pairs {
            let phix = rff.map(x);
            let phiy = rff.map(y);
            let approx: f64 = phix.iter().zip(&phiy).map(|(a, b)| a * b).sum();
            let d2: f64 = x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum();
            let exact = (-gamma * d2).exp();
            assert!(
                (approx - exact).abs() < 0.06,
                "approx {approx} vs exact {exact}"
            );
        }
    }

    /// Concentric data: inner disk is positive, outer ring negative — a
    /// linear SVM cannot separate this; the RBF approximation must.
    fn ring_data(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut rng = Xoshiro256::new(seed);
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let positive = i % 2 == 0;
            let r = if positive {
                rng.uniform_range(0.0, 0.8)
            } else {
                rng.uniform_range(1.4, 2.2)
            };
            let theta = rng.uniform_range(0.0, core::f64::consts::TAU);
            xs.push(vec![r * theta.cos(), r * theta.sin()]);
            labels.push(positive);
        }
        (xs, labels)
    }

    #[test]
    fn separates_nonlinear_rings() {
        let (xs, labels) = ring_data(600, 2);
        let mut svm = IncrementalSvm::new(2, 200, 1.0, 0.05, 1e-4, 3);
        let mut rng = Xoshiro256::new(4);
        svm.fit_epochs(&xs, &labels, 10, &mut rng);

        let (test_xs, test_labels) = ring_data(400, 5);
        let correct = test_xs
            .iter()
            .zip(&test_labels)
            .filter(|(x, &y)| svm.predict(x) == y)
            .count();
        let acc = correct as f64 / test_xs.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn incremental_learning_improves_online() {
        let (xs, labels) = ring_data(2_000, 6);
        let mut svm = IncrementalSvm::new(2, 200, 1.0, 0.05, 1e-4, 7);
        // Predict-then-train accuracy over the cold start (first 20
        // examples) and the tail of the online stream.
        let mut first = 0usize;
        let mut last = 0usize;
        let head = 20;
        let q = xs.len() / 4;
        for (i, (x, &y)) in xs.iter().zip(&labels).enumerate() {
            let pred = svm.predict(x);
            if i < head && pred == y {
                first += 1;
            }
            if i >= xs.len() - q && pred == y {
                last += 1;
            }
            svm.partial_fit(x, y);
        }
        let first_acc = first as f64 / head as f64;
        let last_acc = last as f64 / q as f64;
        assert!(last_acc > 0.95, "tail accuracy {last_acc}");
        assert!(
            last_acc > first_acc + 0.1,
            "first {first_acc} last {last_acc}"
        );
        assert_eq!(svm.seen(), 2_000);
    }

    #[test]
    fn untrained_decision_is_zero() {
        let svm = IncrementalSvm::firm_default(1);
        assert_eq!(svm.decision(&[0.5, 3.0]), 0.0);
        assert!(!svm.predict(&[0.5, 3.0]));
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn dimension_checked() {
        let svm = IncrementalSvm::firm_default(1);
        svm.decision(&[1.0, 2.0, 3.0]);
    }
}
