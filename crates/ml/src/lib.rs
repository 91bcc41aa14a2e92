//! From-scratch ML substrate for the FIRM reproduction.
//!
//! The paper implements its two ML models with PyTorch and scikit-learn:
//!
//! * a **DDPG actor-critic RL agent** (§3.4, Algorithm 3, Table 4) that
//!   maps microservice state to resource-reprovisioning actions, and
//! * an **incremental SVM** with an RBF kernel approximation (§3.3,
//!   Algorithm 2) that classifies critical-path instances as culprits.
//!
//! This crate reimplements both in pure Rust: dense feed-forward networks
//! with manual backpropagation ([`nn`]), SGD/Adam optimizers ([`optim`]),
//! the full DDPG loop with replay buffer, Ornstein-Uhlenbeck exploration
//! and soft target updates ([`ddpg`]), and an incremental SVM as SGD
//! hinge-loss on random Fourier features ([`svm`]) — the same
//! construction scikit-learn's `RBFSampler` + `SGDClassifier` uses, which
//! is what the paper cites. [`metrics`] provides ROC/AUC and accuracy for
//! the Fig. 9 evaluation, and transfer learning (§3.4) is weight cloning
//! via [`ddpg::DdpgAgent::clone_weights_from`].
//!
//! # Examples
//!
//! ```
//! use firm_ml::nn::{Activation, Mlp};
//!
//! // The paper's actor network: 8 inputs → 40 → 40 → 5 outputs (Fig. 8).
//! let actor = Mlp::new(&[8, 40, 40, 5], Activation::Relu, Activation::Tanh, 1);
//! let out = actor.forward_one(&[0.5; 8]);
//! assert_eq!(out.len(), 5);
//! assert!(out.iter().all(|v| (-1.0..=1.0).contains(v)));
//! ```

pub mod ddpg;
pub mod linalg;
pub mod metrics;
pub mod nn;
pub mod optim;
pub mod svm;
pub mod wire;

pub use ddpg::{DdpgAgent, DdpgConfig, Transition};
pub use linalg::Matrix;
pub use metrics::{accuracy, auc, roc_curve};
pub use nn::{Activation, Mlp};
pub use optim::{Adam, Optimizer, Sgd};
pub use svm::IncrementalSvm;
