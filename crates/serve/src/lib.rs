//! Resident fleet service for the FIRM reproduction: a long-running
//! coordinator that accepts scenario submissions from many concurrent
//! clients and keeps one shared agent learning across all of them.
//!
//! The batch [`firm_fleet::FleetRunner`] answers "run this catalog
//! once"; this crate answers "keep the fleet up": a `firm-fleet serve`
//! process owns a supervised [`firm_fleet::WorkerPool`] (idle-queue
//! dispatch, timeouts, crash restart-and-replay — the exact machinery
//! batch runs use) and serves submissions over the firm-wire frame
//! protocol, streaming each scenario's outcome back the moment it
//! completes.
//!
//! * [`protocol`] — the client↔coordinator frame vocabulary
//!   ([`ClientRequest`] in, [`ServerMessage`] out), sharing
//!   [`firm_fleet::PROTOCOL_VERSION`] so version skew fails loudly at
//!   either boundary;
//! * [`service`] — [`FleetService`], the transport-free core: admit,
//!   schedule, stream, fold, train the resident policy on read;
//! * [`server`] — [`FleetServer`], the TCP accept loop
//!   (thread-per-connection, disconnect-safe);
//! * [`client`] — [`ServeClient`], the submitting side, wrapped by the
//!   `firm-fleet-client` binary.
//!
//! # One-for-all learning, still deterministic
//!
//! Every submission runs training-mode; the pooled experience
//! accumulates across submissions (RL transitions in full, SVM examples
//! as a count, since nothing on the serve path trains an extractor).
//! A submission only folds and marks the resident policy stale. The
//! shared agent is trained from scratch on the whole pool when a
//! cumulative report reads it, and cached until the next fold, with
//! seeded uniform experience replay
//! ([`firm_core::training::replay_experience`]).
//! No wall-clock value ever enters: the resident policy is a pure
//! function of what was submitted, in which completion order, under
//! which seeds. Submitting a catalog in sequential slices (one seed,
//! continuous base indices) therefore reproduces the single batch
//! run's report bytes, pooled experience, and policy weights exactly.

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod service;

pub use client::{BackoffPolicy, ClientError, ServeClient};
pub use protocol::{
    ClientRequest, ServerMessage, SubmissionReport, SubmitRequest, PROTOCOL_VERSION,
};
pub use server::FleetServer;
pub use service::{FleetService, Rejection, ServiceLimits};
