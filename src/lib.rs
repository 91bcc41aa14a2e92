//! # firm — a reproduction of FIRM (OSDI 2020) in Rust
//!
//! FIRM (Qiu, Banerjee, Jha, Kalbarczyk, Iyer — *FIRM: An Intelligent
//! Fine-Grained Resource Management Framework for SLO-Oriented
//! Microservices*, OSDI 2020) manages shared resources across
//! microservices with a two-level ML pipeline: an incremental SVM
//! localizes the instances responsible for SLO violations from
//! critical-path features, and a DDPG reinforcement-learning agent maps
//! each culprit's state to fine-grained reprovisioning actions (CPU
//! quota, memory bandwidth, LLC capacity, disk and network bandwidth,
//! scale-out).
//!
//! This crate is the facade over the workspace:
//!
//! * [`sim`] — deterministic discrete-event cluster/microservice
//!   simulator (the Kubernetes-cluster substitute), which also exports
//!   the Table 2 telemetry as `telemetry_probe::TelemetryWindow`;
//! * [`trace`] — spans, execution history graphs, Algorithm 1
//!   critical-path extraction, and the `TracingCoordinator` that
//!   ingests traces and stores their critical paths;
//! * [`ml`] — from-scratch MLP/DDPG/SVM substrate;
//! * [`workload`] — the four benchmark topologies and load shapes;
//! * [`core`] — FIRM itself: extractor, RL estimator, deployment
//!   module, anomaly injector, baselines, online training, and the
//!   unified `Controller` trait + `run_episode` driver that every
//!   harness runs on;
//! * [`obs`] — zero-dependency runtime observability: leveled
//!   structured events in a bounded ring buffer (`FIRM_LOG`-filterable,
//!   exportable as firm-wire JSONL) and an atomic metrics registry
//!   (counters, gauges, log2 histograms) — out-of-band by construction,
//!   so it can never move a fleet digest;
//! * [`wire`] — the symmetric wire codec: a `JsonValue` document
//!   model, a hand-rolled JSON parser with spanned errors, and
//!   `WireEncode`/`WireDecode` traits with a `decode(encode(x)) == x`
//!   contract for everything that crosses a process boundary;
//! * [`fleet`] — the parallel multi-tenant fleet runtime: a scenario
//!   catalog over all four benchmarks (including replayed incidents),
//!   a `FleetRunner` sharded over OS threads *or* `firm-fleet-worker`
//!   subprocesses with bit-identical results either way, cross-
//!   simulation experience aggregation into one shared agent (§4.3
//!   one-for-all), and round-trip deployment of the frozen agent into
//!   the FIRM scenarios with train-vs-deploy deltas;
//! * [`serve`] — the resident fleet service: a `firm-fleet serve`
//!   coordinator that keeps the supervised worker pool alive across
//!   scenario submissions from many concurrent clients, streams
//!   per-scenario outcomes as they complete, and trains the shared
//!   agent on the growing experience pool, when it is read, with seeded
//!   uniform replay — all of it
//!   bit-identical to the equivalent batch runs;
//! * [`chaos`] — deterministic fault injection: seeded `FaultPlan`s
//!   (crash, drop, truncation, corruption, blackhole, stall, heartbeat
//!   suppression, client disconnect) delivered through a
//!   `ChaosTransport` wrapper, so the fleet's recovery machinery is
//!   exercised under a reproducible adversary and checked for
//!   bit-identical output.
//!
//! # Examples
//!
//! ```
//! use firm::core::controller::{run_episode, EpisodeSpec};
//! use firm::core::manager::{FirmConfig, FirmManager};
//! use firm::sim::{spec::ClusterSpec, SimDuration, Simulation};
//! use firm::workload::apps::Benchmark;
//!
//! let app = Benchmark::HotelReservation.build();
//! let mut sim = Simulation::builder(ClusterSpec::small(4), app, 7).build();
//! let mut manager = FirmManager::new(FirmConfig::default());
//! let spec = EpisodeSpec {
//!     duration: SimDuration::from_secs(3),
//!     control_interval: SimDuration::from_secs(1),
//!     warmup: SimDuration::ZERO,
//! };
//! let result = run_episode(&mut sim, &mut manager, None, &spec);
//! assert_eq!(result.ticks, 3);
//! assert_eq!(manager.stats().ticks, 3);
//! ```

pub use firm_chaos as chaos;
pub use firm_core as core;
pub use firm_fleet as fleet;
pub use firm_ml as ml;
pub use firm_obs as obs;
pub use firm_serve as serve;
pub use firm_sim as sim;
pub use firm_trace as trace;
pub use firm_wire as wire;
pub use firm_workload as workload;
