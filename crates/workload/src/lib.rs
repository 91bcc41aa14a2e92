//! Benchmark application topologies and load generators.
//!
//! The paper evaluates FIRM on four real-world microservice benchmarks
//! (§4.1): DeathStarBench's Social Network (36 services), Media Service
//! (38), and Hotel Reservation (15), plus the Train-Ticket booking system
//! (41). This crate builds equivalent [`firm_sim::spec::AppSpec`]
//! topologies — same service counts, the same workflow-pattern mix
//! (sequential, parallel, background, §3.2), and per-tier resource-demand
//! profiles spanning the same bottleneck classes (CPU-, memory-BW-, LLC-,
//! IO- and network-bound).
//!
//! It also provides the wrk2-style open-loop arrival processes of §4.1:
//! constant, diurnal, exponential (Poisson), and load with spikes.
//!
//! # Examples
//!
//! ```
//! use firm_workload::apps::Benchmark;
//!
//! let app = Benchmark::SocialNetwork.build();
//! assert_eq!(app.services.len(), 36);
//! app.validate().expect("valid topology");
//! ```

pub mod apps;
pub mod builder;
pub mod generator;
pub mod wire;

pub use apps::{fig2_compose_post, Benchmark};
pub use builder::{scale_replicas, AppBuilder, Tier};
pub use generator::{DiurnalArrivals, LoadShape, ReplayArrivals, ReplayTrace, SpikeArrivals};
