//! Distributed-tracing substrate for the FIRM reproduction.
//!
//! The paper's Tracing Coordinator (§3.1) collects OpenTracing spans from
//! per-instance agents, assembles them into *execution history graphs*,
//! extracts their critical paths as they arrive, and stores them in a
//! graph database (Neo4j) for critical-path and critical-component
//! queries. This crate provides the same pipeline over the simulator's
//! [`firm_sim::SpanRecord`]s:
//!
//! * [`graph::ExecutionHistoryGraph`] — the space-time DAG of one request
//!   (Definition 2.2), with workflow classification (sequential /
//!   parallel / background, §3.2).
//! * [`mod@critical_path`] — Algorithm 1: weighted longest-path extraction
//!   with `lastReturnedChild` and happens-before recursion.
//! * [`coordinator::TracingCoordinator`] — ingestion, query front-end
//!   and store in one: a bounded in-memory store standing in for the
//!   paper's Neo4j instance. It keeps each trace's critical path
//!   ([`coordinator::StoredTrace`]), not its graph: the Extractor
//!   (§3.2) reads only critical paths and latencies, so a trace's spans
//!   live until Algorithm 1 has run.
//!
//! # Examples
//!
//! ```
//! use firm_sim::{
//!     spec::{AppSpec, ClusterSpec},
//!     SimDuration,
//!     Simulation,
//! };
//! use firm_trace::coordinator::TracingCoordinator;
//!
//! let mut sim = Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), 7)
//!     .build();
//! let mut coordinator = TracingCoordinator::new(10_000);
//! sim.run_for(SimDuration::from_secs(1));
//! coordinator.ingest(sim.drain_completed());
//! let cps = coordinator.critical_paths_since(firm_sim::SimTime::ZERO);
//! assert!(!cps.is_empty());
//! ```

pub mod coordinator;
pub mod critical_path;
pub mod graph;

pub use coordinator::{StoredTrace, TracingCoordinator};
pub use critical_path::{critical_path, CriticalPath, PathEntry};
pub use graph::{ExecutionHistoryGraph, SiblingRelation};
