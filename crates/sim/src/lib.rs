//! Deterministic discrete-event cluster and microservice simulator.
//!
//! This crate is the substrate of the FIRM reproduction (Qiu et al.,
//! OSDI 2020). The paper evaluates FIRM on a 15-node Kubernetes cluster;
//! this crate substitutes a laptop-scale, fully deterministic simulator
//! that exposes the same observation and action surface the real cluster
//! offered to FIRM:
//!
//! * **Observations** — distributed-tracing spans for every request
//!   ([`SpanRecord`]), and per-instance telemetry (resource
//!   utilization, queue lengths, drop counts, synthetic performance
//!   counters).
//! * **Actions** — fine-grained resource partitioning (CPU quota, memory
//!   bandwidth, LLC capacity, disk I/O bandwidth, network bandwidth —
//!   the cgroups/CAT/MBA/HTB equivalents of §3.5 of the paper), and
//!   scale-out/in of replicas, all with the actuation latencies reported
//!   in Table 6.
//!
//! The simulator models an application as a service graph with
//! sequential/parallel/background workflows (§3.2 of the paper), executes
//! requests through bounded worker queues on containers placed on nodes,
//! and derives service times from a bottleneck contention model over the
//! shared node resources. Performance anomalies (§3.6) are first-class:
//! they consume node resources or inflate network delay, which is exactly
//! the observable effect of the paper's iBench/pmbw/tc/sysbench injectors.
//!
//! # Examples
//!
//! ```
//! use firm_sim::{
//!     spec::{AppSpec, ClusterSpec},
//!     ArrivalProcess,
//!     ConstantArrivals,
//!     SimDuration,
//!     Simulation,
//! };
//!
//! // A trivial one-service app on a two-node cluster, driven at 100 req/s.
//! let app = AppSpec::single_service_demo();
//! let cluster = ClusterSpec::small(2);
//! let arrivals: Box<dyn ArrivalProcess> = Box::new(ConstantArrivals::new(100.0));
//! let mut sim = Simulation::builder(cluster, app, 42)
//!     .arrivals(arrivals)
//!     .build();
//! sim.run_for(SimDuration::from_secs(5));
//! let done = sim.drain_completed();
//! assert!(!done.is_empty());
//! ```

pub mod actuator;
pub mod anomaly;
pub mod arrival;
pub mod contention;
pub mod engine;
pub mod ids;
pub mod instance;
pub mod node;
pub mod resources;
pub mod rng;
pub mod span;
pub mod spec;
pub mod stats;
pub mod telemetry_probe;
pub mod time;
pub mod wire;

pub use actuator::{ActuationLatency, Command};
pub use anomaly::{AnomalyKind, AnomalySpec};
pub use arrival::{ArrivalProcess, ConstantArrivals, PoissonArrivals};
pub use engine::{ArrivalRecord, RunStats, Simulation, SimulationBuilder};
pub use ids::{AnomalyId, InstanceId, NodeId, RequestTypeId, ServiceId, SpanId, TraceId};
pub use resources::{ResourceKind, ResourceVec, RESOURCE_KINDS};
pub use rng::SimRng;
pub use span::{CallRecord, CompletedRequest, SpanRecord};
pub use stats::{Histogram, Welford};
pub use time::{SimDuration, SimTime};
