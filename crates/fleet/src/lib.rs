//! Parallel multi-tenant fleet runtime for the FIRM reproduction.
//!
//! FIRM's headline claim (§4.3 of the paper) is that one *shared*
//! SVM + DDPG pipeline generalizes across microservice applications and
//! anomaly types. A single simulation can only ever show that pipeline
//! one tenant at a time; this crate makes scenario *diversity* and
//! scale-out *throughput* first-class instead:
//!
//! * [`scenario`] — a declarative [`Scenario`] type (benchmark, cluster
//!   size, arrival shape, anomaly campaign, controller) plus
//!   [`builtin_catalog`], twelve named scenarios spanning all four §4.1
//!   benchmarks, steady/diurnal/flash-crowd load, a recorded
//!   flash-crowd incident replayed under three controllers
//!   (`LoadShape::Replay`), the seven anomaly kinds, and all four
//!   controllers;
//! * [`catalog`] — scale-factor catalog generation: [`CatalogSpec`] +
//!   [`generate_catalog`], a seeded sampler over the same cross
//!   product whose single `scale_factor` knob jointly scales arrival
//!   rates, replica fan-out, cluster sizes, and tenant count, as a
//!   pure function of `(seed, scale_factor)`;
//! * [`exec`] — deterministic execution of one scenario from plain data
//!   and a derived seed, through the workspace's single
//!   [`firm_core::controller::run_episode`] driver;
//! * [`runner`] — [`FleetRunner`] runs the catalog on a supervised
//!   [`WorkerPool`] (in-process worker threads by default, subprocess
//!   or TCP workers when configured — one engine either way) and folds
//!   the results. [`FleetRunner::run_round_trip`] then freezes the
//!   trained agent and re-runs the catalog's FIRM scenarios in
//!   inference mode (the others cannot change, so their training rows
//!   stand), reporting per-scenario train-vs-deploy deltas (Fig. 11b at
//!   fleet scale);
//! * [`fold`] — the [`Fold`]: outcomes and streamed-home RL
//!   transitions pooled in catalog order, and one shared agent trained
//!   from scratch on the pooled, heterogeneous experience — the paper's
//!   one-for-all regime fed by many apps at once. The batch runner and
//!   the resident `firm-serve` coordinator both train through it. SVM
//!   ground-truth labels stay at the worker, counted into each outcome,
//!   since each FIRM scenario's extractor learns online inside its own
//!   episode;
//! * [`report`] — the aggregated [`FleetReport`] and the round-trip
//!   [`RoundTripReport`]: per-scenario SLO violation rates, p99
//!   latencies, mitigation times, train-vs-deploy deltas, and total
//!   requests served, with stable JSON rendering and an FNV digest;
//! * [`protocol`] — the transport-agnostic coordinator↔worker frame
//!   vocabulary: [`WorkerRequest`] down, and the [`WorkerMessage`]
//!   tagged union ([`WorkerHello`] handshake, [`WorkerHeartbeat`]
//!   liveness pulses, responses) back up;
//! * [`transport`] — how requests reach a worker: [`PipeTransport`]
//!   (spawned `firm-fleet-worker` subprocesses on this host) and
//!   [`TcpTransport`] (`firm-fleet-worker --listen addr` on any host),
//!   byte-identical frame streams either way, and [`LocalTransport`]
//!   (a worker thread in this process, handed the values themselves);
//! * [`supervisor`] — the [`WorkerPool`], the only way a scenario is
//!   ever run: idle-queue (JIQ-style) dispatch, per-request timeouts,
//!   dead-worker detection, and restart-and-replay that cannot move a
//!   report byte, for every worker kind. [`WorkerPool::run_catalog`] is
//!   the one catalog driver, shared by the batch runner's passes (a
//!   one-shot pool each; a deploy pass runs only the policy readers'
//!   catalog indices) and `firm-serve` (one pool across submissions);
//! * [`worker`] — the worker-side serve loop behind both modes of the
//!   `firm-fleet-worker` binary;
//! * [`ops`] — the [`OpsReport`]: runtime self-metrics (dispatch
//!   latency, heartbeat gaps, retries, bytes on the wire, per-stage
//!   timings) assembled from `firm_obs` registries and per-worker
//!   session-end snapshots, emitted *alongside* — never inside — the
//!   digest-covered [`FleetReport`].
//!
//! # Determinism
//!
//! Per-scenario seeds derive from `(fleet seed, catalog index)`,
//! workers share no mutable state, and all aggregation happens in
//! catalog order — so a fleet run's report bytes *and* its trained
//! shared-agent weights are bit-identical at any count of local slots,
//! subprocess or TCP workers, and across worker crashes, timeouts,
//! and restarts (a re-dispatched request is byte-identical to the
//! original; see [`supervisor`]).
//!
//! # Examples
//!
//! ```
//! use firm_fleet::{builtin_catalog, FleetConfig, FleetRunner};
//! use firm_sim::SimDuration;
//!
//! // Two scenarios, shortened for doctest speed.
//! let scenarios: Vec<_> = builtin_catalog()
//!     .into_iter()
//!     .take(2)
//!     .map(|s| s.with_duration(SimDuration::from_secs(6)))
//!     .collect();
//! let result = FleetRunner::new(FleetConfig {
//!     threads: 2,
//!     seed: 7,
//!     train_steps: 16,
//!     ..FleetConfig::default()
//! })
//! .run(&scenarios);
//! assert_eq!(result.report.scenarios.len(), 2);
//! assert!(result.report.totals.completions > 0);
//! ```

#![warn(missing_docs)]

pub mod catalog;
pub mod exec;
pub mod fold;
pub mod ops;
pub mod protocol;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod supervisor;
pub mod transport;
pub mod wire;
pub mod worker;

pub use catalog::{generate_catalog, CatalogSpec};
pub use exec::{run_one, run_one_sharded, run_one_with};
pub use fold::Fold;
pub use ops::{record_kernel_isa, OpsReport, WorkerOps};
pub use protocol::{
    WorkerHeartbeat, WorkerHello, WorkerMessage, WorkerRequest, WorkerResponse, PROTOCOL_VERSION,
};
pub use report::{FleetReport, FleetTotals, RoundTripReport, ScenarioDelta, ScenarioOutcome};
pub use runner::{scenario_seed, FleetConfig, FleetResult, FleetRunner, RoundTripResult};
pub use scenario::{builtin_catalog, FleetController, Scenario};
pub use supervisor::{JobDone, PoolJob, SupervisorConfig, WorkerPool};
pub use transport::{
    Connection, ConnectionControl, Link, LocalTransport, PipeTransport, TcpTransport, Transport,
};
