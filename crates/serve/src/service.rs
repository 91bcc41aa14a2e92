//! The resident fleet service: one supervised [`WorkerPool`] shared by
//! every submission, plus the cumulative one-for-all learning state.
//!
//! [`FleetService`] is transport-free — the TCP front end lives in
//! [`crate::server`]; tests (and embedders) drive submissions directly.
//! Any number of threads may run submissions concurrently: their jobs
//! interleave freely on the pool (idle-queue dispatch, one outstanding
//! job per worker), while the learning state folds under one lock in
//! submission-completion order.
//!
//! # Determinism across submissions
//!
//! Scenario outcomes are pure functions of `(scenario, seed, policy)`,
//! and every submission runs training-mode (`policy: None`) — the
//! resident policy is a *product* of the service, never an input to
//! execution, so concurrent submissions cannot observe each other. A
//! submission only folds its results into the experience pool and marks
//! the resident policy stale; nothing on the submission path trains.
//! The shared agent is trained **from scratch** on the whole pool (the
//! same [`firm_fleet::Fold`] the batch runner trains through) when a
//! cumulative report reads it — [`FleetService::drain`], behind a
//! client's `drain` and `shutdown` requests — and cached until the next
//! fold. The resident state is a pure function of *what was submitted
//! in which completion order*, not of when — so submitting a catalog in
//! sequential slices (one seed, continuous base indices) leaves report
//! bytes, pooled experience, and policy weights bit-identical to the
//! single batch [`firm_fleet::FleetRunner`] run.
//!
//! The pool keeps only what serving reads: the outcomes and the RL
//! transitions. A worker counts SVM examples into each outcome and
//! drops them, so `pooled_svm` sums the folded outcomes' counts.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use firm_core::controller::PolicyCheckpoint;
use firm_fleet::report::{FleetReport, ScenarioOutcome};
use firm_fleet::scenario::Scenario;
use firm_fleet::supervisor::WorkerPool;
use firm_fleet::transport::Transport;
use firm_fleet::{FleetConfig, Fold, WorkerOps};
use firm_obs::{Counter, Gauge, Histogram, Level};
use firm_sim::SimDuration;

use crate::protocol::SubmissionReport;

/// Event target for everything the service emits.
const TARGET: &str = "firm-serve";

/// Why the service refused a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// The operator-readable explanation (becomes the error frame's
    /// message).
    pub message: String,
    /// `true` when the refusal is transient (backpressure, shutdown
    /// drain) and the same submission may be retried with backoff;
    /// `false` when retrying can never help (e.g. an empty catalog).
    pub retryable: bool,
}

impl Rejection {
    fn permanent(message: impl Into<String>) -> Rejection {
        Rejection {
            message: message.into(),
            retryable: false,
        }
    }

    fn transient(message: impl Into<String>) -> Rejection {
        Rejection {
            message: message.into(),
            retryable: true,
        }
    }
}

/// Admission limits for a resident service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceLimits {
    /// The backpressure bound: the most scenarios that may be admitted
    /// but not yet folded, across all concurrent submissions. A
    /// submission that would push the pending count past this is
    /// refused with a *retryable* rejection instead of growing the
    /// pool's queue without bound. `0` disables the bound.
    pub max_pending_scenarios: usize,
}

impl Default for ServiceLimits {
    fn default() -> ServiceLimits {
        ServiceLimits {
            // Roomy enough that no sane catalog ever notices, small
            // enough that a runaway submitter cannot queue unbounded
            // work (and memory) behind a slow pool.
            max_pending_scenarios: 1024,
        }
    }
}

/// The serve-side metrics, resolved once per service.
struct ServeMetrics {
    submissions_total: Arc<Counter>,
    scenarios_submitted: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    /// Submissions refused because they would exceed
    /// [`ServiceLimits::max_pending_scenarios`].
    backpressure_rejections: Arc<Counter>,
    /// Time to absorb one submission into the pool, µs.
    fold_us: Arc<Histogram>,
    /// Time to train the resident policy on read, µs.
    retrain_us: Arc<Histogram>,
}

/// The cumulative learning state — everything a submission folds into.
struct ServiceState {
    /// Submission ids handed out so far.
    next_submission: u64,
    /// Submissions admitted but not yet folded (or failed).
    outstanding: usize,
    /// Scenarios admitted but not yet folded (or failed) — what the
    /// backpressure bound meters.
    pending_scenarios: usize,
    /// Every outcome and all RL transitions the service has folded, in
    /// submission-completion order (within a submission: submission
    /// order).
    fold: Fold,
    /// The folded outcomes' SVM example counts, summed.
    pooled_svm: u64,
    /// The resident one-for-all policy and the updates that trained it
    /// (empty until the first fold); `None` once a fold has made it
    /// stale, until a cumulative report trains it again.
    policy: Option<(PolicyCheckpoint, u64)>,
    /// Set when the service stops admitting submissions (shutdown, or
    /// the pool lost every worker).
    retired: Option<String>,
}

/// A resident fleet coordinator: accepts scenario submissions from many
/// threads, schedules them onto one supervised [`WorkerPool`], and
/// keeps the shared agent learning across submissions. See the module
/// docs for the determinism contract.
pub struct FleetService {
    pool: WorkerPool,
    config: FleetConfig,
    limits: ServiceLimits,
    state: Mutex<ServiceState>,
    /// Signaled whenever `outstanding` drops; [`FleetService::drain`]
    /// waits on it.
    quiesced: Condvar,
    /// Scenarios submitted but not yet delivered (mirrors the pool's
    /// queue plus in-flight jobs), backing the `serve.queue.depth`
    /// gauge.
    depth: AtomicI64,
    obs: ServeMetrics,
}

impl FleetService {
    /// Builds the worker pool from the config's `workers` subprocess
    /// count and `remote_workers` addresses and connects every slot.
    /// `threads` is ignored: a resident service runs the workers it was
    /// told to, and refuses to start without any (in-process slots go
    /// in through [`FleetService::with_transports`]).
    pub fn new(config: FleetConfig) -> Result<FleetService, String> {
        Self::with_limits(config, ServiceLimits::default())
    }

    /// [`FleetService::new`] with explicit admission limits.
    pub fn with_limits(config: FleetConfig, limits: ServiceLimits) -> Result<FleetService, String> {
        let transports = config.worker_transports(usize::MAX)?;
        Self::with_transports(config, limits, transports)
    }

    /// Builds the service over caller-supplied transports instead of
    /// the config's worker counts — the injection point for fault
    /// harnesses (`firm-chaos` wraps the stock transports) and custom
    /// deployments.
    pub fn with_transports(
        config: FleetConfig,
        limits: ServiceLimits,
        transports: Vec<Box<dyn Transport>>,
    ) -> Result<FleetService, String> {
        if transports.is_empty() {
            return Err(
                "a resident fleet needs at least one worker (subprocess or remote)".to_string(),
            );
        }
        let pool = WorkerPool::start(transports, config.supervisor.clone())?;
        let m = firm_obs::metrics();
        let fold = Fold::new(&config);
        Ok(FleetService {
            pool,
            config,
            limits,
            state: Mutex::new(ServiceState {
                next_submission: 0,
                outstanding: 0,
                pending_scenarios: 0,
                fold,
                pooled_svm: 0,
                policy: Some((PolicyCheckpoint::default(), 0)),
                retired: None,
            }),
            quiesced: Condvar::new(),
            depth: AtomicI64::new(0),
            obs: ServeMetrics {
                submissions_total: m.counter("serve.submissions.total"),
                scenarios_submitted: m.counter("serve.scenarios.submitted"),
                queue_depth: m.gauge("serve.queue.depth"),
                backpressure_rejections: m.counter("serve.backpressure.rejections"),
                fold_us: m.histogram("serve.fold_us"),
                retrain_us: m.histogram("serve.retrain_us"),
            },
        })
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The admission limits in force.
    pub fn limits(&self) -> &ServiceLimits {
        &self.limits
    }

    /// Admits a submission of `scenarios`, returning its id. Call
    /// [`FleetService::run`] with the id and the same scenarios next;
    /// every successful `begin` must be paired with exactly one `run`.
    ///
    /// Refusals carry a [`Rejection`]: *retryable* for transient
    /// conditions (the service is draining for shutdown, or admitting
    /// the scenarios would exceed the
    /// [`ServiceLimits::max_pending_scenarios`] backpressure bound) and
    /// permanent for requests that can never succeed (an empty
    /// submission, or a scenario with a zero control interval, which
    /// no worker can run).
    pub fn begin(&self, scenarios: &[Scenario]) -> Result<u64, Rejection> {
        if scenarios.is_empty() {
            return Err(Rejection::permanent(
                "a submission needs at least one scenario",
            ));
        }
        if let Some(bad) = scenarios
            .iter()
            .find(|s| s.control_interval == SimDuration::ZERO)
        {
            return Err(Rejection::permanent(format!(
                "scenario `{}` has a zero control interval",
                bad.name
            )));
        }
        let scenarios = scenarios.len();
        let mut st = self.state.lock().expect("service state lock");
        if let Some(why) = &st.retired {
            return Err(Rejection::transient(format!("submission rejected: {why}")));
        }
        let max = self.limits.max_pending_scenarios;
        if max > 0 && st.pending_scenarios + scenarios > max {
            self.obs.backpressure_rejections.inc();
            firm_obs::event(Level::Warn, TARGET)
                .msg("submission shed under backpressure")
                .field("scenarios", scenarios)
                .field("pending", st.pending_scenarios)
                .field("max_pending", max)
                .emit();
            return Err(Rejection::transient(format!(
                "submission rejected: {scenarios} scenario(s) would exceed the \
                 max-pending bound ({} of {max} already pending) — retry after \
                 the backlog drains",
                st.pending_scenarios
            )));
        }
        st.pending_scenarios += scenarios;
        let id = st.next_submission;
        st.next_submission += 1;
        st.outstanding += 1;
        self.obs.submissions_total.inc();
        self.obs.scenarios_submitted.add(scenarios as u64);
        Ok(id)
    }

    /// Runs one admitted submission to completion: schedules every
    /// scenario onto the pool, calls `on_outcome` the moment each
    /// result lands (completion order — this is the streaming hook),
    /// then folds the submission into the cumulative state, marks the
    /// resident policy stale, and returns the submission's deterministic
    /// report (with an empty `policy`: see [`SubmissionReport::policy`]).
    ///
    /// On failure (a scenario exhausted its attempts, the pool lost
    /// every worker) the error describes the first casualty; the
    /// remaining results are still drained — the cumulative state
    /// simply does not fold a failed submission in, and the service
    /// keeps serving others.
    pub fn run(
        &self,
        submission: u64,
        seed: u64,
        base_index: u64,
        scenarios: &[Scenario],
        on_outcome: &mut dyn FnMut(u64, &ScenarioOutcome),
    ) -> Result<SubmissionReport, String> {
        let n = scenarios.len();
        firm_obs::event(Level::Info, TARGET)
            .msg("submission started")
            .field("submission", submission)
            .field("scenarios", n)
            .field("seed", seed)
            .field("base_index", base_index)
            .emit();
        self.bump_depth(n as i64);
        let mut received = 0usize;
        // Always training-mode: the resident policy is a product, never
        // an input (see the module docs).
        let jobs = (base_index..).zip(scenarios);
        let results = self.pool.run_catalog(jobs, seed, None, &mut |done| {
            received += 1;
            self.bump_depth(-1);
            if let Ok((outcome, _)) = &done.result {
                on_outcome(done.index, outcome);
            }
        });
        self.bump_depth(received as i64 - n as i64);

        let results = match results {
            Ok(results) => results,
            Err(e) => {
                let mut st = self.state.lock().expect("service state lock");
                st.outstanding -= 1;
                st.pending_scenarios = st.pending_scenarios.saturating_sub(n);
                self.quiesced.notify_all();
                drop(st);
                firm_obs::event(Level::Error, TARGET)
                    .msg("submission failed")
                    .field("submission", submission)
                    .field("error", e.as_str())
                    .emit();
                return Err(e);
            }
        };

        let report = FleetReport::new(seed, results.iter().map(|(o, _)| o.clone()).collect());

        // Fold under the state lock: concurrent submissions serialize
        // here, in completion order.
        let mut st = self.state.lock().expect("service state lock");
        let started = Instant::now();
        st.fold.absorb(results);
        self.obs
            .fold_us
            .record(started.elapsed().as_micros() as u64);
        st.pooled_svm += report.totals.svm_examples;
        st.policy = None;
        let report = SubmissionReport {
            submission,
            cumulative: false,
            report,
            policy: PolicyCheckpoint::default(),
            pooled_transitions: st.fold.pooled.transitions.len() as u64,
            pooled_svm: st.pooled_svm,
            trained_updates: 0,
        };
        st.outstanding -= 1;
        st.pending_scenarios = st.pending_scenarios.saturating_sub(n);
        self.quiesced.notify_all();
        drop(st);
        firm_obs::event(Level::Info, TARGET)
            .msg("submission folded")
            .field("submission", submission)
            .field("report_digest", format!("{:016x}", report.report.digest()))
            .field("pooled_transitions", report.pooled_transitions)
            .emit();
        Ok(report)
    }

    /// [`FleetService::begin`] + [`FleetService::run`] in one call, for
    /// embedders that do not need the admission/streaming split.
    pub fn run_submission(
        &self,
        seed: u64,
        base_index: u64,
        scenarios: &[Scenario],
        on_outcome: &mut dyn FnMut(u64, &ScenarioOutcome),
    ) -> Result<SubmissionReport, String> {
        let id = self.begin(scenarios).map_err(|r| r.message)?;
        self.run(id, seed, base_index, scenarios, on_outcome)
    }

    /// Blocks until every outstanding submission has finished, then
    /// returns the cumulative report: every folded outcome (in
    /// submission-completion order) under the *service's* fleet seed,
    /// plus the resident policy — trained here if a fold has made it
    /// stale, and cached until the next fold.
    pub fn drain(&self) -> SubmissionReport {
        let mut st = self.quiesce();
        let st = &mut *st;
        let fold = &st.fold;
        let (policy, trained_updates) = st
            .policy
            .get_or_insert_with(|| self.train_policy(fold))
            .clone();
        SubmissionReport {
            submission: st.next_submission,
            cumulative: true,
            report: FleetReport::new(self.config.seed, st.fold.outcomes.clone()),
            policy,
            pooled_transitions: st.fold.pooled.transitions.len() as u64,
            pooled_svm: st.pooled_svm,
            trained_updates,
        }
    }

    /// Stops admitting new submissions (in-flight ones finish
    /// normally). Idempotent; the first reason wins.
    pub fn retire(&self, reason: &str) {
        let mut st = self.state.lock().expect("service state lock");
        if st.retired.is_none() {
            st.retired = Some(reason.to_string());
        }
    }

    /// Graceful end of service: stop admitting, wait for every
    /// in-flight submission, tear down the worker pool, and return the
    /// workers' session-end metrics snapshots. Trains nothing: a
    /// cumulative report is read through [`FleetService::drain`].
    pub fn shutdown(&self) -> Vec<WorkerOps> {
        self.retire("the service is shutting down");
        drop(self.quiesce());
        self.pool.shutdown()
    }

    /// Waits until no submission is outstanding; returns the state lock.
    fn quiesce(&self) -> MutexGuard<'_, ServiceState> {
        let mut st = self.state.lock().expect("service state lock");
        while st.outstanding > 0 {
            st = self.quiesced.wait(st).expect("service state lock");
        }
        st
    }

    /// Trains the resident policy from scratch on the whole pool.
    fn train_policy(&self, fold: &Fold) -> (PolicyCheckpoint, u64) {
        let started = Instant::now();
        let (estimator, trained) = fold.train();
        self.obs
            .retrain_us
            .record(started.elapsed().as_micros() as u64);
        firm_obs::event(Level::Info, TARGET)
            .msg("policy retrained")
            .field("seed", self.config.seed)
            .field("pooled_transitions", fold.pooled.transitions.len())
            .field("trained_updates", trained)
            .emit();
        let (actor, critic) = estimator.shared_agent().export_weights();
        (PolicyCheckpoint { actor, critic }, trained as u64)
    }

    fn bump_depth(&self, delta: i64) {
        let now = self.depth.fetch_add(delta, Ordering::Relaxed) + delta;
        self.obs.queue_depth.set(now);
    }
}
