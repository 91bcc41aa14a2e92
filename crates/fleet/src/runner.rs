//! The fleet runtime: run a catalog on a supervised worker pool, fold
//! the experience home, train the shared agent.
//!
//! # One engine
//!
//! [`FleetRunner`] has no execution loop of its own. Every run starts a
//! [`WorkerPool`] over one [`Transport`] per worker — subprocess
//! [`PipeTransport`]s, [`TcpTransport`]s to workers on any host, or,
//! when neither is configured, in-process [`LocalTransport`] threads —
//! hands the catalog to [`WorkerPool::run_catalog`], and folds the
//! catalog-ordered results through one [`Fold`]. Dispatch, liveness and
//! restart-and-replay are the pool's; see [`crate::supervisor`]. A
//! round trip's deploy pass is one more such pool over the catalog
//! indices whose controller reads the frozen policy; every other deploy
//! row is the training row, which a re-run would only reproduce.
//!
//! # Determinism
//!
//! Each scenario's seed is derived from the fleet seed and the
//! scenario's *catalog index* (never from thread identity, process
//! identity, or timing), and [`crate::exec::run_one`] touches no shared
//! state. Aggregation, experience pooling, and shared-agent training
//! all consume the catalog-ordered view — so the [`FleetReport`] bytes,
//! the policy checkpoint and the trained weights are identical at any
//! worker count, over any transport (the wire codec round-trips every
//! field exactly; a local slot skips it), under any failure the pool
//! can recover from. Worker count changes wall-clock time, nothing
//! else.
//!
//! Parallelism has one level: a worker runs one scenario at a time on
//! one thread, and the pool hands whole scenarios to idle workers.

use std::path::{Path, PathBuf};
use std::thread;

use firm_core::controller::PolicyCheckpoint;
use firm_core::estimator::ResourceEstimator;
use firm_core::manager::ExperienceLog;

use crate::fold::Fold;
use crate::ops::{OpsReport, WorkerOps};
use crate::report::{FleetReport, RoundTripReport, ScenarioOutcome};
use crate::scenario::Scenario;
use crate::supervisor::{SupervisorConfig, WorkerPool};
use crate::transport::{LocalTransport, PipeTransport, TcpTransport, Transport};

/// Fleet-runtime parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The thread budget for in-process worker slots; 0 means one per
    /// available core. Ignored when [`FleetConfig::workers`] or
    /// [`FleetConfig::remote_workers`] is set.
    pub threads: usize,
    /// Subprocess workers; 0 (the default) runs on in-process slots
    /// ([`FleetConfig::threads`]) unless [`FleetConfig::remote_workers`]
    /// is set. Results are bit-identical either way.
    pub workers: usize,
    /// Addresses of `firm-fleet-worker --listen` processes
    /// (`host:port`) to shard over, alongside any subprocess workers.
    /// Results are bit-identical to the in-process path.
    pub remote_workers: Vec<String>,
    /// Path to the `firm-fleet-worker` binary. `None` resolves via the
    /// `FIRM_FLEET_WORKER` environment variable, then next to the
    /// current executable.
    pub worker_bin: Option<PathBuf>,
    /// The worker pool's supervision knobs: the per-scenario request
    /// timeout and how many different workers may fail one scenario
    /// before the fleet panics rather than emit a partial report.
    pub supervisor: SupervisorConfig,
    /// Fleet seed; per-scenario seeds derive from it.
    pub seed: u64,
    /// Minibatch updates to run on the shared agent after pooling
    /// (§4.3 one-for-all training from the fleet's experience).
    pub train_steps: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            threads: 0,
            workers: 0,
            remote_workers: Vec::new(),
            worker_bin: None,
            supervisor: SupervisorConfig::default(),
            seed: 1,
            train_steps: 256,
        }
    }
}

impl FleetConfig {
    /// Shards over `n` subprocess workers instead of in-process
    /// slots (0 reverts to them).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Shards over `firm-fleet-worker --listen` processes at the given
    /// `host:port` addresses — the multi-node path. May be combined
    /// with [`FleetConfig::workers`] for a mixed local/remote pool.
    pub fn remote_workers<S: AsRef<str>>(mut self, addrs: &[S]) -> Self {
        self.remote_workers = addrs.iter().map(|a| a.as_ref().to_string()).collect();
        self
    }

    /// The effective worker count.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// One transport per worker the config names: a [`PipeTransport`]
    /// for each of `workers` subprocesses (at most `max_pipes` — more
    /// subprocesses than scenarios would sit idle forever), then a
    /// [`TcpTransport`] per `remote_workers` address. Empty when no
    /// worker is configured; an error when the worker binary cannot be
    /// found.
    pub fn worker_transports(&self, max_pipes: usize) -> Result<Vec<Box<dyn Transport>>, String> {
        let pipes = self.workers.min(max_pipes);
        let mut transports: Vec<Box<dyn Transport>> = Vec::new();
        if pipes > 0 {
            let bin = self.resolve_worker_bin()?;
            transports.extend((0..pipes).map(|_| Box::new(PipeTransport::new(bin.clone())) as _));
        }
        let remotes = self.remote_workers.iter();
        transports.extend(remotes.map(|addr| Box::new(TcpTransport::new(addr.clone())) as _));
        Ok(transports)
    }

    /// Resolves the worker binary: explicit config, then the
    /// `FIRM_FLEET_WORKER` environment variable, then a binary named
    /// `firm-fleet-worker` next to the current executable (or one
    /// directory up, covering cargo's `deps/` test layout), then the
    /// same name in the target directory's `release` and `debug`
    /// profile dirs — a test binary of one package finds the worker a
    /// plain `cargo build --release` left behind. An error names every
    /// path searched when no candidate exists.
    pub fn resolve_worker_bin(&self) -> Result<PathBuf, String> {
        if let Some(path) = &self.worker_bin {
            return Ok(path.clone());
        }
        if let Some(path) = std::env::var_os("FIRM_FLEET_WORKER") {
            return Ok(path.into());
        }
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot locate the current executable: {e}"))?;
        let candidates = worker_bin_candidates(&exe);
        for candidate in &candidates {
            if candidate.exists() {
                return Ok(candidate.clone());
            }
        }
        Err(format!(
            "firm-fleet-worker binary not found (searched {:?}); build it with \
             `cargo build -p firm-fleet --bin firm-fleet-worker`, set \
             FleetConfig::worker_bin, or export FIRM_FLEET_WORKER",
            candidates
        ))
    }
}

/// Where a `firm-fleet-worker` may sit relative to the running
/// executable `exe`, most specific first: beside it, one directory up,
/// then the target directory's `release` and `debug` profile dirs.
fn worker_bin_candidates(exe: &Path) -> Vec<PathBuf> {
    let name = format!("firm-fleet-worker{}", std::env::consts::EXE_SUFFIX);
    let mut candidates = Vec::new();
    let Some(dir) = exe.parent() else {
        return candidates;
    };
    candidates.push(dir.join(&name));
    let Some(up) = dir.parent() else {
        return candidates;
    };
    candidates.push(up.join(&name));
    // `deps/` and `examples/` sit inside the profile dir.
    let nested = dir.ends_with("deps") || dir.ends_with("examples");
    let profile_dir = if nested { up } else { dir };
    if let Some(target_dir) = profile_dir.parent() {
        for profile in ["release", "debug"] {
            let sibling = target_dir.join(profile).join(&name);
            if !candidates.contains(&sibling) {
                candidates.push(sibling);
            }
        }
    }
    candidates
}

/// The result of a round-trip fleet run: train the shared agent across
/// the catalog, freeze it, deploy it back onto the *same* catalog (same
/// seeds, same incidents) in inference mode, and report the
/// improvement — Fig. 11b's train-vs-deploy comparison at fleet scale.
pub struct RoundTripResult {
    /// The training pass (report + trained shared agent).
    pub train: FleetResult,
    /// The deployment (inference) report over the same catalog: the
    /// policy readers' rows from the deploy pass, every other row
    /// copied from the training pass (the one a re-run would produce).
    pub deploy: FleetReport,
    /// The frozen policy the deployment pass ran.
    pub policy: PolicyCheckpoint,
}

impl RoundTripResult {
    /// Builds the combined report: both passes plus per-scenario
    /// train-vs-deploy deltas, in catalog order.
    pub fn report(&self) -> RoundTripReport {
        RoundTripReport::new(self.train.report.clone(), self.deploy.clone())
    }
}

/// The result of one fleet run: the aggregated report plus the
/// centrally trained shared agent.
pub struct FleetResult {
    /// Per-scenario measurements and fleet totals.
    pub report: FleetReport,
    /// The shared (one-for-all) DDPG estimator trained on the pooled
    /// experience.
    pub estimator: ResourceEstimator,
    /// The pooled RL transitions (no SVM examples), in catalog order.
    pub pooled: ExperienceLog,
    /// Shared-agent updates that actually trained.
    pub trained_updates: usize,
    /// Runtime self-metrics for this run — out-of-band diagnostics that
    /// vary with timing and are never covered by the report digest.
    /// Snapshots are process-cumulative (see [`OpsReport`]).
    pub ops: OpsReport,
}

/// Mixes the fleet seed with a scenario's catalog index into its
/// decorrelated per-scenario seed, with no dependence on scheduling.
pub fn scenario_seed(fleet_seed: u64, index: usize) -> u64 {
    firm_rng::mix64(fleet_seed, index as u64)
}

/// Runs scenario fleets.
#[derive(Debug, Clone, Default)]
pub struct FleetRunner {
    config: FleetConfig,
}

impl FleetRunner {
    /// Creates a runner.
    pub fn new(config: FleetConfig) -> Self {
        crate::record_kernel_isa();
        FleetRunner { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Runs every scenario on the configured workers — or, with none
    /// configured, on in-process worker slots — and aggregates.
    ///
    /// # Panics
    ///
    /// As [`FleetRunner::run_with_transports`], and if the worker
    /// binary cannot be found.
    pub fn run(&self, scenarios: &[Scenario]) -> FleetResult {
        self.run_with_transports(scenarios, self.transports(scenarios.len()))
    }

    /// Runs the catalog over caller-supplied transports instead of the
    /// config's — the injection point for fault harnesses (`firm-chaos`
    /// wraps the stock transports) and custom deployments. Everything
    /// else is [`FleetRunner::run`], so a run over wrapped transports is
    /// held to the same bit-identity contract as any other.
    ///
    /// # Panics
    ///
    /// Panics if `scenarios` or `transports` is empty, an initial
    /// connection fails, or a scenario exhausts
    /// [`SupervisorConfig::max_attempts`] (a panicking scenario does, on
    /// every worker that tries it) — a fleet result built from partial
    /// data would silently break the determinism contract, so there is
    /// nothing sensible to salvage.
    pub fn run_with_transports(
        &self,
        scenarios: &[Scenario],
        transports: Vec<Box<dyn Transport>>,
    ) -> FleetResult {
        let jobs: Vec<_> = (0..).zip(scenarios).collect();
        let (results, worker_ops) = self.run_pass(&jobs, transports, None);
        let mut fold = Fold::new(&self.config);
        fold.absorb(results);
        // Central shared-agent training from the pooled, ordered
        // experience (the paper's one-for-all regime, fed by
        // heterogeneous tenants instead of one app).
        let (estimator, trained_updates) = fold.train();
        // Assembled last so the coordinator snapshot includes the
        // aggregation and training it just did. Diagnostics only: the
        // report and weights above were already final.
        let ops = OpsReport::new(firm_obs::metrics().snapshot(), worker_ops);
        FleetResult {
            report: FleetReport::new(self.config.seed, fold.outcomes),
            estimator,
            pooled: fold.pooled,
            trained_updates,
            ops,
        }
    }

    /// Trains across the catalog, freezes the shared agent, and deploys
    /// it in inference mode back onto the *same* catalog (same derived
    /// seeds, hence the same arrival sequences and anomaly campaigns).
    /// [`RoundTripResult::report`] combines both passes with the
    /// per-scenario deltas.
    ///
    /// Only a scenario whose controller
    /// [reads the policy](crate::scenario::FleetController::reads_policy)
    /// (FIRM) can change when the policy is deployed; any other would
    /// re-run at the same seed and return its training row bit for bit.
    /// So the deploy pass runs the policy readers alone, and the deploy
    /// report is the training rows, in catalog order, with the readers'
    /// rows replaced. A catalog without a policy reader starts no deploy
    /// pool.
    ///
    /// Like [`FleetRunner::run`], the whole round trip is bit-identical
    /// at any worker count: the deploy pass derives per-scenario seeds
    /// the same way and runs a frozen (deterministic) policy.
    ///
    /// # Panics
    ///
    /// As [`FleetRunner::run`].
    pub fn run_round_trip(&self, scenarios: &[Scenario]) -> RoundTripResult {
        let train = self.run(scenarios);
        let (actor, critic) = train.estimator.shared_agent().export_weights();
        let policy = PolicyCheckpoint { actor, critic };

        let readers: Vec<(u64, &Scenario)> = (0..)
            .zip(scenarios)
            .filter(|(_, s)| s.controller.reads_policy())
            .collect();
        let mut outcomes = train.report.scenarios.clone();
        if !readers.is_empty() {
            // The deploy pass's worker snapshots are folded into the
            // same process-cumulative registries; the train pass's
            // OpsReport already tells the operability story, so they
            // are not kept separately.
            let transports = self.transports(readers.len());
            let (results, _deploy_ops) = self.run_pass(&readers, transports, Some(&policy));
            for (&(index, _), (outcome, _)) in readers.iter().zip(results) {
                outcomes[index as usize] = outcome;
            }
        }
        let deploy = FleetReport::new(self.config.seed, outcomes);

        RoundTripResult {
            train,
            deploy,
            policy,
        }
    }

    /// The transports of one pass over `jobs` scenarios: the config's
    /// workers, or — with none configured — one local slot per
    /// scenario, up to `effective_threads`.
    fn transports(&self, jobs: usize) -> Vec<Box<dyn Transport>> {
        let configured = self
            .config
            .worker_transports(jobs)
            .unwrap_or_else(|e| panic!("{e}"));
        if !configured.is_empty() {
            return configured;
        }
        let slots = self.config.effective_threads().min(jobs);
        (0..slots).map(|_| Box::new(LocalTransport) as _).collect()
    }

    /// One pass of indexed catalog jobs through a one-shot
    /// [`WorkerPool`]: results in job order, plus each worker's
    /// session-end metrics snapshot. The shared skeleton of the training
    /// pass (the whole catalog) and the deployment pass (its policy
    /// readers); `policy` deploys a frozen agent.
    fn run_pass(
        &self,
        jobs: &[(u64, &Scenario)],
        transports: Vec<Box<dyn Transport>>,
        policy: Option<&PolicyCheckpoint>,
    ) -> (Vec<(ScenarioOutcome, ExperienceLog)>, Vec<WorkerOps>) {
        assert!(!jobs.is_empty(), "fleet needs at least one scenario");
        assert!(!transports.is_empty(), "fleet needs at least one transport");
        let pool = WorkerPool::start(transports, self.config.supervisor.clone())
            .unwrap_or_else(|e| panic!("{e}"));
        let results = pool.run_catalog(jobs.iter().copied(), self.config.seed, policy, &mut |_| {});
        let worker_ops = pool.shutdown();
        (results.unwrap_or_else(|e| panic!("{e}")), worker_ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_one_with;
    use crate::scenario::builtin_catalog;
    use crate::worker::{serve_session, ServeOptions};
    use firm_core::extractor::InstanceFeatures;
    use firm_sim::{InstanceId, ServiceId, SimDuration};
    use std::io::{self, BufReader, Read};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A root-package test binary (`target/debug/deps/…`) must reach the
    /// worker a release build left in the sibling profile dir, after the
    /// same-profile places; a bin in the profile dir itself likewise.
    #[test]
    fn worker_candidates_fall_back_to_sibling_profile_dirs() {
        let name = format!("firm-fleet-worker{}", std::env::consts::EXE_SUFFIX);
        let at = |dir: &str| Path::new(dir).join(&name);
        assert_eq!(
            worker_bin_candidates(Path::new("/r/target/debug/deps/fleet_determinism-0a1b")),
            [
                at("/r/target/debug/deps"),
                at("/r/target/debug"),
                at("/r/target/release"),
            ]
        );
        assert_eq!(
            worker_bin_candidates(Path::new("/r/target/release/firm-fleet")),
            [
                at("/r/target/release"),
                at("/r/target"),
                at("/r/target/debug"),
            ]
        );
        assert_eq!(
            worker_bin_candidates(Path::new("/r/target/release/examples/fleet_catalog")),
            [
                at("/r/target/release/examples"),
                at("/r/target/release"),
                at("/r/target/debug"),
            ]
        );
    }

    fn short_catalog(n: usize, secs: u64) -> Vec<Scenario> {
        builtin_catalog()
            .into_iter()
            .take(n)
            .map(|s| s.with_duration(SimDuration::from_secs(secs)))
            .collect()
    }

    /// Golden vectors for the `(fleet seed, catalog index) → seed`
    /// derivation. Subprocess (and, later, multi-host) workers receive
    /// seeds the coordinator derived with this exact function, so its
    /// output is a cross-process stability guarantee: a change here
    /// invalidates every recorded digest and remote worker alike. If
    /// this test fails, you have broken the wire contract — do not
    /// update the vectors without bumping the fleet protocol.
    #[test]
    fn scenario_seed_matches_golden_vectors() {
        let golden: [(u64, usize, u64); 10] = [
            (1, 0, 0x910a_2dec_8902_5cc1),
            (1, 1, 0xcf53_8298_0db3_6f89),
            (1, 2, 0xa52d_678c_8927_ec72),
            (1, 11, 0x9e4c_f921_b63f_fcfa),
            (7, 0, 0x63cb_e1e4_5932_0dd7),
            (7, 3, 0x3806_2e04_481f_df3c),
            (0, 0, 0xe220_a839_7b1d_cdaf),
            (u64::MAX, 4, 0xc7f9_2d30_8b7d_8159),
            (20_26, 5, 0x161f_ee19_263e_5b75),
            (4242, 7, 0x515d_473f_84c9_362f),
        ];
        for (fleet_seed, index, expected) in golden {
            assert_eq!(
                scenario_seed(fleet_seed, index),
                expected,
                "scenario_seed({fleet_seed}, {index}) drifted from its pinned value"
            );
        }
    }

    #[test]
    fn seeds_are_decorrelated() {
        let a = scenario_seed(1, 0);
        let b = scenario_seed(1, 1);
        let c = scenario_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Stable across calls.
        assert_eq!(a, scenario_seed(1, 0));
    }

    #[test]
    fn fleet_runs_and_pools_experience() {
        let scenarios = short_catalog(3, 8);
        let runner = FleetRunner::new(FleetConfig {
            threads: 2,
            seed: 11,
            train_steps: 64,
            ..FleetConfig::default()
        });
        let dispatched = firm_obs::metrics().counter("fleet.dispatch.total");
        let dispatched_before = dispatched.get();
        let result = runner.run(&scenarios);
        // With no worker configured the catalog still goes through a
        // WorkerPool (the counter is process-wide, hence "at least").
        assert!(dispatched.get() - dispatched_before >= 3);
        assert_eq!(result.report.scenarios.len(), 3);
        // Catalog order is preserved.
        for (s, o) in scenarios.iter().zip(&result.report.scenarios) {
            assert_eq!(s.name, o.name);
        }
        assert!(result.report.totals.completions > 500);
        // The two FIRM scenarios in the prefix contribute transitions;
        // their SVM examples are counted in the report, never pooled.
        assert!(!result.pooled.transitions.is_empty());
        assert!(result.pooled.svm_examples.is_empty());
        assert!(result.report.totals.svm_examples > 0);
    }

    /// The fold pools outcomes and transitions; an SVM example in a log
    /// it absorbs is dropped.
    #[test]
    fn the_fold_pools_no_svm_examples() {
        let scenario = short_catalog(1, 8).remove(0);
        let (outcome, mut log) = run_one_with(&scenario, 3, None);
        let transitions = log.transitions.clone();
        assert!(!transitions.is_empty(), "FIRM recorded no transitions");
        let features = InstanceFeatures {
            instance: InstanceId(1),
            service: ServiceId(0),
            ri: 0.5,
            ci: 1.5,
            samples: 8,
        };
        log.svm_examples.push((features, true));

        let mut fold = Fold::new(&FleetConfig::default());
        fold.absorb(vec![(outcome.clone(), log)]);
        assert_eq!(fold.outcomes, [outcome]);
        assert_eq!(fold.pooled.transitions, transitions);
        assert!(fold.pooled.svm_examples.is_empty(), "SVM examples pooled");
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let scenarios = short_catalog(4, 6);
        let run = |threads| {
            FleetRunner::new(FleetConfig {
                threads,
                seed: 5,
                train_steps: 32,
                ..FleetConfig::default()
            })
            .run(&scenarios)
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.report.to_json(), four.report.to_json());
        assert_eq!(one.report.digest(), four.report.digest());
        assert_eq!(
            one.estimator.shared_agent().export_weights(),
            four.estimator.shared_agent().export_weights(),
            "pooled training diverged across thread counts"
        );
    }

    #[test]
    fn round_trip_deploys_the_frozen_policy_over_the_same_catalog() {
        let scenarios = short_catalog(5, 6);
        let rt = FleetRunner::new(FleetConfig {
            threads: 2,
            seed: 17,
            train_steps: 64,
            ..FleetConfig::default()
        })
        .run_round_trip(&scenarios);

        let report = rt.report();
        assert_eq!(report.deltas.len(), 5);
        for (s, d) in scenarios.iter().zip(&report.deltas) {
            assert_eq!(s.name, d.name);
        }
        // The frozen policy only changes FIRM rows: baseline scenarios
        // reproduce their training-pass outcome bit for bit.
        let mut baselines = 0;
        for (t, d) in rt.train.report.scenarios.iter().zip(&rt.deploy.scenarios) {
            if t.controller != "FIRM" {
                assert_eq!(t, d, "{}: baseline diverged across passes", t.name);
                baselines += 1;
            }
        }
        assert!(baselines > 0, "catalog prefix has no baseline scenario");
        // Inference mode harvests nothing.
        assert_eq!(
            rt.deploy.totals.transitions, 0,
            "deploy pass recorded experience"
        );
        assert_eq!(rt.deploy.totals.svm_examples, 0);
        // The frozen policy is the trained shared agent's weights.
        let (actor, critic) = rt.train.estimator.shared_agent().export_weights();
        assert_eq!(rt.policy.actor, actor);
        assert_eq!(rt.policy.critic, critic);
    }

    /// Counts the newline-terminated frames read through it.
    struct FrameCounter {
        inner: TcpStream,
        frames: Arc<AtomicUsize>,
    }

    impl Read for FrameCounter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            let lines = buf[..n].iter().filter(|&&b| b == b'\n').count();
            self.frames.fetch_add(lines, Ordering::SeqCst);
            Ok(n)
        }
    }

    /// The builtin scenarios with these names, shortened to `secs`.
    fn named_catalog(names: &[&str], secs: u64) -> Vec<Scenario> {
        let builtin = builtin_catalog();
        names
            .iter()
            .map(|name| {
                let s = builtin.iter().find(|s| s.name == *name).expect("builtin");
                s.clone().with_duration(SimDuration::from_secs(secs))
            })
            .collect()
    }

    /// A round trip over one TCP worker in this process, and the request
    /// frames each of that worker's sessions read, in accept order.
    fn counted_round_trip(scenarios: &[Scenario], seed: u64) -> (RoundTripResult, Vec<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
        let addr = listener.local_addr().expect("local addr");
        let runner = FleetRunner::new(
            FleetConfig {
                seed,
                train_steps: 64,
                ..FleetConfig::default()
            }
            .remote_workers(&[addr.to_string()]),
        );
        let finished = AtomicBool::new(false);
        thread::scope(|scope| {
            let acceptor = scope.spawn(|| {
                let mut sessions = Vec::new();
                for stream in listener.incoming() {
                    if finished.load(Ordering::SeqCst) {
                        break;
                    }
                    let stream = stream.expect("accept");
                    let frames = Arc::new(AtomicUsize::new(0));
                    let inner = stream.try_clone().expect("clone the stream");
                    let reader = BufReader::new(FrameCounter {
                        inner,
                        frames: Arc::clone(&frames),
                    });
                    let opts = ServeOptions { heartbeat_ms: 0 };
                    let session = scope.spawn(move || serve_session(reader, stream, &opts));
                    sessions.push((frames, session));
                }
                sessions
                    .into_iter()
                    .map(|(frames, session)| {
                        let ended = session.join().expect("session thread");
                        ended.expect("session ends cleanly");
                        frames.load(Ordering::SeqCst)
                    })
                    .collect()
            });
            // Wakes the acceptor out of `accept` once the round trip is
            // over, also when it panics, so the scope can join it.
            let wake = Wake(addr, &finished);
            let rt = runner.run_round_trip(scenarios);
            drop(wake);
            (rt, acceptor.join().expect("acceptor thread"))
        })
    }

    struct Wake<'a>(SocketAddr, &'a AtomicBool);

    impl Drop for Wake<'_> {
        fn drop(&mut self) {
            self.1.store(true, Ordering::SeqCst);
            let _ = TcpStream::connect(self.0);
        }
    }

    /// The oracle for the deploy pass's reuse: every policy-free deploy
    /// row equals an independent deployment of its scenario, a FIRM row
    /// changes, and the deploy pass submits exactly the policy readers.
    #[test]
    fn round_trip_deploys_only_into_policy_readers() {
        let scenarios = named_catalog(
            &[
                "social-steady-firm",
                "media-steady-none",
                "hotel-flash-k8s",
                "train-steady-aimd",
                "incident-replay-firm",
            ],
            6,
        );
        let seed = 23;
        let (rt, frames) = counted_round_trip(&scenarios, seed);

        let readers: Vec<usize> = (0..scenarios.len())
            .filter(|&i| scenarios[i].controller.reads_policy())
            .collect();
        assert_eq!(readers, [0, 4]);
        let (train, deploy) = (&rt.train.report.scenarios, &rt.deploy.scenarios);
        for (i, scenario) in scenarios.iter().enumerate() {
            if !readers.contains(&i) {
                let (fresh, _) = run_one_with(scenario, scenario_seed(seed, i), Some(&rt.policy));
                assert_eq!(
                    deploy[i], fresh,
                    "{}: reused row is not a deployment",
                    scenario.name
                );
            }
        }
        assert!(
            readers.iter().any(|&i| train[i] != deploy[i]),
            "every FIRM deploy row equals its training row"
        );
        assert_eq!(
            frames,
            [scenarios.len(), readers.len()],
            "request frames per pass (train, deploy)"
        );
    }

    /// A catalog with no policy reader starts no deploy pool: its deploy
    /// report is the training report.
    #[test]
    fn a_round_trip_without_policy_readers_deploys_nothing() {
        let scenarios = named_catalog(&["media-steady-none", "hotel-flash-k8s"], 6);
        let (rt, frames) = counted_round_trip(&scenarios, 29);
        assert_eq!(
            frames,
            [scenarios.len()],
            "request frames per pass (train only)"
        );
        assert_eq!(rt.deploy.to_json(), rt.train.report.to_json());
    }

    #[test]
    fn different_fleet_seeds_differ() {
        let scenarios = short_catalog(2, 6);
        let run = |seed| {
            FleetRunner::new(FleetConfig {
                threads: 2,
                seed,
                train_steps: 0,
                ..FleetConfig::default()
            })
            .run(&scenarios)
            .report
            .digest()
        };
        assert_ne!(run(1), run(2));
    }
}
