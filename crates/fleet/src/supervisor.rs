//! The one execution engine: a supervised [`WorkerPool`] with
//! idle-queue dispatch, liveness and restart-and-replay over any
//! [`Transport`] — subprocess pipes, TCP sockets and in-process worker
//! threads ([`crate::transport::LocalTransport`]) alike.
//!
//! The pool owns the part of a distributed fleet that the happy path
//! never sees:
//!
//! * **Idle-queue dispatch** — jobs live in one work queue and go to
//!   whichever worker is idle (distributed-JIQ style), one outstanding
//!   job per worker, instead of a static round-robin partition. A slow
//!   tenant therefore delays only itself; the rest of the pool drains
//!   the queue around it. A worker thread is just one more idle worker,
//!   so the discipline exists once for every worker kind.
//! * **Liveness** — a per-request timeout catches wedged workers, an
//!   EOF/error on a worker's stream catches crashed ones immediately
//!   (a local thread's panicking scenario closes its channel the same
//!   way), and prolonged heartbeat silence catches the silent kind
//!   (peer alive at the TCP level but frozen).
//! * **Restart-and-replay** — a failed worker's in-flight job goes back
//!   to the *front* of the queue and is re-dispatched to a healthy
//!   worker, excluding every worker that already failed it (so a
//!   poisonous scenario cannot ping-pong onto the same machine). The
//!   slot itself is reconnected through its transport — a respawned
//!   subprocess, a fresh TCP session, a fresh thread — and rejoins the
//!   pool; if the reconnect fails, or the worker speaks another
//!   protocol version, the slot is retired and the survivors absorb
//!   its share.
//!
//! # One pool, two lifetimes
//!
//! Every scenario the workspace ever runs goes through a [`WorkerPool`]:
//! jobs are [`PoolJob`]s submitted at any time from any thread, each
//! completion (or unrecoverable failure) is delivered as a [`JobDone`]
//! on the job's own reply channel, and a failure fails *that job*,
//! never the pool. [`WorkerPool::run_catalog`] is the one catalog
//! driver on top: submit every indexed job, collect in the order given.
//! The batch [`crate::runner::FleetRunner`] starts a pool, runs one
//! catalog (or, deploying a round trip's policy, the catalog indices
//! that read it) and shuts it down (panicking on an `Err` — a report
//! missing a scenario would silently break the determinism contract);
//! the resident `firm-fleet serve` keeps one pool for days and calls
//! `run_catalog` once per submission.
//!
//! # Why failures cannot move the report
//!
//! A re-dispatched request is byte-identical to the original: the job
//! carries its seed from submission time (derived once from
//! `(fleet seed, catalog index)` by the caller), and
//! [`crate::exec::run_one_with`] is a pure function of `(scenario,
//! seed, policy)`. Which worker runs a job, how many times it was
//! attempted, and when its response arrives are all invisible to
//! aggregation, which consumes results keyed by index. Supervision is
//! timing-dependent; the results are not.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::Write;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use firm_core::controller::PolicyCheckpoint;
use firm_core::manager::ExperienceLog;
use firm_obs::{Counter, Gauge, Histogram, Level, MetricsSnapshot};

use crate::ops::WorkerOps;
use crate::protocol::{WorkerHello, WorkerMessage, WorkerRequest, PROTOCOL_VERSION};
use crate::report::ScenarioOutcome;
use crate::runner::scenario_seed;
use crate::scenario::Scenario;
use crate::transport::{ConnectionControl, Link, Transport};
use crate::worker::serve_local;

/// Event target for everything the coordinator side emits.
const TARGET: &str = "fleet supervisor";

/// Supervision knobs; a fleet's are [`crate::runner::FleetConfig::supervisor`].
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Wall-clock budget for one job on one worker; a worker that
    /// holds a job longer is presumed wedged, killed, and replaced.
    /// `None` disables the timeout (crash detection still applies).
    pub request_timeout: Option<Duration>,
    /// How many workers may fail one job before the pool gives up on
    /// it, delivers the failure on the job's reply channel, and keeps
    /// serving everything else.
    pub max_attempts: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            request_timeout: Some(Duration::from_secs(300)),
            max_attempts: 3,
        }
    }
}

/// One unit of work submitted to a [`WorkerPool`].
pub struct PoolJob {
    /// The job's index as the submitter knows it — echoed through the
    /// wire protocol ([`WorkerRequest::index`]) and back in
    /// [`JobDone::index`]. For a batch run this is the catalog index;
    /// a resident service uses submission-global indices so seeds stay
    /// continuous across submissions.
    pub index: u64,
    /// The derived per-scenario seed (the submitter owns derivation —
    /// typically [`scenario_seed`]`(fleet_seed, index)`).
    pub seed: u64,
    /// The scenario to run, as plain data.
    pub scenario: Scenario,
    /// A frozen policy to deploy (inference mode); `None` trains fresh.
    /// Shared so a catalog-wide deployment clones an `Arc`, not the
    /// weights; the pool ships the actual bytes to each worker
    /// connection at most once (see the per-connection policy cache).
    pub policy: Option<Arc<PolicyCheckpoint>>,
    /// Where the result goes. Every submitted job gets exactly one
    /// [`JobDone`] delivery — completion or unrecoverable failure — and
    /// a closed receiver just discards the delivery (the pool never
    /// fails because a submitter went away).
    pub reply: mpsc::Sender<JobDone>,
}

/// The terminal delivery for one [`PoolJob`].
pub struct JobDone {
    /// Echo of [`PoolJob::index`].
    pub index: u64,
    /// The scenario's deterministic results, or why the pool gave up on
    /// this job (attempts exhausted, every worker gone). Failures are
    /// per-job: the pool itself stays alive and keeps serving.
    pub result: Result<(ScenarioOutcome, ExperienceLog), String>,
}

/// A supervised worker pool: submit [`PoolJob`]s from any thread at
/// any time, get [`JobDone`] deliveries on each job's reply channel as
/// workers finish. The pool outlives any one catalog, failures are
/// delivered instead of thrown, and [`WorkerPool::shutdown`] ends it
/// gracefully, collecting the workers' session-end metrics (labeled
/// `slot<N>:<transport>`; pure diagnostics that ride a separate frame
/// and never touch the results).
pub struct WorkerPool {
    msgs: mpsc::Sender<PoolMsg>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Connects every transport and starts the pool's coordinator
    /// thread. Initial connections fail loudly — a pool that silently
    /// starts with fewer workers than configured hides deployment
    /// typos — so the first connect error aborts the start.
    pub fn start(
        transports: Vec<Box<dyn Transport>>,
        config: SupervisorConfig,
    ) -> Result<WorkerPool, String> {
        if transports.is_empty() {
            return Err("worker pool needs at least one worker".to_string());
        }
        let (msgs_tx, msgs_rx) = mpsc::channel();
        let (ready_tx, ready_rx) = mpsc::channel();
        let runtime_tx = msgs_tx.clone();
        let thread = std::thread::Builder::new()
            .name("firm-fleet-pool".to_string())
            .spawn(move || {
                let mut runtime = PoolRuntime::new(transports, config, runtime_tx, msgs_rx);
                let connected = runtime.connect_all();
                let ok = connected.is_ok();
                let _ = ready_tx.send(connected);
                if ok {
                    runtime.run();
                }
            })
            .map_err(|e| format!("spawn pool thread: {e}"))?;
        match ready_rx.recv() {
            Ok(Ok(())) => Ok(WorkerPool {
                msgs: msgs_tx,
                thread: Mutex::new(Some(thread)),
            }),
            Ok(Err(e)) => {
                let _ = thread.join();
                Err(e)
            }
            Err(_) => Err("worker pool thread died during startup".to_string()),
        }
    }

    /// Enqueues one job. The pool delivers exactly one [`JobDone`] for
    /// it — immediately, as a failure, if the pool has already lost
    /// every worker.
    pub fn submit(&self, job: PoolJob) {
        if let Err(mpsc::SendError(PoolMsg::Cmd(Command::Submit(job)))) =
            self.msgs.send(PoolMsg::Cmd(Command::Submit(Box::new(job))))
        {
            // The pool thread is gone (shutdown raced or it panicked);
            // honor the one-delivery contract from here.
            let _ = job.reply.send(JobDone {
                index: job.index,
                result: Err("worker pool is shut down".to_string()),
            });
        }
    }

    /// Runs one catalog: submits every `(job index, scenario)` pair
    /// (seed [`scenario_seed`]`(seed, index)`, `policy` deployed when
    /// set), calls `on_done` with each delivery the moment it lands, and
    /// returns `(outcome, experience)` in the order the jobs were given.
    /// The indices need not be contiguous: a batch run numbers its
    /// catalog from 0, a resident service continues from its previous
    /// submission, and a round trip's deploy pass runs only the
    /// catalog indices whose controller reads the policy. On failure the
    /// error is the first casualty's; the remaining deliveries are still
    /// drained, so nothing of this catalog is left in flight when the
    /// call returns.
    ///
    /// # Panics
    ///
    /// Panics if one job index is given twice.
    pub fn run_catalog<'a>(
        &self,
        jobs: impl IntoIterator<Item = (u64, &'a Scenario)>,
        seed: u64,
        policy: Option<&PolicyCheckpoint>,
        on_done: &mut dyn FnMut(&JobDone),
    ) -> Result<Vec<(ScenarioOutcome, ExperienceLog)>, String> {
        let policy = policy.map(|p| Arc::new(p.clone()));
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut positions = HashMap::new();
        for (index, scenario) in jobs {
            let position = positions.len();
            assert!(
                positions.insert(index, position).is_none(),
                "job {index} submitted twice"
            );
            self.submit(PoolJob {
                index,
                seed: scenario_seed(seed, index as usize),
                scenario: scenario.clone(),
                policy: policy.clone(),
                reply: reply_tx.clone(),
            });
        }
        drop(reply_tx);

        let mut results: Vec<Option<(ScenarioOutcome, ExperienceLog)>> =
            (0..positions.len()).map(|_| None).collect();
        let mut failure = None;
        for _ in 0..positions.len() {
            let Ok(done) = reply_rx.recv() else {
                failure.get_or_insert_with(|| "the worker pool died mid-catalog".to_string());
                break;
            };
            on_done(&done);
            match done.result {
                Ok(r) => {
                    let cell = &mut results[positions[&done.index]];
                    assert!(cell.is_none(), "job {} completed twice", done.index);
                    *cell = Some(r);
                }
                Err(e) => {
                    failure.get_or_insert(e);
                }
            }
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(results
                .into_iter()
                .map(|slot| slot.expect("every scenario delivered"))
                .collect()),
        }
    }

    /// Gracefully shuts the pool down: waits for every in-flight and
    /// queued job to be delivered, tears each worker session down (EOF,
    /// then a clean exit check), and returns the workers' session-end
    /// metrics snapshots.
    ///
    /// # Panics
    ///
    /// Panics if the pool thread itself panicked (a worker that
    /// completed all its work and then failed its exit check, or a
    /// coordinator bug) — resumed so the original message surfaces.
    pub fn shutdown(&self) -> Vec<WorkerOps> {
        let (done_tx, done_rx) = mpsc::channel();
        if self
            .msgs
            .send(PoolMsg::Cmd(Command::Shutdown { done: done_tx }))
            .is_err()
        {
            // Already down (double shutdown): nothing to collect.
            return Vec::new();
        }
        let ops = done_rx.recv();
        let thread = self.thread.lock().expect("pool thread lock").take();
        match ops {
            Ok(ops) => {
                if let Some(t) = thread {
                    let _ = t.join();
                }
                ops
            }
            Err(_) => {
                // The thread died before answering; surface its panic.
                if let Some(t) = thread {
                    if let Err(payload) = t.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
                panic!("worker pool thread exited without completing shutdown");
            }
        }
    }
}

/// Everything the coordinator thread can receive, multiplexed onto one
/// channel so worker events and caller commands share a single blocking
/// wait with the liveness deadlines.
enum PoolMsg {
    Worker(Event),
    Cmd(Command),
}

enum Command {
    /// Boxed: a job carries a whole [`Scenario`] and would otherwise
    /// dominate the channel message size.
    Submit(Box<PoolJob>),
    Shutdown {
        done: mpsc::Sender<Vec<WorkerOps>>,
    },
}

/// The coordinator's own runtime metrics, resolved once per pool (the
/// reader threads clone the `Arc` handles they touch per frame).
struct CoordMetrics {
    dispatch_total: Arc<Counter>,
    dispatch_latency: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    heartbeat_gap: Arc<Histogram>,
    frames_tx: Arc<Counter>,
    bytes_tx: Arc<Counter>,
    frames_rx: Arc<Counter>,
    bytes_rx: Arc<Counter>,
    bad_frames: Arc<Counter>,
    retries: Arc<Counter>,
    recycled: Arc<Counter>,
    restarts: Arc<Counter>,
    retired: Arc<Counter>,
}

impl CoordMetrics {
    fn new() -> Self {
        let m = firm_obs::metrics();
        CoordMetrics {
            dispatch_total: m.counter("fleet.dispatch.total"),
            dispatch_latency: m.histogram("fleet.dispatch.latency_us"),
            queue_depth: m.gauge("fleet.queue.depth"),
            heartbeat_gap: m.histogram("fleet.heartbeat.gap_us"),
            frames_tx: m.counter("fleet.frames.tx"),
            bytes_tx: m.counter("fleet.bytes.tx"),
            frames_rx: m.counter("fleet.frames.rx"),
            bytes_rx: m.counter("fleet.bytes.rx"),
            bad_frames: m.counter("fleet.bad_frames"),
            retries: m.counter("fleet.retry.attempts"),
            recycled: m.counter("fleet.worker.recycled"),
            restarts: m.counter("fleet.worker.restarts"),
            retired: m.counter("fleet.worker.retired"),
        }
    }
}

/// One worker→coordinator notification, tagged with the connection
/// generation so frames from a connection the pool already killed are
/// recognizably stale.
struct Event {
    slot: usize,
    generation: u64,
    kind: EventKind,
}

enum EventKind {
    Frame(WorkerMessage),
    /// The frame did not parse/decode — worker bug or version skew.
    BadFrame(String),
    /// The stream ended (EOF or read error).
    Closed,
}

/// The live half of a slot: one open connection plus its pump threads.
struct Live {
    /// Requests queued here leave the coordinator loop at once: a
    /// stream's writer thread frames and writes them (so a worker that
    /// stops reading can never block the loop), a local worker thread
    /// receives the values themselves.
    requests: mpsc::Sender<WorkerRequest>,
    /// The threads serving this connection, joined at graceful teardown.
    pumps: Vec<JoinHandle<()>>,
    /// `None` for a local worker thread, which cannot be killed.
    control: Option<Box<dyn ConnectionControl>>,
    generation: u64,
    hello: Option<WorkerHello>,
    /// When the last frame (of any kind) arrived — heartbeat silence is
    /// measured from here.
    last_frame: Instant,
}

enum SlotState {
    Idle,
    Busy {
        /// Pool-internal job id (key into `PoolRuntime::jobs`).
        job: u64,
        dispatched: Instant,
    },
    /// Reconnect failed or the worker speaks another protocol version;
    /// the slot is out of the pool for good.
    Retired,
}

struct Slot {
    transport: Box<dyn Transport>,
    live: Option<Live>,
    state: SlotState,
    /// Digest of the policy checkpoint this connection has cached
    /// (shipped by an earlier frame), or `None` if the connection holds
    /// no policy. Lets a deployment pass ship the weights once per
    /// connection and `reuse_policy` afterwards — and lets a resident
    /// pool interleave jobs carrying *different* policies correctly.
    wire_policy: Option<u64>,
    /// Next connection generation for this slot.
    next_generation: u64,
}

struct JobEntry {
    job: PoolJob,
    attempts: usize,
    /// Slots that already failed this job — never hand it back to them.
    excluded: HashSet<usize>,
}

struct PoolRuntime {
    config: SupervisorConfig,
    slots: Vec<Slot>,
    msgs_tx: mpsc::Sender<PoolMsg>,
    msgs_rx: mpsc::Receiver<PoolMsg>,
    /// Queued job ids, oldest first (replays go to the *front*).
    queue: VecDeque<u64>,
    jobs: HashMap<u64, JobEntry>,
    next_job: u64,
    obs: CoordMetrics,
    /// Why the most recent slot retired, for the error of a job no
    /// worker is left to run.
    last_retirement: String,
    /// Each slot's session-end metrics frame, when one arrived.
    worker_metrics: Vec<Option<MetricsSnapshot>>,
    /// The generation of each slot's most recently torn-down
    /// connection — metrics frames that surface during teardown (after
    /// the main loop stopped reading) are accepted only from it.
    final_generation: Vec<Option<u64>>,
    /// Set once a shutdown command arrives; the pool drains all work,
    /// then tears down and answers on this channel.
    shutdown: Option<mpsc::Sender<Vec<WorkerOps>>>,
}

impl PoolRuntime {
    fn new(
        transports: Vec<Box<dyn Transport>>,
        config: SupervisorConfig,
        msgs_tx: mpsc::Sender<PoolMsg>,
        msgs_rx: mpsc::Receiver<PoolMsg>,
    ) -> Self {
        let slots: Vec<Slot> = transports
            .into_iter()
            .map(|transport| Slot {
                transport,
                live: None,
                state: SlotState::Idle,
                wire_policy: None,
                next_generation: 0,
            })
            .collect();
        let worker_metrics = (0..slots.len()).map(|_| None).collect();
        let final_generation = vec![None; slots.len()];
        PoolRuntime {
            config,
            slots,
            msgs_tx,
            msgs_rx,
            queue: VecDeque::new(),
            jobs: HashMap::new(),
            next_job: 0,
            obs: CoordMetrics::new(),
            last_retirement: String::new(),
            worker_metrics,
            final_generation,
            shutdown: None,
        }
    }

    /// Initial connections, all-or-nothing.
    fn connect_all(&mut self) -> Result<(), String> {
        for i in 0..self.slots.len() {
            self.connect_slot(i)
                .map_err(|e| format!("connect {}: {e}", self.slots[i].transport.label()))?;
        }
        Ok(())
    }

    /// The resident loop: dispatch, watch liveness, handle events and
    /// commands, until a shutdown command arrives and the last job is
    /// delivered.
    fn run(mut self) {
        loop {
            self.dispatch();
            self.fail_unrunnable();
            if self.shutdown.is_some() && self.jobs.is_empty() {
                break;
            }
            match self.wait_for_msg() {
                Some(PoolMsg::Worker(event)) => self.handle_event(event),
                Some(PoolMsg::Cmd(Command::Submit(job))) => self.enqueue(*job),
                Some(PoolMsg::Cmd(Command::Shutdown { done })) => {
                    // Debug: every batch run ends its one-shot pool.
                    firm_obs::event(Level::Debug, TARGET)
                        .msg("pool shutdown requested")
                        .field("queued", self.queue.len())
                        .field("in_flight", self.jobs.len() - self.queue.len())
                        .emit();
                    self.shutdown = Some(done);
                }
                None => self.reap_expired(),
            }
        }
        self.finish_shutdown();
    }

    fn enqueue(&mut self, job: PoolJob) {
        let id = self.next_job;
        self.next_job += 1;
        self.jobs.insert(
            id,
            JobEntry {
                job,
                attempts: 0,
                excluded: HashSet::new(),
            },
        );
        self.queue.push_back(id);
    }

    fn all_retired(&self) -> bool {
        self.slots
            .iter()
            .all(|s| matches!(s.state, SlotState::Retired))
    }

    /// Fails every queued job once no worker can ever run it — at once
    /// for jobs submitted later, since the loop calls this before every
    /// wait. With the dispatch eligibility rule (a job excluded from
    /// every live slot may still go to any of them), the only
    /// unrunnable state is a fully retired pool.
    fn fail_unrunnable(&mut self) {
        if !self.all_retired() {
            return;
        }
        let retired = self.slots.len();
        while let Some(id) = self.queue.pop_front() {
            let Some(entry) = self.jobs.remove(&id) else {
                continue;
            };
            let _ = entry.job.reply.send(JobDone {
                index: entry.job.index,
                result: Err(format!(
                    "fleet cannot make progress: job {} has no eligible worker \
                     ({retired} of {retired} slots retired) — every worker died \
                     or already failed it; last retired: {}",
                    entry.job.index, self.last_retirement
                )),
            });
        }
        self.obs.queue_depth.set(0);
    }

    /// Hands queued jobs to idle workers — the idle queue is consulted
    /// per job, so whichever worker freed up first takes the next one
    /// (no static partition to go stale when a worker dies).
    fn dispatch(&mut self) {
        let live: HashSet<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.live.is_some() && !matches!(s.state, SlotState::Retired))
            .map(|(i, _)| i)
            .collect();
        for slot_id in 0..self.slots.len() {
            if !matches!(self.slots[slot_id].state, SlotState::Idle)
                || self.slots[slot_id].live.is_none()
            {
                continue;
            }
            // First queued job this slot is allowed to run: one it has
            // not failed — or, when every live slot has failed it (a
            // one-worker pool restarting, say), any job at all; the
            // attempts cap still bounds a genuinely poisonous scenario.
            let Some(pos) = self.queue.iter().position(|id| {
                let excluded = &self.jobs[id].excluded;
                !excluded.contains(&slot_id) || live.iter().all(|s| excluded.contains(s))
            }) else {
                continue;
            };
            let id = self.queue.remove(pos).expect("position came from iter");
            if self.send_job(slot_id, id).is_err() {
                // The writer was already gone; put the job back and
                // recycle the slot (the job is not charged an attempt —
                // it never reached a worker).
                self.queue.push_front(id);
                self.recycle(slot_id, "write channel closed");
            } else {
                self.obs.dispatch_total.inc();
                let entry = &self.jobs[&id];
                firm_obs::event(Level::Debug, TARGET)
                    .msg("dispatched scenario")
                    .field("index", entry.job.index)
                    .field("scenario", entry.job.scenario.name.as_str())
                    .field("slot", slot_id)
                    .field("transport", self.slots[slot_id].transport.label())
                    .field("attempt", entry.attempts + 1)
                    .emit();
            }
        }
        self.obs.queue_depth.set(self.queue.len() as i64);
    }

    /// Ships one request; the per-connection policy bookkeeping (full
    /// weights the first time a connection sees a given checkpoint,
    /// `reuse_policy` afterwards) lives here.
    fn send_job(&mut self, slot_id: usize, id: u64) -> Result<(), ()> {
        let job = &self.jobs[&id].job;
        let mut request = WorkerRequest::new(job.index, job.seed, job.scenario.clone());
        let new_cache = job.policy.as_ref().map(|p| {
            let digest = p.digest();
            if self.slots[slot_id].wire_policy == Some(digest) {
                request.reuse_policy = true;
            } else {
                request.policy = Some((**p).clone());
            }
            digest
        });
        let slot = &mut self.slots[slot_id];
        let live = slot.live.as_ref().expect("dispatch checked live");
        if live.requests.send(request).is_err() {
            return Err(());
        }
        // The worker mirrors this bookkeeping: a no-policy frame clears
        // its cache, a policy-carrying frame replaces it.
        slot.wire_policy = new_cache;
        slot.state = SlotState::Busy {
            job: id,
            dispatched: Instant::now(),
        };
        Ok(())
    }

    /// Blocks until the next message or the earliest liveness deadline.
    /// `None` means a deadline may have expired.
    fn wait_for_msg(&self) -> Option<PoolMsg> {
        let now = Instant::now();
        let deadline = self.nearest_deadline();
        let wait = match deadline {
            Some(d) if d <= now => return self.msgs_rx.try_recv().ok(),
            Some(d) => d - now,
            // No deadline pending; wake periodically anyway so a logic
            // bug degrades to latency, not a hang.
            None => Duration::from_secs(5),
        };
        self.msgs_rx.recv_timeout(wait).ok()
    }

    /// The earliest instant at which some busy worker must be presumed
    /// dead: its per-request deadline, or prolonged silence on the
    /// stream. Before the hello arrives the silence window uses the
    /// default heartbeat interval — a connected-but-frozen peer that
    /// never handshakes must not hang the fleet, even with the request
    /// timeout disabled. After the hello, a worker that advertised
    /// `heartbeat_ms: 0` opted out of silence detection.
    fn nearest_deadline(&self) -> Option<Instant> {
        self.slots
            .iter()
            .filter_map(|slot| {
                let SlotState::Busy { dispatched, .. } = slot.state else {
                    return None;
                };
                let live = slot.live.as_ref()?;
                let request = self.config.request_timeout.map(|t| dispatched + t);
                let quiet = quiet_deadline(live);
                match (request, quiet) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                }
            })
            .min()
    }

    /// Kills and recycles every busy worker whose deadline has passed.
    fn reap_expired(&mut self) {
        let now = Instant::now();
        for slot_id in 0..self.slots.len() {
            let slot = &self.slots[slot_id];
            let SlotState::Busy { job, dispatched } = slot.state else {
                continue;
            };
            let Some(live) = slot.live.as_ref() else {
                continue;
            };
            let index = self.jobs.get(&job).map(|e| e.job.index).unwrap_or(job);
            let timed_out = self
                .config
                .request_timeout
                .is_some_and(|t| now >= dispatched + t);
            let silent = quiet_deadline(live).is_some_and(|d| now >= d);
            if timed_out {
                self.recycle(
                    slot_id,
                    &format!(
                        "job {index} exceeded the per-request timeout \
                         ({:?}) — presumed wedged",
                        self.config.request_timeout.expect("checked")
                    ),
                );
            } else if silent {
                self.recycle(
                    slot_id,
                    &format!("no frames while running job {index} — presumed dead"),
                );
            }
        }
    }

    fn handle_event(&mut self, event: Event) {
        let slot = &mut self.slots[event.slot];
        // Stale: from a connection this pool already killed.
        let current = slot
            .live
            .as_ref()
            .is_some_and(|l| l.generation == event.generation);
        if !current {
            return;
        }
        if let Some(live) = slot.live.as_mut() {
            // The inter-frame gap on a live connection — heartbeats
            // dominate, so this is the heartbeat-gap distribution the
            // silence detector's assumptions can be checked against.
            self.obs
                .heartbeat_gap
                .record(live.last_frame.elapsed().as_micros() as u64);
            live.last_frame = Instant::now();
        }
        match event.kind {
            EventKind::Frame(WorkerMessage::Hello(hello)) => {
                if hello.protocol != PROTOCOL_VERSION {
                    // A reconnect would meet the same binary: retire.
                    let reason = format!(
                        "speaks fleet protocol v{}, this coordinator speaks v{} \
                         — upgrade the older side",
                        hello.protocol, PROTOCOL_VERSION,
                    );
                    self.replace_worker(event.slot, &reason, false);
                    return;
                }
                firm_obs::event(Level::Debug, TARGET)
                    .msg("worker handshake")
                    .field("slot", event.slot)
                    .field("transport", slot.transport.label())
                    .field("generation", event.generation)
                    .field("pid", hello.pid)
                    .field("heartbeat_ms", hello.heartbeat_ms)
                    .emit();
                if let Some(live) = slot.live.as_mut() {
                    live.hello = Some(hello);
                }
            }
            EventKind::Frame(WorkerMessage::Heartbeat(_)) => {
                // last_frame already refreshed above; nothing else to do.
            }
            EventKind::Frame(WorkerMessage::Response(resp)) => {
                let SlotState::Busy { job, dispatched } = slot.state else {
                    // A worker inventing results is a worker bug; in a
                    // resident pool it costs that worker its session,
                    // never the fleet.
                    let reason =
                        format!("sent a response (index {}) while it had no job", resp.index);
                    self.recycle(event.slot, &reason);
                    return;
                };
                let expected = self.jobs.get(&job).map(|e| e.job.index);
                if expected != Some(resp.index) {
                    let reason = format!(
                        "answered index {} for a dispatch of job index {:?}",
                        resp.index, expected
                    );
                    self.recycle(event.slot, &reason);
                    return;
                }
                let latency_us = dispatched.elapsed().as_micros() as u64;
                self.obs.dispatch_latency.record(latency_us);
                firm_obs::event(Level::Debug, TARGET)
                    .msg("scenario completed")
                    .field("index", resp.index)
                    .field("slot", event.slot)
                    .field("latency_us", latency_us)
                    .emit();
                slot.state = SlotState::Idle;
                let entry = self.jobs.remove(&job).expect("checked above");
                let _ = entry.job.reply.send(JobDone {
                    index: resp.index,
                    result: Ok((resp.outcome, resp.experience)),
                });
            }
            EventKind::Frame(WorkerMessage::Metrics(m)) => {
                // Normally the session-end frame (collected in the
                // post-shutdown drain), but a worker is free to ship a
                // snapshot mid-session too; latest wins.
                self.worker_metrics[event.slot] = Some(m);
            }
            EventKind::BadFrame(msg) => {
                self.obs.bad_frames.inc();
                self.recycle(event.slot, &format!("sent an undecodable frame: {msg}"));
            }
            EventKind::Closed => {
                self.recycle(event.slot, "connection closed unexpectedly");
            }
        }
    }

    /// The restart-and-replay path: tear down a failed worker's
    /// connection, requeue its in-flight job (excluding this slot from
    /// re-running it), and reconnect the slot — or retire it if the
    /// reconnect fails. A job that has exhausted its attempts budget is
    /// delivered as a failure instead of requeued; the pool lives on.
    fn recycle(&mut self, slot_id: usize, reason: &str) {
        self.replace_worker(slot_id, reason, true);
    }

    /// [`PoolRuntime::recycle`], with `reconnect` off for a worker no
    /// reconnect can fix: the slot retires at once.
    fn replace_worker(&mut self, slot_id: usize, reason: &str, reconnect: bool) {
        let label = self.slots[slot_id].transport.label();
        let generation = self.slots[slot_id]
            .live
            .as_ref()
            .map(|l| l.generation)
            .unwrap_or(0);
        // The attempt count *including* this failure, so a stale-frame
        // drop or give-up that follows is attributable from the event
        // stream alone.
        let attempts = match self.slots[slot_id].state {
            SlotState::Busy { job, .. } => self.jobs.get(&job).map(|e| e.attempts + 1).unwrap_or(0),
            _ => 0,
        };
        self.obs.recycled.inc();
        firm_obs::event(Level::Warn, TARGET)
            .msg("recycling worker")
            .field("transport", label.as_str())
            .field("generation", generation)
            .field("attempts", attempts)
            .field("reason", reason)
            .emit();
        self.teardown_live(slot_id, false);

        if let SlotState::Busy { job, .. } = self.slots[slot_id].state {
            if let Some(entry) = self.jobs.get_mut(&job) {
                entry.attempts += 1;
                entry.excluded.insert(slot_id);
                self.obs.retries.inc();
                if entry.attempts >= self.config.max_attempts {
                    let entry = self.jobs.remove(&job).expect("present above");
                    let _ = entry.job.reply.send(JobDone {
                        index: entry.job.index,
                        result: Err(format!(
                            "scenario {} ({}) failed on {} different workers — giving up \
                             rather than emit a partial fleet report",
                            entry.job.index, entry.job.scenario.name, entry.attempts,
                        )),
                    });
                } else {
                    // Front of the queue: a replayed job is the oldest
                    // outstanding work, so it goes next.
                    self.queue.push_front(job);
                }
            }
        }
        self.slots[slot_id].state = SlotState::Idle;

        let reconnected = if reconnect {
            self.connect_slot(slot_id)
                .map_err(|e| format!("reconnect failed: {e}"))
        } else {
            Err(reason.to_string())
        };
        match reconnected {
            Ok(()) => {
                self.obs.restarts.inc();
                firm_obs::event(Level::Info, TARGET)
                    .msg("worker restarted")
                    .field("transport", label.as_str())
                    .field(
                        "generation",
                        self.slots[slot_id]
                            .live
                            .as_ref()
                            .map(|l| l.generation)
                            .unwrap_or(0),
                    )
                    .field("attempts", attempts)
                    .emit();
            }
            Err(why) => {
                self.obs.retired.inc();
                firm_obs::event(Level::Error, TARGET)
                    .msg("retiring worker; survivors absorb its share")
                    .field("transport", label.as_str())
                    .field("generation", generation)
                    .field("error", why.as_str())
                    .emit();
                self.slots[slot_id].state = SlotState::Retired;
                self.last_retirement = format!("{label} {why}");
            }
        }
    }

    /// Opens a connection for a slot and starts its pump threads — the
    /// one place that tells a byte stream from a local worker thread.
    fn connect_slot(&mut self, slot_id: usize) -> std::io::Result<()> {
        let slot = &mut self.slots[slot_id];
        let link = slot.transport.link()?;
        let generation = slot.next_generation;
        slot.next_generation += 1;

        let events = self.msgs_tx.clone();
        // The pool hanging up just means the fleet is done.
        let notify = move |kind| {
            let _ = events.send(PoolMsg::Worker(Event {
                slot: slot_id,
                generation,
                kind,
            }));
        };
        let (requests, outbound) = mpsc::channel::<WorkerRequest>();
        let (pumps, control) = match link {
            Link::Stream(conn) => {
                let mut writer_half = conn.writer;
                let frames_tx = Arc::clone(&self.obs.frames_tx);
                let bytes_tx = Arc::clone(&self.obs.bytes_tx);
                let writer = std::thread::spawn(move || {
                    // Exits when the channel closes (graceful: dropping
                    // the sender also drops/EOFs the stream) or a write
                    // fails (the reader will surface the death as Closed).
                    for request in outbound {
                        let frame = firm_wire::encode_line(&request);
                        frames_tx.inc();
                        bytes_tx.add(frame.len() as u64);
                        if writer_half
                            .write_all(frame.as_bytes())
                            .and_then(|_| writer_half.flush())
                            .is_err()
                        {
                            break;
                        }
                    }
                });

                let mut reader_half = conn.reader;
                let frames_rx_ctr = Arc::clone(&self.obs.frames_rx);
                let bytes_rx_ctr = Arc::clone(&self.obs.bytes_rx);
                let reader = std::thread::spawn(move || {
                    let mut line = String::new();
                    loop {
                        line.clear();
                        let kind = match reader_half.read_line(&mut line) {
                            Ok(0) | Err(_) => EventKind::Closed,
                            Ok(_) if line.trim().is_empty() => continue,
                            Ok(n) => {
                                frames_rx_ctr.inc();
                                bytes_rx_ctr.add(n as u64);
                                match firm_wire::decode_line::<WorkerMessage>(&line) {
                                    Ok(msg) => EventKind::Frame(msg),
                                    Err(e) => EventKind::BadFrame(e.to_string()),
                                }
                            }
                        };
                        let closed = matches!(kind, EventKind::Closed);
                        notify(kind);
                        if closed {
                            break;
                        }
                    }
                });
                (vec![writer, reader], Some(conn.control))
            }
            Link::Local => {
                let worker = std::thread::Builder::new()
                    .name("firm-fleet-local".to_string())
                    .spawn(move || {
                        // A panicking scenario takes this session down,
                        // not silently: the pool must still see Closed.
                        let mut send = |msg| notify(EventKind::Frame(msg));
                        let session = AssertUnwindSafe(|| serve_local(outbound, &mut send));
                        let _ = std::panic::catch_unwind(session);
                        notify(EventKind::Closed);
                    })?;
                (vec![worker], None)
            }
        };

        slot.live = Some(Live {
            requests,
            pumps,
            control,
            generation,
            hello: None,
            last_frame: Instant::now(),
        });
        slot.wire_policy = None;
        Ok(())
    }

    /// Tears down a slot's live connection. `graceful` distinguishes
    /// end-of-fleet (let the worker exit on EOF, check its status) from
    /// failure handling (kill it now).
    fn teardown_live(&mut self, slot_id: usize, graceful: bool) {
        let Some(mut live) = self.slots[slot_id].live.take() else {
            return;
        };
        self.final_generation[slot_id] = Some(live.generation);
        // Closing the request channel ends the session: a stream's
        // writer thread drops the write half — EOF for a healthy worker
        // — and a local worker thread leaves its loop.
        drop(live.requests);
        if !graceful {
            // A local thread cannot be killed: if it is still inside a
            // scenario it is abandoned, not joined — it finishes the
            // orphaned run (wasted work, as on a TCP worker whose
            // connection was killed) and whatever it then sends is stale
            // by generation.
            let Some(control) = live.control.as_mut() else {
                return;
            };
            control.kill();
        }
        for pump in live.pumps {
            let _ = pump.join();
        }
        if let (true, Some(control)) = (graceful, live.control.as_mut()) {
            if let Err(e) = control.finish() {
                panic!(
                    "{} failed after completing its work: {e}",
                    self.slots[slot_id].transport.label()
                );
            }
        }
    }

    /// Graceful end-of-pool teardown: EOF every still-live worker,
    /// collect the session-end metrics frames their readers delivered
    /// during teardown, and answer the shutdown command.
    fn finish_shutdown(mut self) {
        for slot_id in 0..self.slots.len() {
            self.teardown_live(slot_id, true);
        }

        // A worker's metrics frame is the last thing it writes, after
        // the graceful teardown EOF'd its input — so it lands in the
        // message queue *after* the main loop stopped reading. Drain
        // now, accepting only frames from each slot's final connection.
        while let Ok(msg) = self.msgs_rx.try_recv() {
            if let PoolMsg::Worker(event) = msg {
                if let EventKind::Frame(WorkerMessage::Metrics(m)) = event.kind {
                    if self.final_generation[event.slot] == Some(event.generation) {
                        self.worker_metrics[event.slot] = Some(m);
                    }
                }
            }
        }
        let worker_ops: Vec<WorkerOps> = self
            .worker_metrics
            .into_iter()
            .enumerate()
            .filter_map(|(i, metrics)| {
                Some(WorkerOps {
                    label: format!("slot{i}:{}", self.slots[i].transport.label()),
                    metrics: metrics?,
                })
            })
            .collect();
        if let Some(done) = self.shutdown.take() {
            let _ = done.send(worker_ops);
        }
    }
}

/// How long heartbeat silence must last before a worker is presumed
/// dead. Generous (20 intervals, floor 10s) because a busy host
/// legitimately starves ticker threads — this path exists for silent
/// network death, not as the primary timeout.
fn quiet_window(heartbeat_ms: u64) -> Duration {
    Duration::from_millis((heartbeat_ms * 20).max(10_000))
}

/// The instant at which this connection's silence becomes fatal, if
/// silence detection applies: before the hello, always (at the default
/// interval — an unresponsive peer that never handshakes must not hang
/// the fleet); after it, only if the worker advertised heartbeats.
fn quiet_deadline(live: &Live) -> Option<Instant> {
    let interval = match &live.hello {
        None => crate::worker::ServeOptions::default().heartbeat_ms,
        Some(h) => h.heartbeat_ms,
    };
    (interval > 0).then(|| live.last_frame + quiet_window(interval))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{builtin_catalog, FleetController};
    use crate::transport::{Connection, LocalTransport};
    use firm_sim::SimDuration;
    use firm_workload::LoadShape;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn short_catalog(n: usize) -> Vec<Scenario> {
        let catalog = builtin_catalog().into_iter().take(n);
        catalog
            .map(|s| s.with_duration(SimDuration::from_secs(4)))
            .collect()
    }

    /// A scenario whose run panics on any worker (a zero arrival rate
    /// is rejected when the arrival process is built).
    fn poisonous() -> Scenario {
        let mut scenario = builtin_catalog().remove(0);
        scenario.name = "poisonous".to_string();
        scenario.load = LoadShape::Steady { rate: 0.0 };
        scenario.slo_factor = None;
        scenario.controller = FleetController::Unmanaged;
        scenario
    }

    fn local_slots(n: usize) -> Vec<Box<dyn Transport>> {
        (0..n).map(|_| Box::new(LocalTransport) as _).collect()
    }

    fn run(pool: &WorkerPool, index: u64, scenario: Scenario) -> JobDone {
        let (reply, done) = mpsc::channel();
        pool.submit(PoolJob {
            index,
            seed: scenario_seed(1, index as usize),
            scenario,
            policy: None,
            reply,
        });
        let first = done.recv().expect("the pool delivers every job");
        assert!(done.recv().is_err(), "job {index} was delivered twice");
        first
    }

    /// A local slot that counts its sessions and, past `sessions_allowed`
    /// of them, refuses to reconnect.
    struct CountingLocal {
        sessions: Arc<AtomicUsize>,
        sessions_allowed: usize,
    }

    impl Transport for CountingLocal {
        fn label(&self) -> String {
            "counting-local".to_string()
        }

        fn connect(&mut self) -> std::io::Result<Connection> {
            LocalTransport.connect()
        }

        fn link(&mut self) -> std::io::Result<Link> {
            if self.sessions.fetch_add(1, Ordering::SeqCst) >= self.sessions_allowed {
                return Err(std::io::Error::other("gone for good"));
            }
            LocalTransport.link()
        }
    }

    fn counting_slots(
        n: usize,
        sessions_allowed: usize,
    ) -> (Vec<Box<dyn Transport>>, Vec<Arc<AtomicUsize>>) {
        let counters: Vec<_> = (0..n).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        let transports = counters.iter().map(|sessions| {
            Box::new(CountingLocal {
                sessions: Arc::clone(sessions),
                sessions_allowed,
            }) as _
        });
        (transports.collect(), counters)
    }

    #[test]
    fn a_panicking_scenario_fails_only_its_own_job_after_max_attempts() {
        let (transports, sessions) = counting_slots(3, usize::MAX);
        let pool = WorkerPool::start(transports, SupervisorConfig::default()).expect("pool");
        let err = run(&pool, 0, poisonous()).result.expect_err("job fails");
        assert!(err.contains("failed on 3 different workers"), "{err}");
        let good = short_catalog(1).remove(0);
        let done = run(&pool, 1, good.clone());
        let (outcome, _) = done.result.expect("the pool serves the next job");
        assert_eq!(outcome.name, good.name);
        // Every slot ran one attempt and was restarted once, so no slot
        // was handed the job twice. (Read after the next job: the pool
        // delivers a failure before it reconnects the failed slot.)
        let counts: Vec<_> = sessions.iter().map(|s| s.load(Ordering::SeqCst)).collect();
        assert_eq!(counts, [2, 2, 2]);
        assert!(pool.shutdown().is_empty(), "local slots ship no metrics");
    }

    #[test]
    fn a_fully_retired_pool_fails_queued_and_later_jobs_at_once() {
        let (transports, _) = counting_slots(1, 1);
        let config = SupervisorConfig {
            max_attempts: 5,
            ..SupervisorConfig::default()
        };
        let pool = WorkerPool::start(transports, config).expect("pool");
        // The poisonous job takes the only slot down while a healthy
        // job waits behind it; the reconnect fails, the slot retires.
        let (reply, done) = mpsc::channel();
        for (index, scenario) in [poisonous(), short_catalog(1).remove(0)]
            .into_iter()
            .enumerate()
        {
            pool.submit(PoolJob {
                index: index as u64,
                seed: 1,
                scenario,
                policy: None,
                reply: reply.clone(),
            });
        }
        for _ in 0..2 {
            let err = done.recv().expect("delivered").result.expect_err("fails");
            assert!(err.contains("no eligible worker"), "{err}");
            assert!(err.contains("counting-local reconnect failed"), "{err}");
        }
        let later = run(&pool, 2, short_catalog(1).remove(0));
        let err = later.result.expect_err("a retired pool runs nothing");
        assert!(err.contains("no eligible worker"), "{err}");
        pool.shutdown();
    }

    #[test]
    fn run_catalog_is_identical_at_1_2_and_4_local_slots() {
        let catalog = short_catalog(4);
        let results: Vec<_> = [1, 2, 4]
            .into_iter()
            .map(|slots| {
                let pool = WorkerPool::start(local_slots(slots), SupervisorConfig::default())
                    .expect("pool");
                let mut delivered = 0;
                let results = pool
                    .run_catalog((0..).zip(&catalog), 9, None, &mut |_| delivered += 1)
                    .expect("catalog runs");
                assert_eq!(delivered, catalog.len());
                pool.shutdown();
                results
            })
            .collect();
        for (scenario, (outcome, _)) in catalog.iter().zip(&results[0]) {
            assert_eq!(scenario.name, outcome.name, "results left catalog order");
        }
        assert!(results[0]
            .iter()
            .any(|(_, log)| !log.transitions.is_empty()));
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    /// A worker whose whole session is one hello from another protocol
    /// version.
    struct Skewed;

    struct NoControl;

    impl ConnectionControl for NoControl {
        fn kill(&mut self) {}

        fn finish(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Transport for Skewed {
        fn label(&self) -> String {
            "skewed".to_string()
        }

        fn connect(&mut self) -> std::io::Result<Connection> {
            let hello = firm_wire::encode_line(&WorkerMessage::Hello(WorkerHello {
                protocol: PROTOCOL_VERSION + 1,
                pid: 1,
                heartbeat_ms: 0,
            }));
            Ok(Connection {
                writer: Box::new(std::io::sink()),
                reader: Box::new(std::io::Cursor::new(hello.into_bytes())),
                control: Box::new(NoControl),
            })
        }
    }

    #[test]
    fn a_version_skewed_worker_retires_its_slot_not_the_pool() {
        let skew = format!(
            "skewed speaks fleet protocol v{}, this coordinator speaks v{PROTOCOL_VERSION} \
             — upgrade the older side",
            PROTOCOL_VERSION + 1
        );
        let catalog = short_catalog(2);

        // Beside a healthy slot: the survivor absorbs the catalog.
        let mixed: Vec<Box<dyn Transport>> = vec![Box::new(Skewed), Box::new(LocalTransport)];
        let pool = WorkerPool::start(mixed, SupervisorConfig::default()).expect("pool");
        let results = pool.run_catalog((0..).zip(&catalog), 3, None, &mut |_| {});
        assert_eq!(results.expect("the healthy slot serves").len(), 2);
        pool.shutdown();

        // Alone: the job fails with the skew spelled out, and the pool
        // thread is still there to answer the next job and the shutdown.
        let pool =
            WorkerPool::start(vec![Box::new(Skewed)], SupervisorConfig::default()).expect("pool");
        for index in 0..2 {
            let err = run(&pool, index, catalog[0].clone())
                .result
                .expect_err("no worker");
            assert!(err.contains(&skew), "{err}");
        }
        pool.shutdown();
    }
}
