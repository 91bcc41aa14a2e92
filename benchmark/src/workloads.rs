//! The four workloads and their untraced, end-to-end measurement.
//!
//! Two run in-process through `FleetRunner` (`batch-sf100`,
//! `roundtrip-train`); two drive a real `firm-fleet serve` coordinator
//! with two `firm-fleet-worker --listen` children over loopback TCP
//! (`serve-small`, `serve-bulk`). Every run is time-boxed: operations
//! are issued until `--seconds` have passed, and every one of them is
//! checked for correctness.
//!
//! # What `--seed` drives
//!
//! The *catalogs* are the repo's pinned generated catalogs (catalog
//! seed 7; their digests are committed in `BENCH_scale.json`).
//! `--seed` is the fleet seed: every arrival stream, anomaly campaign,
//! exploration-noise stream and DDPG initialisation derives from it, so
//! another seed gives the product other inputs of the same shape.
//! Drawing the catalog from `--seed` too was measured and dropped:
//! sf=100 throughput then has an inter-quartile spread of 20% of its
//! median across seeds (32.5k–46.5k req/s over seeds 1–10), wider than
//! any bound a regression gate could use.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use firm_fleet::{
    builtin_catalog, generate_catalog, run_one, scenario_seed, CatalogSpec, FleetConfig,
    FleetReport, FleetRunner, Scenario, ScenarioOutcome,
};
use firm_serve::{ClientError, ServeClient, SubmissionReport};
use firm_sim::SimDuration;
use firm_wire::JsonValue;

use crate::procs::{cpu_seconds, ensure_bins, reset_own_vm_hwm, vm_hwm_mib, Bins, Topology};
use crate::stats::{median, percentile, sorted};

/// The seed of the generated catalogs (see the module docs).
pub const CATALOG_SEED: u64 = 7;

/// The seed `expected.json` pins digests for.
pub const PINNED_SEED: u64 = 7;

/// Threads the in-process workloads run on, and the client connections
/// `serve-bulk` uses: the host's two cores.
pub const LOAD_THREADS: usize = 2;

/// How often a serve workload sets up (spawn, connect, warm-up
/// submission); `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// How many of client 0's submission digests (warm-up first) a run
/// logs and `expected.json` pins.
const PINNED_SUBMISSIONS: usize = 16;

/// `serve-small` also logs and pins the digest of the cumulative
/// report over this many leading scenarios, built client-side.
const CUMULATIVE_PREFIX: usize = 32;

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The fleet seed.
    pub seed: u64,
    /// How long the timed section lasts.
    pub seconds: f64,
    /// Smoke mode: no warm-up, one set-up, first-sample verification
    /// only. Results are marked and `compare` refuses them.
    pub quick: bool,
    /// When the harness started (after compilation).
    pub started: Instant,
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations issued (iterations or submissions).
    pub attempted: u64,
    /// Operations rejected, errored, or failing a correctness check.
    pub failed: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
    /// The digests the run saw, for the log (and for re-pinning
    /// `expected.json` after a deliberate behaviour change).
    pub digests: Vec<String>,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
}

impl RunResult {
    /// True when every operation succeeded and checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub(crate) fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// The value of a metric this run reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// One of the four workloads, by how it runs.
pub enum Workload {
    /// A catalog iterated in-process through `FleetRunner`.
    InProcess(InProcess),
    /// A closed loop against a real coordinator and two TCP workers.
    Serve(ServeKind),
}

impl Workload {
    /// The workload `BENCHMARK.json` calls `name`.
    pub fn named(name: &str) -> Option<Workload> {
        match name {
            "batch-sf100" => Some(Workload::InProcess(InProcess::batch_sf100())),
            "roundtrip-train" => Some(Workload::InProcess(InProcess::roundtrip_train())),
            "serve-small" => Some(Workload::Serve(ServeKind::Small)),
            "serve-bulk" => Some(Workload::Serve(ServeKind::Bulk)),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Pinned digests.
// ---------------------------------------------------------------------

/// Digests pinned in `expected.json` for [`PINNED_SEED`].
pub struct Expected(JsonValue);

impl Expected {
    /// Parses the `expected.json` compiled into the harness.
    pub fn load() -> Expected {
        let doc = firm_wire::parse(include_str!("../expected.json")).expect("expected.json parses");
        assert_eq!(
            doc.get("seed"),
            Some(&JsonValue::U64(PINNED_SEED)),
            "expected.json pins another seed"
        );
        Expected(doc)
    }

    /// The digests pinned for `workload`, as the run's `digests:` log
    /// line prints them; none at a seed other than [`PINNED_SEED`].
    pub fn pins(&self, workload: &str, seed: u64) -> Vec<String> {
        if seed != PINNED_SEED {
            return Vec::new();
        }
        let list = self.0.get(workload).and_then(|w| w.get("digests"));
        list.and_then(|l| l.as_array().ok())
            .unwrap_or_default()
            .iter()
            .map(|d| d.as_str().expect("a pin is a string").to_string())
            .collect()
    }
}

/// Fails the run once for every digest it logged that differs from its
/// pin. A run may log fewer digests than are pinned, or more.
pub(crate) fn check_pins(result: &mut RunResult, pins: &[String]) {
    let mismatches: Vec<String> = result
        .digests
        .iter()
        .zip(pins)
        .enumerate()
        .filter(|(_, (seen, pin))| seen != pin)
        .map(|(i, (seen, pin))| format!("digest {i} is {seen}, pinned {pin}"))
        .collect();
    mismatches.into_iter().for_each(|m| result.fail(m));
}

// ---------------------------------------------------------------------
// In-process workloads.
// ---------------------------------------------------------------------

/// A catalog run in-process through `FleetRunner`: the two in-process
/// workloads, and what the traced run executes for a serve workload's
/// catalog.
pub struct InProcess {
    /// The workload's name.
    pub name: &'static str,
    /// Builds the catalog (timed on its own in the traced run).
    pub generate: fn() -> Vec<Scenario>,
    /// The scenarios every iteration runs.
    pub catalog: Vec<Scenario>,
    /// Shared-agent minibatch updates per iteration.
    pub train_steps: usize,
    /// Train, freeze, redeploy (`run_round_trip`) instead of one pass.
    pub round_trip: bool,
}

/// What one iteration produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Iteration {
    /// Wall time of the `FleetRunner` call, seconds.
    pub wall_s: f64,
    /// `utime+stime` this process spent in it, seconds.
    pub cpu_s: f64,
    /// Simulated requests completed (both passes of a round trip).
    pub completions: u64,
    /// The report digest (the round-trip report's for a round trip).
    pub digest: u64,
}

impl InProcess {
    /// `batch-sf100`: the sf=100 generated catalog, 128 train steps.
    pub fn batch_sf100() -> InProcess {
        let generate = || generate_catalog(&CatalogSpec::new(CATALOG_SEED, 100));
        InProcess {
            name: "batch-sf100",
            generate,
            catalog: generate(),
            train_steps: 128,
            round_trip: false,
        }
    }

    /// `roundtrip-train`: the 12 hand-written scenarios, 4096 train
    /// steps, train-then-deploy.
    pub fn roundtrip_train() -> InProcess {
        InProcess {
            name: "roundtrip-train",
            generate: builtin_catalog,
            catalog: builtin_catalog(),
            train_steps: 4096,
            round_trip: true,
        }
    }

    /// Runs the catalog once at the given thread count and fleet seed.
    pub fn iterate(&self, threads: usize, fleet_seed: u64) -> Iteration {
        let runner = FleetRunner::new(FleetConfig {
            threads,
            seed: fleet_seed,
            train_steps: self.train_steps,
            ..FleetConfig::default()
        });
        let (started, cpu_before) = (Instant::now(), cpu_seconds(None));
        let (completions, digest) = if self.round_trip {
            let rt = runner.run_round_trip(&self.catalog);
            let completions = rt.train.report.totals.completions + rt.deploy.totals.completions;
            (completions, rt.report().digest())
        } else {
            let result = runner.run(&self.catalog);
            (result.report.totals.completions, result.report.digest())
        };
        Iteration {
            wall_s: started.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds(None) - cpu_before,
            completions,
            digest,
        }
    }
}

/// Runs an in-process workload untraced and reports the end-to-end
/// metrics. The single-thread warm-up doubles as the reference for the
/// determinism check: iteration 0 repeats its fleet seed on two
/// threads and must reproduce its digest.
pub fn run_in_process(workload: &InProcess, opts: &Options, expected: &Expected) -> RunResult {
    let mut result = RunResult::default();
    let reference = (!opts.quick).then(|| workload.iterate(1, opts.seed));
    let setup_s = opts.started.elapsed().as_secs_f64();

    // Peak memory is a maximum, and the heaviest fleet seed in a run
    // sets it (34 to 60 MiB across seeds on batch-sf100). The mark is
    // restarted before every iteration and the median peak reported,
    // which stays put when one seed's anomalies pile up a queue.
    let timed = Instant::now();
    let mut iterations = Vec::new();
    let mut peaks_mib = Vec::new();
    while iterations.is_empty() || timed.elapsed().as_secs_f64() < opts.seconds {
        let fleet_seed = opts.seed.wrapping_add(iterations.len() as u64);
        reset_own_vm_hwm();
        iterations.push(workload.iterate(LOAD_THREADS, fleet_seed));
        peaks_mib.push(vm_hwm_mib(None));
    }

    result.attempted = iterations.len() as u64;
    result.digests = iterations
        .iter()
        .map(|it| format!("{:016x}", it.digest))
        .collect();
    check_pins(&mut result, &expected.pins(workload.name, opts.seed));
    if let Some(i) = iterations.iter().position(|it| it.completions == 0) {
        result.fail(format!("iteration {i} completed no requests"));
    }
    if reference.is_some_and(|r| r.digest != iterations[0].digest) {
        result.fail(format!(
            "iteration 0 digest {} at {LOAD_THREADS} threads differs from the 1-thread warm-up's",
            result.digests[0]
        ));
    }

    // Medians over iterations, not ratios of sums: the work a fleet
    // seed offers varies by 13% (flash crowds land inside the run or
    // not), and one heavy seed would drag a mean.
    let rates: Vec<f64> = iterations
        .iter()
        .map(|it| it.completions as f64 / it.wall_s)
        .collect();
    let walls_ms: Vec<f64> = iterations.iter().map(|it| it.wall_s * 1e3).collect();
    let cpu_per_mreq: Vec<f64> = iterations
        .iter()
        .map(|it| it.cpu_s / (it.completions.max(1) as f64 / 1e6))
        .collect();
    result.metrics = vec![
        ("setup_s", setup_s),
        ("sim_requests_per_s", median(&rates)),
        ("submit_ms_p50", median(&walls_ms)),
        ("cpu_s_per_mreq", median(&cpu_per_mreq)),
        ("peak_rss_mib", median(&peaks_mib)),
    ];
    result
}

// ---------------------------------------------------------------------
// Serve workloads.
// ---------------------------------------------------------------------

/// Which of the two serve workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// One client, 2-scenario slices of the sf=1 catalog (3 s each).
    Small,
    /// Two clients, the whole sf=10 catalog per submission.
    Bulk,
}

impl ServeKind {
    /// The workload's name.
    pub const fn name(self) -> &'static str {
        match self {
            ServeKind::Small => "serve-small",
            ServeKind::Bulk => "serve-bulk",
        }
    }

    /// The catalog submissions are cut from, and the coordinator's
    /// retrain budget per fold — as the in-process run the traced pass
    /// executes.
    pub fn in_process(self) -> InProcess {
        let (generate, train_steps): (fn() -> Vec<Scenario>, usize) = match self {
            ServeKind::Small => (
                || {
                    let mut spec = CatalogSpec::new(CATALOG_SEED, 1);
                    spec.duration = SimDuration::from_secs(3);
                    spec.warmup = SimDuration::from_secs(1);
                    generate_catalog(&spec)
                },
                16,
            ),
            ServeKind::Bulk => (
                || generate_catalog(&CatalogSpec::new(CATALOG_SEED, 10)),
                128,
            ),
        };
        InProcess {
            name: self.name(),
            generate,
            catalog: generate(),
            train_steps,
            round_trip: false,
        }
    }

    const fn clients(self) -> usize {
        match self {
            ServeKind::Small => 1,
            ServeKind::Bulk => LOAD_THREADS,
        }
    }

    /// How many of client 0's submissions make the warm-up: one pass
    /// over the catalog.
    fn warm_up_submissions(self, catalog: &[Scenario]) -> usize {
        match self {
            ServeKind::Small => catalog.len() / 2,
            ServeKind::Bulk => 1,
        }
    }

    /// Every how many submissions of a client one is re-run in-process.
    const fn verify_stride(self) -> usize {
        match self {
            ServeKind::Small => 50,
            ServeKind::Bulk => 15,
        }
    }

    /// Client `client`'s `i`-th submission: `(seed, base_index,
    /// scenarios)`. `serve-small` walks the catalog in 2-scenario
    /// slices with one seed and continuous base indices; `serve-bulk`
    /// resubmits the whole catalog under a per-client seed at base
    /// index `i × len`.
    fn submission(
        self,
        catalog: &[Scenario],
        fleet_seed: u64,
        client: usize,
        i: usize,
    ) -> (u64, u64, Vec<Scenario>) {
        match self {
            ServeKind::Small => {
                let at = (2 * i) % catalog.len();
                (fleet_seed, 2 * i as u64, catalog[at..at + 2].to_vec())
            }
            ServeKind::Bulk => (
                fleet_seed.wrapping_add(client as u64),
                (i * catalog.len()) as u64,
                catalog.to_vec(),
            ),
        }
    }
}

/// One submission as the client saw it.
pub struct SubmissionRecord {
    /// Which client connection issued it.
    pub client: usize,
    /// Its position in that client's sequence.
    pub index: usize,
    /// `submit` frame about to be written.
    pub start: Instant,
    /// First `outcome` frame decoded.
    pub first_outcome: Instant,
    /// Last `outcome` frame decoded.
    pub last_outcome: Instant,
    /// `report` frame decoded.
    pub end: Instant,
    /// The report, or why there is none.
    pub report: Result<SubmissionReport, ClientError>,
}

impl SubmissionRecord {
    /// Submit-to-report latency, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// Everything a serve run produced, for the end-to-end metrics and —
/// in a traced run — the per-layer ones.
pub struct ServeRun {
    /// Correctness bookkeeping and the end-to-end metrics.
    pub result: RunResult,
    /// Every timed submission, by client then index.
    pub records: Vec<SubmissionRecord>,
    /// Peak resident memory of the coordinator at the end, MiB.
    pub coordinator_rss_mib: f64,
    /// Summed peak resident memory of the workers at the end, MiB.
    pub workers_rss_mib: f64,
    /// Seconds `cargo build` of the product binaries took.
    pub build_s: f64,
}

fn submit_timed(
    client: &mut ServeClient,
    client_id: usize,
    index: usize,
    (seed, base_index, scenarios): (u64, u64, Vec<Scenario>),
) -> SubmissionRecord {
    let start = Instant::now();
    let mut first_outcome = None;
    let mut last_outcome = start;
    let report = client.submit(seed, base_index, scenarios, &mut |_, _| {
        last_outcome = Instant::now();
        first_outcome.get_or_insert(last_outcome);
    });
    SubmissionRecord {
        client: client_id,
        index,
        start,
        first_outcome: first_outcome.unwrap_or(start),
        last_outcome,
        end: Instant::now(),
        report,
    }
}

/// The digest an in-process run of the same slice, seed and base index
/// produces — what the served report must equal.
fn reference_digest(seed: u64, base_index: u64, scenarios: &[Scenario]) -> u64 {
    let outcomes: Vec<ScenarioOutcome> = scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| run_one(s, scenario_seed(seed, base_index as usize + i)).0)
        .collect();
    FleetReport::new(seed, outcomes).digest()
}

/// One set-up: spawn the topology, connect every client, and push
/// client 0's first submissions through as the warm-up — one pass over
/// the catalog, so every worker has run every kind of scenario and the
/// set-up time is mostly simulation rather than `fork`.
fn set_up(
    kind: ServeKind,
    bins: &Bins,
    plan: &InProcess,
    opts: &Options,
    obs_out: Option<&Path>,
) -> Result<(Topology, Vec<ServeClient>, Vec<SubmissionReport>), String> {
    let topology = Topology::spawn(bins, opts.seed, plan.train_steps, obs_out)?;
    let mut clients = (0..kind.clients())
        .map(|_| ServeClient::connect(&topology.addr).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let warm_up = (0..kind.warm_up_submissions(&plan.catalog))
        .map(|i| {
            let (seed, base_index, scenarios) = kind.submission(&plan.catalog, opts.seed, 0, i);
            clients[0]
                .submit(seed, base_index, scenarios, &mut |_, _| {})
                .map_err(|e| format!("warm-up submission {i}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((topology, clients, warm_up))
}

/// One client's closed loop: submit, wait for the report, submit the
/// next, until the time is up.
fn closed_loop(
    kind: ServeKind,
    catalog: &[Scenario],
    opts: &Options,
    (client_id, client): (usize, &mut ServeClient),
    first: usize,
    timed: Instant,
) -> Vec<SubmissionRecord> {
    let mut records: Vec<SubmissionRecord> = Vec::new();
    while records.is_empty() || timed.elapsed().as_secs_f64() < opts.seconds {
        let i = first + records.len();
        let submission = kind.submission(catalog, opts.seed, client_id, i);
        let record = submit_timed(client, client_id, i, submission);
        // A rejection leaves the session usable; a transport or
        // protocol error ends it.
        let broken = matches!(
            record.report,
            Err(ClientError::Io(_) | ClientError::Protocol(_))
        );
        records.push(record);
        if broken {
            break;
        }
    }
    records
}

/// Re-runs a sample of each client's submissions in-process — the
/// first, the last and every `verify_stride`-th — and fails the run
/// for every served digest that differs.
fn verify_sample(
    result: &mut RunResult,
    kind: ServeKind,
    catalog: &[Scenario],
    opts: &Options,
    per_client: &[Vec<SubmissionRecord>],
) {
    let mut to_verify: Vec<(&SubmissionRecord, u64)> = Vec::new();
    for records in per_client {
        for (n, record) in records.iter().enumerate() {
            result.attempted += 1;
            match &record.report {
                Err(e) => result.fail(format!(
                    "client {} submission {}: {e}",
                    record.client, record.index
                )),
                Ok(report) => {
                    let sampled = n == 0
                        || (!opts.quick
                            && (n + 1 == records.len() || n % kind.verify_stride() == 0));
                    if sampled {
                        to_verify.push((record, report.report.digest()));
                    }
                }
            }
        }
    }
    let next = AtomicUsize::new(0);
    let verifier = || {
        let mut bad = Vec::new();
        while let Some((record, served)) = to_verify.get(next.fetch_add(1, Ordering::Relaxed)) {
            let (client, index) = (record.client, record.index);
            let (seed, base, scenarios) = kind.submission(catalog, opts.seed, client, index);
            let reference = reference_digest(seed, base, &scenarios);
            if reference != *served {
                bad.push(format!(
                    "client {client} submission {index}: served digest {served:016x}, in-process {reference:016x}"
                ));
            }
        }
        bad
    };
    let mismatches: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..LOAD_THREADS).map(|_| scope.spawn(verifier)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verifier thread"))
            .collect()
    });
    mismatches.into_iter().for_each(|m| result.fail(m));
}

/// Runs a serve workload against real child processes and reports the
/// end-to-end metrics. `obs_out` (traced runs) has the coordinator
/// write its `ops_report` there on shutdown.
pub fn run_serve(
    kind: ServeKind,
    opts: &Options,
    expected: &Expected,
    obs_out: Option<&Path>,
) -> Result<ServeRun, String> {
    let bins = ensure_bins()?;
    let mut result = RunResult::default();

    // Process spawn is noisy; set-up is done several times and the
    // median reported.
    let catalog_started = Instant::now();
    let plan = kind.in_process();
    let catalog = &plan.catalog;
    let catalog_s = catalog_started.elapsed().as_secs_f64();
    let mut setup_times = Vec::new();
    let mut live = None;
    for _ in 0..if opts.quick { 1 } else { SETUP_REPEATS } {
        drop(live.take());
        let started = Instant::now();
        live = Some(set_up(kind, &bins, &plan, opts, obs_out)?);
        setup_times.push(started.elapsed().as_secs_f64());
    }
    let (mut topology, mut clients, warm_up) = live.expect("at least one set-up ran");
    let setup_s = catalog_s + median(&setup_times);

    // The timed section: every client closed-loop on its own thread.
    // Client 0 continues after its warm-up submissions.
    let cpu_before = cpu_seconds(None) + topology.cpu_seconds();
    let timed = Instant::now();
    let per_client: Vec<Vec<SubmissionRecord>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let first = if c == 0 { warm_up.len() } else { 0 };
                scope.spawn(move || closed_loop(kind, catalog, opts, (c, client), first, timed))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = timed.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds(None) + topology.cpu_seconds() - cpu_before;
    // A worker keeps the heap of the heaviest scenario it ever ran, so
    // restarting the marks per submission would read the same maximum;
    // the plain end-of-run peak is reported.
    let coordinator_rss_mib = topology.coordinator_rss_mib();
    let workers_rss_mib = topology.workers_rss_mib();

    verify_sample(&mut result, kind, catalog, opts, &per_client);

    // Client 0's reports in submission order, warm-up first: their
    // digests against the pins, and — for serve-small, which folds in
    // submission order — their concatenation against the coordinator's
    // cumulative report. serve-bulk's cumulative digest depends on
    // which client's fold won each race, so it is not checked.
    let client0: Vec<&SubmissionReport> = warm_up
        .iter()
        .chain(per_client[0].iter().filter_map(|r| r.report.as_ref().ok()))
        .collect();
    let served = client0.iter().take(PINNED_SUBMISSIONS);
    result.digests = served
        .map(|rep| format!("{:016x}", rep.report.digest()))
        .collect();
    let shutdown = clients[0].shutdown();
    if let (Ok(cumulative), ServeKind::Small) = (&shutdown, kind) {
        let outcomes: Vec<ScenarioOutcome> = client0
            .iter()
            .flat_map(|rep| rep.report.scenarios.iter().cloned())
            .collect();
        if let Some(prefix) = outcomes.get(..CUMULATIVE_PREFIX) {
            let digest = FleetReport::new(opts.seed, prefix.to_vec()).digest();
            result.digests.push(format!("cumulative:{digest:016x}"));
        }
        let rebuilt = FleetReport::new(opts.seed, outcomes).digest();
        if rebuilt != cumulative.report.digest() {
            result.fail(format!(
                "cumulative digest {:016x} differs from the submissions' concatenation {rebuilt:016x}",
                cumulative.report.digest()
            ));
        }
    }
    check_pins(&mut result, &expected.pins(kind.name(), opts.seed));
    drop(clients);
    match shutdown {
        Err(e) => result.fail(format!("shutdown: {e}")),
        Ok(_) => {
            let limit = std::time::Duration::from_secs(20);
            if !topology.coordinator.exited_cleanly_within(limit) {
                result.fail("the coordinator did not exit cleanly after shutdown".to_string());
            }
        }
    }
    drop(topology);

    let records: Vec<SubmissionRecord> = per_client.into_iter().flatten().collect();
    let answered = || records.iter().filter_map(|r| r.report.as_ref().ok());
    let completions: u64 = answered().map(|rep| rep.report.totals.completions).sum();
    let latencies = sorted(
        records
            .iter()
            .filter(|r| r.report.is_ok())
            .map(SubmissionRecord::latency_ms)
            .collect(),
    );
    let submit_ms_p50 = if latencies.is_empty() {
        0.0
    } else {
        percentile(&latencies, 50.0)
    };
    result.metrics = vec![
        ("setup_s", setup_s),
        ("sim_requests_per_s", completions as f64 / wall_s),
        ("submit_ms_p50", submit_ms_p50),
        ("cpu_s_per_mreq", cpu_s / (completions.max(1) as f64 / 1e6)),
        ("peak_rss_mib", coordinator_rss_mib + workers_rss_mib),
    ];
    Ok(ServeRun {
        result,
        records,
        coordinator_rss_mib,
        workers_rss_mib,
        build_s: bins.build_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_in_the_spec_resolves_and_nothing_else_does() {
        for (name, _) in crate::spec::WORKLOADS {
            match Workload::named(name) {
                Some(Workload::InProcess(w)) => assert_eq!(w.name, name),
                Some(Workload::Serve(kind)) => assert_eq!(kind.name(), name),
                None => panic!("{name} is in the spec but does not resolve"),
            }
        }
        assert!(Workload::named("serve-medium").is_none());
    }

    #[test]
    fn every_digest_that_differs_from_its_pin_fails_the_run() {
        let expected = Expected::load();
        assert!(expected.pins("batch-sf100", PINNED_SEED + 1).is_empty());
        let pins = expected.pins("batch-sf100", PINNED_SEED);
        // The sf=100 digest committed in BENCH_scale.json.
        assert_eq!(pins[0], "cb6af1e54e689487");

        let mut run = RunResult {
            attempted: 3,
            digests: pins[..3].to_vec(),
            ..RunResult::default()
        };
        check_pins(&mut run, &pins);
        assert!(run.correct(), "a shorter, matching run is fine");

        run.digests = pins.clone();
        run.digests[1] = "0000000000000000".to_string();
        run.digests
            .push("an iteration beyond the pinned ones".to_string());
        check_pins(&mut run, &pins);
        assert_eq!(run.failed, 1, "one mismatch; the unpinned extra is fine");
        assert!(!run.correct());
    }
}
