//! Multi-node supervision: a fleet sharded over TCP workers must be
//! *bit-identical* to the in-process and subprocess paths — report
//! bytes, digest, pooled experience, trained shared-agent weights, and
//! round-trip policy bytes — even when a worker crashes, wedges, or
//! corrupts a frame mid-catalog and the supervisor re-dispatches its
//! scenarios.
//!
//! These tests spawn real `firm-fleet-worker --listen` processes and
//! inject faults with `firm_chaos::ChaosTransport`: a seeded
//! [`FaultPlan`] wraps each worker's [`TcpTransport`] so the planned
//! fault fires at its planned frame — no environment variables, no
//! latch files, and the worker binary itself stays honest (it sees a
//! broken link exactly as it would in production).

mod util;

use std::io;
use std::sync::atomic::Ordering;
use std::time::Duration;

use firm_chaos::{ChaosTransport, FaultKind, FaultPlan};
use firm_fleet::transport::{Connection, TcpTransport, Transport};
use firm_fleet::{FleetConfig, FleetRunner};
use util::{full_catalog, TcpWorker};

fn base_config(seed: u64, train_steps: usize) -> FleetConfig {
    FleetConfig {
        threads: 2,
        worker_bin: Some(util::worker_bin()),
        seed,
        train_steps,
        ..FleetConfig::default()
    }
}

/// One chaos-wrapped TCP transport per worker, all carrying `fault` on
/// connection generation 0, plus the injection counters to assert on.
fn chaotic_tcp(
    workers: &[TcpWorker],
    fault: FaultKind,
) -> (
    Vec<Box<dyn Transport>>,
    Vec<std::sync::Arc<std::sync::atomic::AtomicU64>>,
) {
    let mut transports = Vec::new();
    let mut counters = Vec::new();
    for worker in workers {
        let chaos = ChaosTransport::new(
            Box::new(TcpTransport::new(worker.addr.clone())),
            FaultPlan::from_faults(vec![Some(fault)]),
        );
        counters.push(chaos.injection_counter());
        transports.push(Box::new(chaos) as Box<dyn Transport>);
    }
    (transports, counters)
}

fn assert_identical(
    baseline: &firm_fleet::FleetResult,
    other: &firm_fleet::FleetResult,
    what: &str,
) {
    assert_eq!(
        baseline.report.to_json(),
        other.report.to_json(),
        "report bytes changed {what}"
    );
    assert_eq!(baseline.report.digest(), other.report.digest());
    assert_eq!(
        baseline.pooled, other.pooled,
        "pooled experience changed {what}"
    );
    assert_eq!(
        baseline.estimator.shared_agent().export_weights(),
        other.estimator.shared_agent().export_weights(),
        "trained weights changed {what}"
    );
}

/// The zero-failure half: the full catalog over 2 TCP workers
/// reproduces the in-process *and* subprocess results bit for bit.
#[test]
fn tcp_fleet_matches_in_process_and_subprocess_bit_for_bit() {
    let scenarios = full_catalog(4);
    let in_process = FleetRunner::new(base_config(2026, 48)).run(&scenarios);
    let subprocess = FleetRunner::new(base_config(2026, 48).workers(2)).run(&scenarios);

    let workers = [TcpWorker::spawn(), TcpWorker::spawn()];
    let addrs: Vec<&str> = workers.iter().map(|w| w.addr.as_str()).collect();
    let tcp = FleetRunner::new(base_config(2026, 48).remote_workers(&addrs)).run(&scenarios);

    for (label, other) in [("subprocess", &subprocess), ("tcp", &tcp)] {
        assert_identical(&in_process, other, &format!("on the {label} path"));
    }
}

/// Round trip over TCP: the frozen policy bytes and the combined
/// report reproduce the in-process run exactly.
#[test]
fn tcp_round_trip_reproduces_policy_bytes_and_digest() {
    let scenarios: Vec<_> = full_catalog(4).into_iter().take(3).collect();
    let in_process = FleetRunner::new(base_config(77, 32)).run_round_trip(&scenarios);

    let workers = [TcpWorker::spawn(), TcpWorker::spawn()];
    let addrs: Vec<&str> = workers.iter().map(|w| w.addr.as_str()).collect();
    let tcp =
        FleetRunner::new(base_config(77, 32).remote_workers(&addrs)).run_round_trip(&scenarios);

    assert_eq!(
        in_process.policy, tcp.policy,
        "frozen policy bytes diverged over TCP"
    );
    assert_eq!(in_process.policy.digest(), tcp.policy.digest());
    assert_eq!(in_process.report().to_json(), tcp.report().to_json());
    assert_eq!(in_process.report().digest(), tcp.report().digest());
    assert_eq!(
        tcp.deploy.totals.transitions, 0,
        "TCP deploy pass was not pure inference"
    );
}

/// The crash path: every worker's connection dies at its second request
/// frame (generation 0 of its fault plan). The supervisor sees the
/// broken link, reconnects (generation 1 is clean — over TCP that is
/// the same still-alive worker process), and replays the in-flight
/// scenario — and every output byte still matches the fault-free run.
///
/// At least one injection is *guaranteed*, not probabilistic: the
/// catalog's request frames outnumber the slots, so some slot must
/// attempt a second write.
#[test]
fn tcp_connection_crash_mid_catalog_leaves_all_bytes_identical() {
    let scenarios = full_catalog(4);
    let baseline = FleetRunner::new(base_config(99, 48)).run(&scenarios);

    let workers = [TcpWorker::spawn(), TcpWorker::spawn()];
    let (transports, counters) = chaotic_tcp(&workers, FaultKind::CrashTx { after_frames: 1 });
    let tcp = FleetRunner::new(base_config(99, 48)).run_with_transports(&scenarios, transports);

    let injected: u64 = counters.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    assert!(
        injected >= 1,
        "no crash was injected — this run exercised nothing"
    );
    assert_identical(&baseline, &tcp, "after a connection crash mid-catalog");
}

/// The timeout path: worker 0's link silently swallows every request
/// (the worker never sees the job, its heartbeats keep flowing — a
/// wedge the heartbeat cannot catch). The supervisor's per-request
/// timeout reaps the session, reconnects cleanly, and the scenario
/// replays — bit-identically.
#[test]
fn tcp_blackholed_worker_times_out_and_its_scenario_replays_identically() {
    let scenarios: Vec<_> = full_catalog(4).into_iter().take(6).collect();
    let baseline = FleetRunner::new(base_config(41, 32)).run(&scenarios);

    let workers = [TcpWorker::spawn(), TcpWorker::spawn()];
    let chaos = ChaosTransport::new(
        Box::new(TcpTransport::new(workers[0].addr.clone())),
        FaultPlan::from_faults(vec![Some(FaultKind::BlackholeTx { after_frames: 0 })]),
    );
    let injected = chaos.injection_counter();
    let transports: Vec<Box<dyn Transport>> = vec![
        Box::new(chaos),
        Box::new(TcpTransport::new(workers[1].addr.clone())),
    ];
    let mut config = base_config(41, 32);
    config.supervisor.request_timeout = Some(Duration::from_secs(3));
    let tcp = FleetRunner::new(config).run_with_transports(&scenarios, transports);

    assert!(
        injected.load(Ordering::Relaxed) >= 1,
        "the blackhole never swallowed a request — this run exercised nothing"
    );
    assert_identical(&baseline, &tcp, "after a blackholed worker timed out");
}

/// The corruption path: one worker frame arrives with a flipped high
/// bit (invalid UTF-8 — always detected, never a plausible decoy
/// frame). The supervisor recycles the session and the fleet's output
/// does not move.
#[test]
fn tcp_corrupted_frame_is_detected_and_replayed_identically() {
    let scenarios: Vec<_> = full_catalog(4).into_iter().take(5).collect();
    let baseline = FleetRunner::new(base_config(58, 24)).run(&scenarios);

    let workers = [TcpWorker::spawn(), TcpWorker::spawn()];
    // Frame 2 is the first frame after the hello — corrupting it is
    // guaranteed to fire on both slots.
    let (transports, counters) = chaotic_tcp(&workers, FaultKind::CorruptRx { frame: 2 });
    let tcp = FleetRunner::new(base_config(58, 24)).run_with_transports(&scenarios, transports);

    let injected: u64 = counters.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    assert!(
        injected >= 2,
        "both slots should have served one corrupt frame (got {injected})"
    );
    assert_identical(&baseline, &tcp, "after a corrupted worker frame");
}

/// A transport whose reconnect always fails: generation 0 connects
/// through the inner transport, every later generation errors — the
/// worker is gone for good.
struct DiesForGood {
    inner: TcpTransport,
    connected: bool,
}

impl Transport for DiesForGood {
    fn label(&self) -> String {
        format!("dies-for-good:{}", self.inner.label())
    }

    fn connect(&mut self) -> io::Result<Connection> {
        if self.connected {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "the worker never comes back",
            ));
        }
        self.connected = true;
        self.inner.connect()
    }
}

/// The retire path: worker 0's connection crashes *and* its reconnect
/// fails (the worker is gone for good). The supervisor retires the
/// slot and the survivor absorbs the whole remaining catalog —
/// bit-identically.
#[test]
fn tcp_worker_gone_for_good_retires_and_the_survivor_absorbs_its_work() {
    let scenarios: Vec<_> = full_catalog(4).into_iter().take(5).collect();
    let baseline = FleetRunner::new(base_config(17, 24)).run(&scenarios);

    let workers = [TcpWorker::spawn(), TcpWorker::spawn()];
    let chaos = ChaosTransport::new(
        Box::new(DiesForGood {
            inner: TcpTransport::new(workers[0].addr.clone()),
            connected: false,
        }),
        FaultPlan::from_faults(vec![Some(FaultKind::CrashTx { after_frames: 0 })]),
    );
    let injected = chaos.injection_counter();
    let transports: Vec<Box<dyn Transport>> = vec![
        Box::new(chaos),
        Box::new(TcpTransport::new(workers[1].addr.clone())),
    ];
    let tcp = FleetRunner::new(base_config(17, 24)).run_with_transports(&scenarios, transports);

    assert_eq!(
        injected.load(Ordering::Relaxed),
        1,
        "slot 0 should crash exactly once and then be retired"
    );
    assert_identical(&baseline, &tcp, "after a worker was retired for good");
}

/// A mixed pool — one subprocess pipe, one TCP worker — drains the same
/// catalog to the same bytes. (Transports are interchangeable per
/// worker, not just per fleet.)
#[test]
fn mixed_pipe_and_tcp_pool_is_bit_identical() {
    let scenarios: Vec<_> = full_catalog(4).into_iter().take(5).collect();
    let baseline = FleetRunner::new(base_config(7, 16)).run(&scenarios);

    let worker = TcpWorker::spawn();
    let mixed = FleetRunner::new(
        base_config(7, 16)
            .workers(1)
            .remote_workers(&[worker.addr.as_str()]),
    )
    .run(&scenarios);

    assert_eq!(baseline.report.to_json(), mixed.report.to_json());
    assert_eq!(baseline.pooled, mixed.pooled);
}
