//! The chaos soak: the fleet's recovery machinery, driven by seeded
//! fault plans, must never move an output byte.
//!
//! Layer one runs a catalog over TCP workers whose links suffer
//! `firm_chaos` fault plans (crash, drop, truncation, corruption,
//! blackhole, plus benign stalls and heartbeat suppression) for eight
//! chaos seeds, asserting report bytes, digest, pooled experience, and
//! trained weights are bit-identical to the fault-free run every time.
//! Layer two adds the serve path: clients submit catalog slices to a
//! resident server over chaos-wrapped workers and hang up mid-stream on
//! the schedule `FaultPlan::client_disconnect_after` derives — and the
//! resident state still reproduces the batch run exactly.
//!
//! Workers are in-process TCP sessions (a thread per connection running
//! [`firm::fleet::worker::serve_session`]) so the soak is
//! self-contained; the subprocess transport is chaos-tested in the
//! fleet crate's own integration tests.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use firm::chaos::{ChaosTransport, FaultKind, FaultPlan};
use firm::fleet::transport::{TcpTransport, Transport};
use firm::fleet::worker::{serve_session, ServeOptions};
use firm::fleet::{builtin_catalog, FleetConfig, FleetRunner, Scenario, SupervisorConfig};
use firm::serve::protocol::{ClientRequest, ServerMessage, SubmitRequest};
use firm::serve::{FleetServer, FleetService, ServeClient, ServiceLimits, PROTOCOL_VERSION};
use firm::sim::SimDuration;

/// Spawns an in-process TCP worker (accept loop + one serve_session per
/// connection) and returns its `host:port`.
fn spawn_tcp_worker() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker listener");
    let addr = listener.local_addr().expect("worker addr").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            std::thread::spawn(move || {
                stream.set_nodelay(true).ok();
                let Ok(read_half) = stream.try_clone() else {
                    return;
                };
                let _ = serve_session(BufReader::new(read_half), stream, &ServeOptions::default());
            });
        }
    });
    addr
}

fn short_catalog(n: usize, secs: u64) -> Vec<Scenario> {
    builtin_catalog()
        .into_iter()
        .take(n)
        .map(|s| s.with_duration(SimDuration::from_secs(secs)))
        .collect()
}

/// Chaos-wrapped TCP transports for `addrs`, one derived plan per slot,
/// plus the injection counters and the set of scheduled fault names.
fn chaos_transports(
    addrs: &[String],
    chaos_seed: u64,
    covered: &mut BTreeSet<&'static str>,
) -> (
    Vec<Box<dyn Transport>>,
    Vec<Arc<std::sync::atomic::AtomicU64>>,
) {
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    let mut counters = Vec::new();
    for (slot, addr) in addrs.iter().enumerate() {
        let plan = FaultPlan::derive(chaos_seed, slot);
        covered.extend(plan.scheduled().map(|f| f.name()));
        let chaos = ChaosTransport::new(Box::new(TcpTransport::new(addr.clone())), plan);
        counters.push(chaos.injection_counter());
        transports.push(Box::new(chaos));
    }
    (transports, counters)
}

/// Eight seeded fault plans over two TCP workers: every run must be
/// bit-identical to the fault-free baseline, and seeds 1..=8 must
/// between them schedule the whole lethal taxonomy.
#[test]
fn eight_seeded_fault_plans_leave_every_fleet_byte_identical() {
    let scenarios = short_catalog(6, 3);
    let config = |request_timeout: Option<Duration>| FleetConfig {
        threads: 2,
        seed: 7,
        train_steps: 16,
        supervisor: SupervisorConfig {
            request_timeout,
            ..SupervisorConfig::default()
        },
        ..FleetConfig::default()
    };
    let baseline = FleetRunner::new(config(None)).run(&scenarios);

    let addrs: Vec<String> = (0..2).map(|_| spawn_tcp_worker()).collect();
    let mut covered = BTreeSet::new();
    let mut total_injected = 0u64;
    for chaos_seed in 1..=8u64 {
        let (transports, counters) = chaos_transports(&addrs, chaos_seed, &mut covered);
        // The short request timeout turns a planned blackhole into a
        // quick reap instead of a five-minute stall; timeouts are
        // recovery machinery and may never affect output bytes.
        let chaotic = FleetRunner::new(config(Some(Duration::from_secs(2))))
            .run_with_transports(&scenarios, transports);
        let injected: u64 = counters.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        total_injected += injected;

        assert_eq!(
            baseline.report.to_json(),
            chaotic.report.to_json(),
            "report bytes moved under chaos seed {chaos_seed}"
        );
        assert_eq!(
            baseline.report.digest(),
            chaotic.report.digest(),
            "digest moved under chaos seed {chaos_seed}"
        );
        assert_eq!(
            baseline.pooled, chaotic.pooled,
            "pooled experience moved under chaos seed {chaos_seed}"
        );
        assert_eq!(
            baseline.estimator.shared_agent().export_weights(),
            chaotic.estimator.shared_agent().export_weights(),
            "trained weights moved under chaos seed {chaos_seed}"
        );
    }
    assert!(
        total_injected >= 1,
        "eight fault plans never fired a single fault — the soak exercised nothing"
    );
    for required in [
        "crash_tx",
        "drop_rx",
        "truncate_rx",
        "corrupt_rx",
        "blackhole_tx",
    ] {
        assert!(
            covered.contains(required),
            "seeds 1..=8 never scheduled `{required}` (scheduled: {covered:?})"
        );
    }
}

/// A raw client that submits a slice, reads the accepted frame and at
/// most `after_outcomes` outcome frames, then vanishes mid-stream.
fn submit_and_vanish(
    addr: &str,
    seed: u64,
    base_index: u64,
    scenarios: Vec<Scenario>,
    after_outcomes: u64,
) {
    let mut stream = TcpStream::connect(addr).expect("raw client connects");
    let frame = firm::wire::encode_line(&ClientRequest::Submit(SubmitRequest {
        protocol: PROTOCOL_VERSION,
        seed,
        base_index,
        scenarios,
    }));
    stream.write_all(frame.as_bytes()).expect("submit frame");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read accepted");
    match firm::wire::decode_line::<ServerMessage>(&line).expect("accepted decodes") {
        ServerMessage::Accepted { .. } => {}
        other => panic!("expected accepted, got {other:?}"),
    }
    for _ in 0..after_outcomes {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
    }
    // Dropping the stream severs the session mid-stream.
}

/// The serve layer under the same adversary: chaos-wrapped workers
/// below, clients hanging up mid-stream on the derived schedule above —
/// and the resident cumulative state still reproduces the batch run bit
/// for bit.
#[test]
fn client_disconnects_under_chaos_leave_the_resident_state_batch_identical() {
    // Roughly half of all clients disconnect, so some small seed is
    // guaranteed to schedule one for this run's two clients — pick the
    // first deterministically rather than hardcoding a lucky number.
    let chaos_seed = (1..=16u64)
        .find(|s| (0..2).any(|c| FaultPlan::client_disconnect_after(*s, c).is_some()))
        .expect("no seed in 1..=16 schedules a client disconnect");
    let catalog = short_catalog(4, 3);
    let config = FleetConfig {
        seed: 5,
        train_steps: 8,
        supervisor: SupervisorConfig {
            request_timeout: Some(Duration::from_secs(2)),
            ..SupervisorConfig::default()
        },
        ..FleetConfig::default()
    };
    let addrs: Vec<String> = (0..2).map(|_| spawn_tcp_worker()).collect();
    let mut covered = BTreeSet::new();
    let (transports, _) = chaos_transports(&addrs, chaos_seed, &mut covered);
    let service = FleetService::with_transports(config, ServiceLimits::default(), transports)
        .expect("service starts over chaos transports");
    let server = FleetServer::start_with("127.0.0.1:0", Arc::new(service)).expect("server starts");
    let addr = server.local_addr().to_string();

    // Submit the catalog in two sequential slices. Each client consults
    // the derived schedule: a scheduled client hangs up mid-stream, a
    // clean one stays for its report. Draining between slices pins the
    // fold order to catalog order (the batch-parity precondition).
    let mut monitor = ServeClient::connect(&addr).expect("monitor connects");
    for (client, (base, slice)) in [(0u64, &catalog[..2]), (2, &catalog[2..])]
        .into_iter()
        .enumerate()
    {
        match FaultPlan::client_disconnect_after(chaos_seed, client as u64) {
            Some(FaultKind::ClientDisconnect { after_outcomes }) => {
                submit_and_vanish(&addr, 5, base, slice.to_vec(), after_outcomes);
            }
            _ => {
                let mut client = ServeClient::connect(&addr).expect("clean client connects");
                client
                    .submit(5, base, slice.to_vec(), &mut |_, _| {})
                    .expect("clean submission succeeds");
            }
        }
        let _ = monitor.drain();
    }

    let cumulative = monitor.drain().expect("final drain");
    let batch = FleetRunner::new(FleetConfig {
        threads: 2,
        seed: 5,
        train_steps: 8,
        ..FleetConfig::default()
    })
    .run(&catalog);
    assert_eq!(
        cumulative.report.to_json(),
        batch.report.to_json(),
        "vanishing clients over chaos transports moved the cumulative report"
    );
    assert_eq!(cumulative.report.digest(), batch.report.digest());
    assert_eq!(
        cumulative.pooled_transitions,
        batch.pooled.transitions.len() as u64
    );
    let (actor, critic) = batch.estimator.shared_agent().export_weights();
    assert_eq!(cumulative.policy.actor, actor);
    assert_eq!(cumulative.policy.critic, critic);

    let _ = monitor.shutdown().expect("shutdown");
    server.join();
}
