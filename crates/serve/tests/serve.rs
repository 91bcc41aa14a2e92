//! End-to-end tests for the resident fleet service: concurrent client
//! submissions over real TCP, bit-parity with batch runs, protocol
//! skew, and the disconnect-mid-catalog regression.
//!
//! Workers are in-process TCP sessions (a thread running
//! [`firm_fleet::worker::serve_session`] per connection) so the tests
//! are self-contained — the supervised subprocess path is covered by
//! the fleet crate's own integration tests and the workspace-root
//! determinism suite.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};

use firm_fleet::worker::{serve_session, ServeOptions};
use firm_fleet::{
    builtin_catalog, generate_catalog, CatalogSpec, FleetConfig, FleetResult, FleetRunner,
    LocalTransport, Scenario, Transport,
};
use firm_serve::protocol::{ClientRequest, ServerMessage, SubmitRequest};
use firm_serve::{
    BackoffPolicy, ClientError, FleetServer, FleetService, ServeClient, ServiceLimits,
    SubmissionReport, PROTOCOL_VERSION,
};
use firm_sim::SimDuration;

/// Spawns an in-process TCP worker (accept loop + one serve_session
/// per connection) and returns its `host:port`. The threads live for
/// the test process's lifetime.
fn spawn_tcp_worker() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker listener");
    let addr = listener
        .local_addr()
        .expect("worker local addr")
        .to_string();
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

fn start_server(workers: usize, seed: u64, train_steps: usize) -> FleetServer {
    let config = FleetConfig {
        workers: 0,
        remote_workers: (0..workers).map(|_| spawn_tcp_worker()).collect(),
        seed,
        train_steps,
        ..FleetConfig::default()
    };
    FleetServer::start("127.0.0.1:0", config).expect("server starts")
}

/// The resident state after sequential slices must be the batch run's:
/// report bytes, pool sizes, trained updates and policy weights.
fn assert_reproduces_batch(cumulative: &SubmissionReport, batch: &FleetResult) {
    assert_eq!(
        cumulative.report.to_json(),
        batch.report.to_json(),
        "cumulative report bytes diverged from the batch run"
    );
    assert_eq!(cumulative.report.digest(), batch.report.digest());
    assert_eq!(
        cumulative.pooled_transitions,
        batch.pooled.transitions.len() as u64
    );
    assert_eq!(
        cumulative.pooled_svm,
        batch.pooled.svm_examples.len() as u64
    );
    assert_eq!(cumulative.trained_updates, batch.trained_updates as u64);
    let (actor, critic) = batch.estimator.shared_agent().export_weights();
    assert_eq!(
        cumulative.policy.actor, actor,
        "resident actor weights diverged from the batch-trained agent"
    );
    assert_eq!(cumulative.policy.critic, critic);
}

/// Two clients submit different catalogs concurrently; each streamed
/// submission must be bit-identical to its own in-process batch run,
/// and the service must have pooled both.
#[test]
fn concurrent_clients_get_batch_identical_reports() {
    let server = start_server(2, 99, 16);
    let addr = server.local_addr().to_string();

    let submit = |seed: u64, catalog: Vec<Scenario>| {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = ServeClient::connect(&addr).expect("client connects");
            let mut streamed = Vec::new();
            let report = client
                .submit(seed, 0, catalog, &mut |index, outcome| {
                    streamed.push((index, outcome));
                })
                .expect("submission succeeds");
            (streamed, report)
        })
    };
    let a = submit(7, short_catalog(2, 6));
    let b = submit(11, short_catalog(3, 6).split_off(1));
    let (streamed_a, report_a) = a.join().expect("client a");
    let (streamed_b, report_b) = b.join().expect("client b");

    // Streaming delivered every scenario exactly once, indices intact.
    assert_eq!(streamed_a.len(), 2);
    assert_eq!(streamed_b.len(), 2);
    let mut idx_a: Vec<u64> = streamed_a.iter().map(|(i, _)| *i).collect();
    idx_a.sort_unstable();
    assert_eq!(idx_a, vec![0, 1]);

    // Each submission is bit-identical to its own batch run, no matter
    // what else was interleaving on the shared pool.
    let batch = |seed: u64, catalog: &[Scenario]| {
        FleetRunner::new(FleetConfig {
            threads: 2,
            seed,
            train_steps: 0,
            ..FleetConfig::default()
        })
        .run(catalog)
        .report
    };
    assert_eq!(
        report_a.report.digest(),
        batch(7, &short_catalog(2, 6)).digest(),
        "client a's served report diverged from batch"
    );
    assert_eq!(
        report_b.report.digest(),
        batch(11, &short_catalog(3, 6).split_off(1)).digest(),
        "client b's served report diverged from batch"
    );

    // Both submissions folded into the resident pool.
    let mut client = ServeClient::connect(&addr).expect("drain client connects");
    let cumulative = client.drain().expect("drain succeeds");
    assert!(cumulative.cumulative);
    assert_eq!(cumulative.submission, 2, "two submissions folded");
    assert_eq!(cumulative.report.scenarios.len(), 4);
    assert_eq!(
        cumulative.pooled_transitions,
        report_a.pooled_transitions.max(report_b.pooled_transitions),
        "the later fold's pool must contain both submissions"
    );

    let _ = client.shutdown().expect("shutdown succeeds");
    server.join();
}

/// The headline parity guarantee: a catalog submitted in two
/// sequential slices (one seed, continuous base indices) leaves the
/// service's cumulative report, pooled experience, policy weights, and
/// trained-update count bit-identical to the single batch run.
#[test]
fn sequential_slices_reproduce_the_batch_run_exactly() {
    let catalog = short_catalog(4, 6);
    let server = start_server(2, 7, 24);
    let addr = server.local_addr().to_string();

    let mut client = ServeClient::connect(&addr).expect("client connects");
    let first = client
        .submit(7, 0, catalog[..2].to_vec(), &mut |_, _| {})
        .expect("first slice");
    let second = client
        .submit(7, 2, catalog[2..].to_vec(), &mut |_, _| {})
        .expect("second slice");
    assert!(second.pooled_transitions >= first.pooled_transitions);
    let cumulative = client.shutdown().expect("shutdown");
    let worker_ops = server.join();
    assert_eq!(worker_ops.len(), 2, "both workers shipped session metrics");

    let batch = FleetRunner::new(FleetConfig {
        threads: 2,
        seed: 7,
        train_steps: 24,
        ..FleetConfig::default()
    })
    .run(&catalog);

    assert_reproduces_batch(&cumulative, &batch);
}

/// The same guarantee with no worker process or socket anywhere: the
/// service's pool runs on two in-process slots, and sequential slices
/// still leave the batch run's digest and policy bytes. The policy is
/// trained when a cumulative report reads it, never on the submission
/// path: per-submission reports carry no policy yet count the
/// cumulative pool, two drains with no fold between train once and
/// return the same bytes, and a drain after one more submission still
/// equals the longer batch run.
#[test]
fn sequential_slices_over_local_slots_reproduce_the_batch_digest() {
    // A seed no other test here uses: it tags this service's
    // "policy retrained" events in the process-wide ring.
    const SEED: u64 = 17;
    let catalog = short_catalog(12, 15);
    let config = FleetConfig {
        seed: SEED,
        train_steps: 24,
        ..FleetConfig::default()
    };
    let slots: Vec<Box<dyn Transport>> = vec![Box::new(LocalTransport), Box::new(LocalTransport)];
    let service = FleetService::with_transports(config.clone(), ServiceLimits::default(), slots)
        .expect("service starts over local slots");
    if !firm_obs::enabled(firm_obs::Level::Info) {
        firm_obs::set_level(Some(firm_obs::Level::Info));
    }
    let retrains = || {
        let (events, _) = firm_obs::drain_events();
        events
            .iter()
            .filter(|e| e.message == "policy retrained")
            .filter(|e| {
                e.fields
                    .iter()
                    .any(|(k, v)| *k == "seed" && *v == firm_obs::FieldValue::U64(SEED))
            })
            .count()
    };

    let (mut transitions, mut svm) = (0, 0);
    for (base, slice) in [(0, &catalog[..6]), (6, &catalog[6..9])] {
        let report = service
            .run_submission(SEED, base, slice, &mut |_, _| {})
            .expect("slice runs");
        assert!(report.policy.actor.is_empty() && report.policy.critic.is_empty());
        assert_eq!(report.trained_updates, 0, "a submission trained");
        transitions += report.report.totals.transitions;
        svm += report.report.totals.svm_examples;
        assert_eq!(report.pooled_transitions, transitions);
        assert_eq!(report.pooled_svm, svm);
    }
    assert!(svm > 0, "the slices harvested no SVM examples");

    let _ = retrains();
    let first = service.drain();
    let second = service.drain();
    assert_eq!(
        retrains(),
        1,
        "two drains with no fold between must train once"
    );
    assert!(first.trained_updates > 0, "the policy checks are vacuous");
    assert_eq!(first.policy, second.policy);
    assert_eq!(first.trained_updates, second.trained_updates);

    service
        .run_submission(SEED, 9, &catalog[9..], &mut |_, _| {})
        .expect("the last slice runs");
    let cumulative = service.drain();
    assert_eq!(retrains(), 1, "a fold must make the next drain train");
    assert!(service.shutdown().is_empty(), "local slots ship no metrics");
    assert_eq!(retrains(), 0, "shutdown trains nothing");

    let batch = FleetRunner::new(config).run(&catalog);
    assert_reproduces_batch(&cumulative, &batch);
}

/// Satellite regression: a client that vanishes mid-catalog (drops the
/// connection right after acceptance) must not wedge or corrupt the
/// service — its submission still runs, still folds into the resident
/// state, and the next client is served normally.
#[test]
fn client_disconnect_mid_catalog_still_folds_and_serves_others() {
    let catalog = short_catalog(2, 6);
    let server = start_server(1, 5, 8);
    let addr = server.local_addr().to_string();

    // A raw client that submits and immediately hangs up.
    {
        let mut stream = TcpStream::connect(&addr).expect("raw client connects");
        let frame = firm_wire::encode_line(&ClientRequest::Submit(SubmitRequest {
            protocol: PROTOCOL_VERSION,
            seed: 5,
            base_index: 0,
            scenarios: catalog.clone(),
        }));
        stream.write_all(frame.as_bytes()).expect("submit frame");
        stream.flush().expect("flush");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read accepted");
        match firm_wire::decode_line::<ServerMessage>(&line).expect("accepted decodes") {
            ServerMessage::Accepted { submission, .. } => assert_eq!(submission, 0),
            other => panic!("expected accepted, got {other:?}"),
        }
        // Drop both halves: the server's outcome writes will hit EPIPE.
    }

    // A well-behaved client: drain blocks until the orphaned
    // submission folded, then a fresh submission proves the service
    // is still healthy.
    let mut client = ServeClient::connect(&addr).expect("second client connects");
    let cumulative = client.drain().expect("drain succeeds");
    assert_eq!(
        cumulative.report.scenarios.len(),
        2,
        "the orphaned submission did not fold into the resident state"
    );
    let batch = FleetRunner::new(FleetConfig {
        threads: 1,
        seed: 5,
        train_steps: 0,
        ..FleetConfig::default()
    })
    .run(&catalog);
    assert_eq!(
        cumulative.report.digest(),
        batch.report.digest(),
        "a vanished client changed the folded bytes"
    );

    let after = client
        .submit(6, 0, short_catalog(1, 6), &mut |_, _| {})
        .expect("the service keeps serving after a client vanished");
    assert_eq!(after.report.scenarios.len(), 1);
    let _ = client.shutdown().expect("shutdown");
    server.join();
}

/// Version skew fails loudly instead of mis-running work.
#[test]
fn protocol_skew_is_rejected_with_an_error_frame() {
    let server = start_server(1, 3, 4);
    let addr = server.local_addr().to_string();

    let mut stream = TcpStream::connect(&addr).expect("client connects");
    let frame = firm_wire::encode_line(&ClientRequest::Drain {
        protocol: PROTOCOL_VERSION - 1,
    });
    stream.write_all(frame.as_bytes()).expect("drain frame");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read error frame");
    match firm_wire::decode_line::<ServerMessage>(&line).expect("error decodes") {
        ServerMessage::Error { message, .. } => {
            assert!(message.contains("protocol skew"), "{message}");
            assert!(message.contains("upgrade the older side"), "{message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }

    // The skewed session is dead, but the server is not.
    let mut client = ServeClient::connect(&addr).expect("healthy client connects");
    let _ = client.shutdown().expect("shutdown succeeds");
    server.join();
}

/// Submissions after shutdown are refused cleanly (no panic, no hang)
/// — and the error frame marks the refusal *retryable*, since a drain
/// is transient from the protocol's point of view.
#[test]
fn submissions_after_retire_are_rejected_retryably() {
    let server = start_server(1, 2, 4);
    let addr = server.local_addr().to_string();
    server.service().retire("test retirement");

    let mut client = ServeClient::connect(&addr).expect("client connects");
    let err = client
        .submit(2, 0, short_catalog(1, 6), &mut |_, _| {})
        .expect_err("retired service must reject submissions");
    match &err {
        ClientError::Rejected {
            message, retryable, ..
        } => {
            assert!(message.contains("test retirement"), "{message}");
            assert!(retryable, "a drain refusal must be marked retryable");
        }
        other => panic!("expected a rejection, got {other}"),
    }

    server.request_stop();
    server.join();
}

/// A scenario with a zero control interval would spin its worker
/// forever, so the service refuses the whole submission before
/// dispatch: a permanent error naming the scenario, no submission id
/// spent, and the same session's next submission is served.
#[test]
fn a_zero_control_interval_is_refused_before_dispatch() {
    let server = start_server(1, 5, 0);
    let mut client =
        ServeClient::connect(&server.local_addr().to_string()).expect("client connects");
    let mut bad = short_catalog(2, 2);
    bad[1].control_interval = SimDuration::ZERO;
    let name = bad[1].name.clone();
    let err = client
        .submit(5, 0, bad, &mut |_, _| panic!("a refused submission ran"))
        .expect_err("a zero control interval must be refused");
    match &err {
        ClientError::Rejected {
            submission,
            message,
            retryable,
        } => {
            assert_eq!(*submission, 0, "{message}");
            assert!(message.contains(&format!("`{name}`")), "{message}");
            assert!(message.contains("zero control interval"), "{message}");
            assert!(!retryable, "retrying the same scenarios can never help");
        }
        other => panic!("expected a rejection, got {other}"),
    }

    let report = client
        .submit(5, 0, short_catalog(1, 2), &mut |_, _| {})
        .expect("the session keeps serving");
    assert_eq!(
        report.submission, 0,
        "the refused submission must never have been admitted"
    );
    assert_eq!(report.report.scenarios.len(), 1);
    let _ = client.shutdown().expect("shutdown");
    server.join();
}

/// A malformed frame mid-session gets an error frame and closes only
/// *that* session: the worker pool and every other session keep
/// working.
#[test]
fn malformed_frame_closes_only_its_own_session() {
    let server = start_server(1, 13, 4);
    let addr = server.local_addr().to_string();

    let mut stream = TcpStream::connect(&addr).expect("raw client connects");
    stream
        .write_all(b"this is not a frame\n")
        .expect("malformed line");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read error frame");
    match firm_wire::decode_line::<ServerMessage>(&line).expect("error decodes") {
        ServerMessage::Error {
            message, retryable, ..
        } => {
            assert!(message.contains("bad request frame"), "{message}");
            assert!(!retryable, "a malformed frame is not retryable as-is");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // The poisoned session is closed (EOF), not wedged.
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).expect("session EOF"),
        0,
        "the server must close a desynchronized session"
    );

    // The pool and a fresh session are untouched.
    let mut client = ServeClient::connect(&addr).expect("healthy client connects");
    let report = client
        .submit(13, 0, short_catalog(1, 6), &mut |_, _| {})
        .expect("the service keeps serving after a malformed frame");
    assert_eq!(report.report.scenarios.len(), 1);
    let _ = client.shutdown().expect("shutdown");
    server.join();
}

/// A proxy that forwards its first connection until one server→client
/// line has been relayed, then severs it; every later connection is
/// forwarded transparently. Returns the proxy's `host:port`.
fn severing_proxy(upstream: String) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr").to_string();
    std::thread::spawn(move || {
        for (conn, stream) in listener.incoming().enumerate() {
            let Ok(client) = stream else { continue };
            let upstream = upstream.clone();
            std::thread::spawn(move || {
                let server = TcpStream::connect(&upstream).expect("proxy dials upstream");
                let mut up_r = client.try_clone().expect("clone client");
                let mut up_w = server.try_clone().expect("clone server");
                let down_r = server;
                let mut down_w = client;
                let up = std::thread::spawn(move || {
                    let _ = std::io::copy(&mut up_r, &mut up_w);
                    let _ = up_w.shutdown(Shutdown::Write);
                });
                if conn == 0 {
                    // Relay exactly one downstream line (the accepted
                    // frame), then cut both directions mid-stream.
                    let mut reader = BufReader::new(down_r);
                    let mut line = String::new();
                    let _ = reader.read_line(&mut line);
                    let _ = down_w.write_all(line.as_bytes());
                    let _ = down_w.flush();
                    let _ = down_w.shutdown(Shutdown::Both);
                    let _ = reader.into_inner().shutdown(Shutdown::Both);
                } else {
                    let mut down_r = down_r;
                    let _ = std::io::copy(&mut down_r, &mut down_w);
                    let _ = down_w.shutdown(Shutdown::Write);
                }
                let _ = up.join();
            });
        }
    });
    addr
}

/// The recovery round trip: a connection severed mid-stream fails the
/// submit, but `recover_via_drain` (seeded-backoff reconnect + drain)
/// returns a cumulative report that contains the submission that
/// folded while the client was gone — bit-identical to the batch run.
#[test]
fn severed_connection_recovers_the_folded_report_via_drain() {
    let catalog = short_catalog(2, 6);
    let server = start_server(1, 21, 8);
    let proxy = severing_proxy(server.local_addr().to_string());

    let mut client = ServeClient::connect(&proxy).expect("client connects via proxy");
    let err = client
        .submit(21, 0, catalog.clone(), &mut |_, _| {})
        .expect_err("the proxy severs the stream after acceptance");
    assert!(
        matches!(err, ClientError::Io(_) | ClientError::Protocol(_)),
        "expected a transport-level failure, got {err}"
    );

    // Same client object, same address: reconnect rides the backoff,
    // the drain blocks until the orphaned submission folded.
    let cumulative = client
        .recover_via_drain(&BackoffPolicy {
            seed: 21,
            ..BackoffPolicy::default()
        })
        .expect("recovery succeeds");
    assert!(cumulative.cumulative);
    assert_eq!(
        cumulative.report.scenarios.len(),
        2,
        "the severed submission did not fold while the client was gone"
    );
    let batch = FleetRunner::new(FleetConfig {
        threads: 1,
        seed: 21,
        train_steps: 0,
        ..FleetConfig::default()
    })
    .run(&catalog);
    assert_eq!(
        cumulative.report.digest(),
        batch.report.digest(),
        "a severed connection changed the folded bytes"
    );

    let _ = client.shutdown().expect("shutdown");
    server.join();
}

/// The backpressure bound: a submission that would push the pending
/// scenario count past `max_pending_scenarios` is refused with a
/// retryable rejection (and counted), and admission reopens once the
/// backlog drains.
#[test]
fn backpressure_sheds_submissions_retryably_until_the_backlog_drains() {
    let config = FleetConfig {
        workers: 0,
        remote_workers: vec![spawn_tcp_worker()],
        seed: 3,
        train_steps: 0,
        ..FleetConfig::default()
    };
    let service = FleetService::with_limits(
        config,
        ServiceLimits {
            max_pending_scenarios: 2,
        },
    )
    .expect("service starts");
    let rejections_before = firm_obs::metrics()
        .counter("serve.backpressure.rejections")
        .get();

    let catalog = short_catalog(2, 6);
    let id = service.begin(&catalog).expect("within the bound");
    let shed = service
        .begin(&catalog[..1])
        .expect_err("one more scenario must exceed the bound");
    assert!(shed.retryable, "backpressure must be retryable");
    assert!(shed.message.contains("max-pending"), "{}", shed.message);
    assert_eq!(
        firm_obs::metrics()
            .counter("serve.backpressure.rejections")
            .get(),
        rejections_before + 1,
        "the shed submission must be counted"
    );

    // Folding the admitted submission reopens admission.
    let report = service
        .run(id, 3, 0, &catalog, &mut |_, _| {})
        .expect("the admitted submission still runs");
    assert_eq!(report.report.scenarios.len(), 2);
    let id = service
        .begin(&catalog[..1])
        .expect("admission reopens once the backlog drained");
    let _ = service
        .run(id, 3, 2, &catalog[..1], &mut |_, _| {})
        .expect("the retried submission runs");
    service.shutdown();
}

/// Generated catalogs flow through the resident serve path unchanged:
/// submitting `generate_catalog(CatalogSpec::new(7, 1))` (shortened)
/// streams every tenant once and returns a report bit-identical to the
/// in-process batch run — the serve-side proof that the v6 scenario
/// codec carries `replica_factor` and `slo_penalty` end to end.
#[test]
fn generated_catalog_served_report_matches_batch() {
    let catalog: Vec<Scenario> = generate_catalog(&CatalogSpec::new(7, 1))
        .into_iter()
        .map(|s| s.with_duration(SimDuration::from_secs(4)))
        .collect();
    let server = start_server(2, 7, 0);
    let mut client =
        ServeClient::connect(&server.local_addr().to_string()).expect("client connects");
    let mut streamed = 0usize;
    let served = client
        .submit(7, 0, catalog.clone(), &mut |_, _| streamed += 1)
        .expect("generated submission succeeds");
    assert_eq!(streamed, catalog.len(), "a streamed outcome per tenant");

    let batch = FleetRunner::new(FleetConfig {
        threads: 2,
        seed: 7,
        train_steps: 0,
        ..FleetConfig::default()
    })
    .run(&catalog);
    assert_eq!(
        served.report.digest(),
        batch.report.digest(),
        "served generated-catalog digest diverged from the batch run"
    );
    let _ = client.shutdown().expect("shutdown");
    server.join();
}

/// `firm-fleet serve` says which product kernel it ran: the ops report
/// it writes on exit carries the `ml.kernel_avx2` gauge it set at start,
/// with the value this process (same build, same CPU) records.
#[test]
fn served_ops_report_names_the_product_kernel() {
    let worker = spawn_tcp_worker();
    let obs_out =
        std::env::temp_dir().join(format!("firm-serve-kernel-{}.jsonl", std::process::id()));
    let mut coordinator = std::process::Command::new(env!("CARGO_BIN_EXE_firm-fleet"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "0",
            "--remote",
            &worker,
        ])
        .arg("--obs-out")
        .arg(&obs_out)
        .env_remove("FIRM_LOG")
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn firm-fleet serve");
    let mut stderr = BufReader::new(coordinator.stderr.take().expect("stderr piped"));
    let mut first = String::new();
    stderr.read_line(&mut first).expect("startup line");
    // Keep draining, so later log lines never meet a closed pipe.
    let drain = std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));
    let addr = first
        .split("serving on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected startup line {first:?}"));
    let _ = ServeClient::connect(addr)
        .expect("client connects")
        .shutdown()
        .expect("shutdown");
    assert!(coordinator.wait().expect("coordinator exits").success());
    let _ = drain.join();
    let jsonl = std::fs::read_to_string(&obs_out).expect("--obs-out written");
    let _ = std::fs::remove_file(&obs_out);
    let last = jsonl.lines().last().expect("an ops_report line");
    let ops: firm_fleet::OpsReport = firm_wire::decode_line(last).expect("ops_report frame");
    firm_fleet::record_kernel_isa();
    let here = firm_obs::metrics().snapshot();
    let gauge = here.get("ml.kernel_avx2").expect("gauge recorded here");
    assert_eq!(ops.coordinator.get("ml.kernel_avx2"), Some(gauge));
}

/// Runs `bin` with `args` and asserts it exits 64 (usage) with `problem`
/// on stderr. A run still going after 30 s is killed and fails.
fn assert_usage_error(bin: &str, args: &[&str], problem: &str) -> String {
    use std::process::Stdio;
    let mut child = std::process::Command::new(bin)
        .args(args)
        .env_remove("FIRM_LOG")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bin");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while child.try_wait().expect("poll bin").is_none() {
        if std::time::Instant::now() > deadline {
            child.kill().ok();
            panic!("{bin} {args:?} still running after 30 s");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect bin output");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(64), "stderr: {stderr}");
    assert!(stderr.contains(problem), "{stderr}");
    stderr
}

/// `--verify-batch` with a nonzero `--base-index` is a usage error,
/// refused before the client connects: a submission sent first would
/// be folded into the coordinator for nothing. Nothing listens at the
/// address, so a connect attempt would exit 1 with "connect failed".
#[test]
fn verify_batch_with_a_nonzero_base_index_is_refused_before_connecting() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let dead = listener.local_addr().expect("local addr").to_string();
    drop(listener);
    let args = [
        "--connect",
        &dead,
        "--scenarios",
        "2",
        "--base-index",
        "3",
        "--verify-batch",
    ];
    let problem = "--verify-batch only supports --base-index 0";
    let stderr = assert_usage_error(env!("CARGO_BIN_EXE_firm-fleet-client"), &args, problem);
    assert!(!stderr.contains("connect failed"), "{stderr}");
}

/// `--intra-shards` was removed with per-scenario stage fan-out; the
/// coordinator refuses it instead of ignoring it.
#[test]
fn serve_refuses_the_removed_intra_shards_flag() {
    let args = ["serve", "--listen", "127.0.0.1:0", "--intra-shards", "2"];
    let problem = "unknown argument `--intra-shards`";
    assert_usage_error(env!("CARGO_BIN_EXE_firm-fleet"), &args, problem);
}
