//! The worker side of the fleet protocol: one serve loop, two front
//! ends.
//!
//! [`serve_session`] is the entire worker: write a [`WorkerHello`],
//! start a heartbeat ticker, then `decode → run_one_with → encode`
//! each [`WorkerRequest`] until the input stream ends. The
//! `firm-fleet-worker` binary wraps it twice:
//!
//! * **stdio mode** (default) — one session over stdin/stdout, spawned
//!   and owned by a coordinator's [`crate::transport::PipeTransport`];
//! * **TCP mode** (`--listen addr`) — a [`listen`] accept loop serving
//!   one session per connection, each on its own thread, so a wedged or
//!   abandoned session never blocks the next coordinator from
//!   connecting.
//!
//! The worker is deliberately dumb: no seed derivation, no ordering, no
//! training, no retries. All of that stays at the coordinator, which is
//! what lets the multi-node fleet stay bit-identical to the in-process
//! one — a worker can only compute `run_one_with(scenario, seed,
//! policy)`, a pure function of those frame fields, on the session's
//! one thread.

use std::io::{BufRead, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use firm_core::controller::PolicyCheckpoint;
use firm_obs::Level;

use crate::exec::run_one_with;
use crate::protocol::{
    WorkerHeartbeat, WorkerHello, WorkerMessage, WorkerRequest, WorkerResponse, PROTOCOL_VERSION,
};

/// Event target for everything the worker side emits.
const TARGET: &str = "firm-fleet-worker";

/// Knobs for one worker session.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Interval between heartbeat frames in milliseconds; 0 disables
    /// heartbeats (the supervisor then relies on the per-request
    /// timeout alone).
    pub heartbeat_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { heartbeat_ms: 200 }
    }
}

/// Why a session ended abnormally.
#[derive(Debug)]
pub enum ServeError {
    /// A frame failed to parse or decode — a coordinator bug or
    /// version skew; the session cannot safely continue.
    BadFrame(String),
    /// The byte stream itself failed (peer vanished mid-frame).
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadFrame(msg) => write!(f, "bad request frame: {msg}"),
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Serves one coordinator session: handshake, heartbeats, then one
/// [`WorkerResponse`] per [`WorkerRequest`] until EOF.
///
/// The writer is shared between the job loop and the heartbeat ticker
/// behind a mutex; both always write whole newline-terminated frames,
/// so the output stream is a valid frame sequence under any
/// interleaving. Control frames carry no results, so that interleaving
/// is invisible in the fleet report.
pub fn serve_session<R, W>(reader: R, writer: W, opts: &ServeOptions) -> Result<(), ServeError>
where
    R: BufRead,
    W: Write + Send + 'static,
{
    firm_obs::metrics().counter("worker.sessions.total").inc();
    firm_obs::event(Level::Debug, TARGET)
        .msg("session started")
        .field("heartbeat_ms", opts.heartbeat_ms)
        .emit();
    let writer = Arc::new(Mutex::new(writer));
    write_frame(
        &writer,
        &WorkerMessage::Hello(WorkerHello {
            protocol: PROTOCOL_VERSION,
            pid: std::process::id() as u64,
            heartbeat_ms: opts.heartbeat_ms,
        }),
    )?;

    // The heartbeat ticker: runs for the whole session, reporting which
    // catalog index (if any) the job loop is currently inside. -1 in
    // the atomic means idle.
    let busy = Arc::new(AtomicI64::new(-1));
    let stop = Arc::new(AtomicBool::new(false));
    let ticker = (opts.heartbeat_ms > 0).then(|| {
        let writer = Arc::clone(&writer);
        let busy = Arc::clone(&busy);
        let stop = Arc::clone(&stop);
        let interval = Duration::from_millis(opts.heartbeat_ms);
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let index = busy.load(Ordering::Relaxed);
            let frame = WorkerMessage::Heartbeat(WorkerHeartbeat {
                busy: (index >= 0).then_some(index as u64),
            });
            // A write failure means the coordinator hung up; the job
            // loop will hit the same wall and end the session.
            if write_frame(&writer, &frame).is_err() {
                break;
            }
            firm_obs::metrics().counter("worker.heartbeats.tx").inc();
        })
    });

    let result = serve_jobs(reader, &writer, &busy);

    stop.store(true, Ordering::Relaxed);
    if let Some(ticker) = ticker {
        let _ = ticker.join();
    }
    if result.is_ok() {
        // Session-end observability hand-off: ship this process's
        // cumulative metrics to the coordinator as the final frame.
        // Best-effort — a coordinator that already hung up after EOF
        // just misses diagnostics, it doesn't fail the session.
        let _ = write_frame(
            &writer,
            &WorkerMessage::Metrics(firm_obs::metrics().snapshot()),
        );
        firm_obs::event(Level::Debug, TARGET)
            .msg("session ended, metrics shipped")
            .emit();
    }
    result
}

/// The job loop proper: decode, run, respond.
fn serve_jobs<R: BufRead, W: Write>(
    reader: R,
    writer: &Mutex<W>,
    busy: &AtomicI64,
) -> Result<(), ServeError> {
    let mut cached_policy = None;
    let obs = firm_obs::metrics();
    let frames_rx = obs.counter("worker.frames.rx");
    let bytes_rx = obs.counter("worker.bytes.rx");
    for line in reader.lines() {
        let line = line.map_err(ServeError::Io)?;
        if line.trim().is_empty() {
            continue;
        }
        frames_rx.inc();
        bytes_rx.add(line.len() as u64 + 1);
        let req: WorkerRequest =
            firm_wire::decode_line(&line).map_err(|e| ServeError::BadFrame(e.to_string()))?;
        busy.store(req.index as i64, Ordering::Relaxed);
        let response = run_request(req, &mut cached_policy).map_err(ServeError::BadFrame)?;
        busy.store(-1, Ordering::Relaxed);
        write_frame(writer, &WorkerMessage::Response(Box::new(response)))?;
    }
    Ok(())
}

/// One request → [`run_one_with`] → response step: everything a
/// worker does with a request once it holds the value, so a stream
/// session and an in-process one run the same code. `cached_policy` is
/// the session's policy cache: the checkpoint an earlier request
/// shipped, which later ones reference with `reuse_policy` instead of
/// re-sending the weights.
fn run_request(
    req: WorkerRequest,
    cached_policy: &mut Option<PolicyCheckpoint>,
) -> Result<WorkerResponse, String> {
    if req.reuse_policy {
        if cached_policy.is_none() {
            return Err(format!(
                "frame {} sets reuse_policy but no earlier frame carried a policy",
                req.index
            ));
        }
    } else {
        // Move, not clone: the checkpoint is a full weight set and
        // `req.policy` is never read again.
        *cached_policy = req.policy;
    }
    let policy = cached_policy.as_ref();

    firm_obs::metrics().counter("worker.requests.total").inc();
    firm_obs::event(Level::Debug, TARGET)
        .msg("running scenario")
        .field("index", req.index)
        .field("scenario", req.scenario.name.as_str())
        .field("deploy", policy.is_some())
        .emit();
    let (outcome, experience) = run_one_with(&req.scenario, req.seed, policy);
    Ok(WorkerResponse {
        index: req.index,
        outcome,
        experience,
    })
}

/// [`serve_session`] without the bytes — what a pool slot over a
/// [`crate::transport::LocalTransport`] runs on its worker thread.
/// Requests arrive as values, the hello and each response leave through
/// `send`, and the session ends when `requests` closes. No heartbeats
/// (the hello says so: a thread of the coordinator's own process cannot
/// die silently) and no metrics frame (its metrics already land in
/// this process's registry).
pub fn serve_local(requests: mpsc::Receiver<WorkerRequest>, send: &mut dyn FnMut(WorkerMessage)) {
    send(WorkerMessage::Hello(WorkerHello {
        protocol: PROTOCOL_VERSION,
        pid: std::process::id() as u64,
        heartbeat_ms: 0,
    }));
    let mut cached_policy = None;
    for req in requests {
        // A request the pool built cannot be malformed; an Err here
        // ends the session like any bad frame.
        let Ok(response) = run_request(req, &mut cached_policy) else {
            break;
        };
        send(WorkerMessage::Response(Box::new(response)));
    }
}

/// Writes one whole frame under the lock and flushes, so heartbeat and
/// response frames never interleave mid-line.
fn write_frame<W: Write>(writer: &Mutex<W>, msg: &WorkerMessage) -> Result<(), ServeError> {
    let frame = firm_wire::encode_line(msg);
    let obs = firm_obs::metrics();
    obs.counter("worker.frames.tx").inc();
    obs.counter("worker.bytes.tx").add(frame.len() as u64);
    let mut w = writer.lock().expect("writer lock");
    w.write_all(frame.as_bytes()).map_err(ServeError::Io)?;
    w.flush().map_err(ServeError::Io)
}

/// Binds `addr` and serves one session per inbound connection, each on
/// its own thread, forever. This is the multi-node worker entry point
/// (`firm-fleet-worker --listen addr`).
///
/// A session that ends with an error (malformed frame, vanished peer)
/// is logged to stderr and dropped; the listener keeps accepting — a
/// supervisor reconnecting after it killed a wedged session must always
/// find the worker ready.
pub fn listen(addr: &str, opts: ServeOptions) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    // The message keeps the exact `listening on <addr> ` shape: tooling
    // (and the TCP test harness) discovers an ephemeral port by parsing
    // this first stderr line.
    firm_obs::event(Level::Info, TARGET)
        .msg(format!("listening on {}", listener.local_addr()?))
        .field("protocol", PROTOCOL_VERSION)
        .field("heartbeat_ms", opts.heartbeat_ms)
        .emit();
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(e) => {
                firm_obs::event(Level::Warn, TARGET)
                    .msg("accept failed")
                    .field("error", e.to_string())
                    .emit();
                continue;
            }
        };
        let opts = opts.clone();
        std::thread::spawn(move || serve_tcp_session(stream, &opts));
    }
    Ok(())
}

fn serve_tcp_session(stream: TcpStream, opts: &ServeOptions) {
    stream.set_nodelay(true).ok();
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".to_string());
    let reader = match stream.try_clone() {
        Ok(read_half) => std::io::BufReader::new(read_half),
        Err(e) => {
            firm_obs::event(Level::Warn, TARGET)
                .msg("failed to clone session stream")
                .field("peer", peer)
                .field("error", e.to_string())
                .emit();
            return;
        }
    };
    match serve_session(reader, stream, opts) {
        Ok(()) => {}
        Err(e) => firm_obs::event(Level::Warn, TARGET)
            .msg("session failed")
            .field("peer", peer)
            .field("error", e.to_string())
            .emit(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::scenario_seed;
    use crate::scenario::builtin_catalog;
    use firm_sim::SimDuration;

    /// Drives one in-memory session end to end: the handshake arrives
    /// first, every request gets a response, and heartbeats (if any)
    /// are valid frames interleaved at line granularity.
    #[test]
    fn a_session_handshakes_then_answers_every_request() {
        let scenario = builtin_catalog()
            .remove(4)
            .with_duration(SimDuration::from_secs(4));
        let frames: String = (0..2)
            .map(|i| {
                firm_wire::encode_line(&WorkerRequest::new(
                    i,
                    scenario_seed(3, i as usize),
                    scenario.clone(),
                ))
            })
            .collect();

        let out = SharedBuf::default();
        serve_session(
            frames.as_bytes(),
            out.clone(),
            &ServeOptions { heartbeat_ms: 1 },
        )
        .expect("session serves");

        let text = out.take();
        let mut hello = None;
        let mut responses = Vec::new();
        let mut heartbeats = 0;
        let mut metrics = Vec::new();
        for line in text.lines() {
            match firm_wire::decode_line::<WorkerMessage>(line).expect("valid frame") {
                WorkerMessage::Hello(h) => {
                    assert!(responses.is_empty(), "hello after a response");
                    hello = Some(h);
                }
                WorkerMessage::Heartbeat(_) => heartbeats += 1,
                WorkerMessage::Response(r) => responses.push(r.index),
                WorkerMessage::Metrics(m) => metrics.push(m),
            }
        }
        let hello = hello.expect("session sent a hello");
        assert_eq!(hello.protocol, PROTOCOL_VERSION);
        assert_eq!(hello.heartbeat_ms, 1);
        assert_eq!(responses, vec![0, 1]);
        assert!(heartbeats > 0, "1ms ticker never beat during two sims");

        // A clean session ends with exactly one metrics frame, as the
        // last frame, and it reflects the work this session did. The
        // snapshot is process-cumulative, so compare with >= — other
        // tests in this process may also serve sessions.
        assert_eq!(metrics.len(), 1, "expected one session-end metrics frame");
        assert!(
            text.lines()
                .last()
                .is_some_and(|l| l.contains("\"type\":\"metrics\"")),
            "metrics frame was not the session's final frame"
        );
        let snap = &metrics[0];
        let Some(firm_obs::MetricValue::Counter(n)) = snap.get("worker.requests.total") else {
            panic!("worker.requests.total missing from session metrics");
        };
        assert!(*n >= 2, "requests counter {n} < the 2 this session ran");
        assert!(snap.get("worker.frames.tx").is_some());
        assert!(snap.get("worker.bytes.rx").is_some());
    }

    /// `intra_shards` is inert on the v7 frame: requests that differ
    /// only there get the same response bytes. Only response frames are
    /// compared, since the session-end metrics frame is process-global.
    #[test]
    fn intra_shards_on_the_frame_moves_no_response_byte() {
        let scenario = builtin_catalog()
            .remove(0)
            .with_duration(SimDuration::from_secs(4));
        assert_eq!(scenario.controller, crate::FleetController::Firm);
        let responses = |intra_shards| {
            let frame = firm_wire::encode_line(&WorkerRequest {
                intra_shards,
                ..WorkerRequest::new(0, scenario_seed(5, 0), scenario.clone())
            });
            let out = SharedBuf::default();
            serve_session(
                frame.as_bytes(),
                out.clone(),
                &ServeOptions { heartbeat_ms: 0 },
            )
            .expect("session serves");
            let text = out.take();
            let is_response = |line: &&str| {
                let msg = firm_wire::decode_line::<WorkerMessage>(line).expect("valid frame");
                matches!(msg, WorkerMessage::Response(_))
            };
            let frames: Vec<&str> = text.lines().filter(is_response).collect();
            frames.join("\n")
        };
        let base = responses(1);
        assert_eq!(base.lines().count(), 1, "one request, one response");
        for intra_shards in [0, 4] {
            assert_eq!(base, responses(intra_shards), "intra_shards={intra_shards}");
        }
    }

    /// A FIRM response counts its SVM examples in the outcome and ships
    /// none: the frame's experience carries `"svm_examples":[]`.
    #[test]
    fn a_firm_response_counts_svm_examples_without_shipping_them() {
        let scenario = builtin_catalog()
            .remove(0)
            .with_duration(SimDuration::from_secs(4));
        assert_eq!(scenario.controller, crate::FleetController::Firm);
        let frame = firm_wire::encode_line(&WorkerRequest::new(0, scenario_seed(5, 0), scenario));
        let out = SharedBuf::default();
        serve_session(
            frame.as_bytes(),
            out.clone(),
            &ServeOptions { heartbeat_ms: 0 },
        )
        .expect("session serves");
        let text = out.take();
        let line = text
            .lines()
            .find(|l| l.starts_with(r#"{"type":"response""#))
            .expect("a response frame");
        assert!(
            line.contains(r#""svm_examples":[]"#),
            "the response ships SVM examples"
        );
        let Ok(WorkerMessage::Response(response)) = firm_wire::decode_line(line) else {
            panic!("the response frame does not decode");
        };
        assert!(response.outcome.svm_examples > 0, "no SVM example counted");
    }

    #[test]
    fn reuse_policy_without_a_cached_policy_is_a_bad_frame() {
        let scenario = builtin_catalog()
            .remove(4)
            .with_duration(SimDuration::from_secs(4));
        let frame = firm_wire::encode_line(&WorkerRequest {
            reuse_policy: true,
            ..WorkerRequest::new(0, 1, scenario)
        });
        let err = serve_session(
            frame.as_bytes(),
            SharedBuf::default(),
            &ServeOptions { heartbeat_ms: 0 },
        )
        .expect_err("session must reject the frame");
        assert!(matches!(err, ServeError::BadFrame(_)), "{err}");
    }

    /// A cloneable in-memory sink (`serve_session` wants `W: Send +
    /// 'static`, which rules out `&mut Vec<u8>`).
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        fn take(&self) -> String {
            String::from_utf8(std::mem::take(&mut self.0.lock().unwrap())).unwrap()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}
