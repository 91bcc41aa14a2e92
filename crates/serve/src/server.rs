//! The TCP front end of the resident fleet service.
//!
//! [`FleetServer::start`] binds an address and accepts any number of
//! concurrent client sessions, one thread per connection (the same
//! shape as `firm-fleet-worker --listen` — a wedged or abandoned
//! session never blocks the next client). Each session reads
//! [`ClientRequest`] frames and answers with [`ServerMessage`] frames;
//! submissions stream their outcomes as they complete.
//!
//! # Client disconnects cannot corrupt the service
//!
//! Rust's standard library ignores `SIGPIPE`, so writing to a client
//! that vanished mid-stream surfaces as an ordinary `EPIPE` error —
//! the session stops writing but **keeps consuming** its submission's
//! results (that drain lives inside [`FleetService::run`], which the
//! session already called), so the cumulative learning state still
//! folds the submission exactly as if the client had stayed. A
//! disconnect loses the client its answer, never the fleet its state.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use firm_fleet::{FleetConfig, WorkerOps};
use firm_obs::Level;

use crate::protocol::{ClientRequest, ServerMessage, PROTOCOL_VERSION};
use crate::service::FleetService;

/// Event target for everything the server front end emits.
const TARGET: &str = "firm-serve";

/// A running resident fleet server: the accept loop, its sessions, and
/// the [`FleetService`] they share.
pub struct FleetServer {
    service: Arc<FleetService>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
}

impl FleetServer {
    /// Builds the service (connecting every worker) and starts
    /// accepting clients on `addr` (use port 0 for an ephemeral port;
    /// [`FleetServer::local_addr`] reports the bound one).
    pub fn start(addr: &str, config: FleetConfig) -> Result<FleetServer, String> {
        Self::start_with(addr, Arc::new(FleetService::new(config)?))
    }

    /// Starts the front end over a pre-built service — for custom
    /// admission limits ([`crate::service::ServiceLimits`]) or
    /// injected transports (the chaos harness).
    pub fn start_with(addr: &str, service: Arc<FleetService>) -> Result<FleetServer, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        // The message keeps the exact `serving on <addr> ` shape:
        // tooling (and the serve test harness) discovers an ephemeral
        // port by parsing this first stderr line.
        firm_obs::event(Level::Info, TARGET)
            .msg(format!("serving on {local_addr}"))
            .field("protocol", PROTOCOL_VERSION)
            .emit();
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("firm-serve-accept".to_string())
                .spawn(move || accept_loop(listener, service, stop, local_addr))
                .map_err(|e| format!("spawn accept thread: {e}"))?
        };
        Ok(FleetServer {
            service,
            local_addr,
            stop,
            accept,
        })
    }

    /// The address the server is actually bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service behind the front end (tests drive submissions
    /// directly through it).
    pub fn service(&self) -> &Arc<FleetService> {
        &self.service
    }

    /// Begins a graceful drain (idempotent): the service stops
    /// admitting submissions — new ones get a *retryable* error frame
    /// — while in-flight ones finish and fold, and the accept loop
    /// stops. [`FleetServer::join`] then completes the teardown.
    pub fn request_stop(&self) {
        self.service.retire("the service is draining for shutdown");
        request_stop(&self.stop, self.local_addr);
    }

    /// Waits for the accept loop to stop (a client's `shutdown` request
    /// or [`FleetServer::request_stop`]), shuts the service down
    /// gracefully, and returns the workers' session-end metrics.
    pub fn join(self) -> Vec<WorkerOps> {
        let _ = self.accept.join();
        self.service.shutdown()
    }
}

/// Flags the accept loop to stop and unblocks its blocking `accept`
/// with a throwaway self-connection.
fn request_stop(stop: &AtomicBool, local_addr: SocketAddr) {
    stop.store(true, Ordering::Relaxed);
    let _ = TcpStream::connect(local_addr);
}

fn accept_loop(
    listener: TcpListener,
    service: Arc<FleetService>,
    stop: Arc<AtomicBool>,
    local_addr: SocketAddr,
) {
    let m = firm_obs::metrics();
    let sessions_total = m.counter("serve.sessions.total");
    let sessions_open_gauge = m.gauge("serve.sessions.open");
    let sessions_open = Arc::new(AtomicI64::new(0));
    for stream in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
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
        sessions_total.inc();
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let open = Arc::clone(&sessions_open);
        let open_gauge = Arc::clone(&sessions_open_gauge);
        open_gauge.set(open.fetch_add(1, Ordering::Relaxed) + 1);
        std::thread::spawn(move || {
            serve_client_session(stream, &service, &stop, local_addr);
            open_gauge.set(open.fetch_add(-1, Ordering::Relaxed) - 1);
        });
    }
    firm_obs::event(Level::Info, TARGET)
        .msg("accept loop stopped")
        .emit();
}

/// One client session: frames in, frames out, until EOF or a broken
/// transport. Write failures mark the session mute but never abort a
/// running submission's drain (see the module docs).
fn serve_client_session(
    stream: TcpStream,
    service: &FleetService,
    stop: &AtomicBool,
    local_addr: SocketAddr,
) {
    stream.set_nodelay(true).ok();
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".to_string());
    let reader = match stream.try_clone() {
        Ok(read_half) => BufReader::new(read_half),
        Err(e) => {
            firm_obs::event(Level::Warn, TARGET)
                .msg("failed to clone session stream")
                .field("peer", peer)
                .field("error", e.to_string())
                .emit();
            return;
        }
    };
    let mut writer = stream;
    firm_obs::event(Level::Debug, TARGET)
        .msg("client session started")
        .field("peer", peer.as_str())
        .emit();

    for line in reader.lines() {
        let Ok(line) = line else {
            break; // Peer vanished mid-frame.
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match firm_wire::decode_line::<ClientRequest>(&line) {
            Ok(r) => r,
            Err(e) => {
                // A client bug or version skew below the version field;
                // tell the client and give up on *this* session only —
                // its stream may be desynchronized, but the pool and
                // every other session are untouched.
                let _ = write_msg(
                    &mut writer,
                    &ServerMessage::Error {
                        submission: 0,
                        message: format!("bad request frame: {e}"),
                        retryable: false,
                    },
                );
                break;
            }
        };
        if request.protocol() != PROTOCOL_VERSION {
            let _ = write_msg(
                &mut writer,
                &ServerMessage::Error {
                    submission: 0,
                    message: format!(
                        "protocol skew: client speaks fleet protocol v{}, this server \
                         speaks v{PROTOCOL_VERSION} — upgrade the older side",
                        request.protocol()
                    ),
                    retryable: false,
                },
            );
            break;
        }
        match request {
            ClientRequest::Submit(submit) => {
                let id = match service.begin(&submit.scenarios) {
                    Ok(id) => id,
                    Err(rejection) => {
                        let _ = write_msg(
                            &mut writer,
                            &ServerMessage::Error {
                                submission: 0,
                                message: rejection.message,
                                retryable: rejection.retryable,
                            },
                        );
                        continue;
                    }
                };
                let accepted = write_msg(
                    &mut writer,
                    &ServerMessage::Accepted {
                        protocol: PROTOCOL_VERSION,
                        submission: id,
                        scenarios: submit.scenarios.len() as u64,
                    },
                )
                .is_ok();
                // Once muted (a write failed — the client is gone), the
                // session stops writing but the submission still runs
                // to completion so the resident state folds it.
                let mut mute = !accepted;
                let result = service.run(
                    id,
                    submit.seed,
                    submit.base_index,
                    &submit.scenarios,
                    &mut |index, outcome| {
                        if !mute {
                            mute = write_msg(
                                &mut writer,
                                &ServerMessage::Outcome {
                                    submission: id,
                                    index,
                                    outcome: Box::new(outcome.clone()),
                                },
                            )
                            .is_err();
                        }
                    },
                );
                if mute {
                    firm_obs::event(Level::Warn, TARGET)
                        .msg("client vanished mid-submission; results folded without it")
                        .field("peer", peer.as_str())
                        .field("submission", id)
                        .emit();
                    break;
                }
                let response = match result {
                    Ok(report) => ServerMessage::Report(Box::new(report)),
                    Err(message) => ServerMessage::Error {
                        submission: id,
                        message,
                        retryable: false,
                    },
                };
                if write_msg(&mut writer, &response).is_err() {
                    break;
                }
            }
            ClientRequest::Drain { .. } => {
                let report = service.drain();
                if write_msg(&mut writer, &ServerMessage::Report(Box::new(report))).is_err() {
                    break;
                }
            }
            ClientRequest::Shutdown { .. } => {
                // Refuse new work first so the drain below is final.
                service.retire("a client requested shutdown");
                let report = service.drain();
                let _ = write_msg(&mut writer, &ServerMessage::Report(Box::new(report)));
                request_stop(stop, local_addr);
                break;
            }
        }
    }
    firm_obs::event(Level::Debug, TARGET)
        .msg("client session ended")
        .field("peer", peer)
        .emit();
}

fn write_msg(writer: &mut TcpStream, msg: &ServerMessage) -> std::io::Result<()> {
    let frame = firm_wire::encode_line(msg);
    writer.write_all(frame.as_bytes())?;
    writer.flush()
}
