//! The client side of the serving protocol: connect, submit, stream.
//!
//! [`ServeClient`] is what `firm-fleet-client` (and the serve tests)
//! are built on. One client holds one connection and may issue any
//! number of sequential requests on it; run several clients for
//! concurrent submissions.
//!
//! # Surviving a broken connection
//!
//! A submission whose connection dies mid-stream is *not* lost: the
//! server folds it into the resident state without the client (see
//! [`crate::server`]). The client recovers with
//! [`ServeClient::reconnect_with_backoff`] — seeded, bounded,
//! full-jitter exponential backoff, so a thundering herd of clients
//! spreads out deterministically per seed — followed by a `drain`:
//! the cumulative report it returns contains everything that folded
//! while the client was gone. [`ServeClient::recover_via_drain`] is
//! that sequence in one call.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use firm_fleet::report::ScenarioOutcome;
use firm_fleet::scenario::Scenario;
use firm_rng::{mix64, Xoshiro256};

use crate::protocol::{
    ClientRequest, ServerMessage, SubmissionReport, SubmitRequest, PROTOCOL_VERSION,
};

/// Why a client request failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connect, read, or write).
    Io(std::io::Error),
    /// The server's byte stream was not a valid frame sequence, or a
    /// frame arrived out of protocol order — version skew or a bug;
    /// the connection cannot safely continue.
    Protocol(String),
    /// The server answered with an error frame; the connection is
    /// still usable.
    Rejected {
        /// The submission the rejection belongs to (0 if the request
        /// never became one).
        submission: u64,
        /// The server's explanation.
        message: String,
        /// The server's word that the refusal is transient
        /// (backpressure, shutdown drain) and the request may be
        /// retried with backoff.
        retryable: bool,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Rejected {
                submission,
                message,
                ..
            } => write!(f, "rejected (submission {submission}): {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// How [`ServeClient::reconnect_with_backoff`] paces its redial
/// attempts: bounded, seeded, full-jitter exponential backoff.
///
/// Attempt 0 dials immediately; before attempt `n > 0` the client
/// sleeps a uniformly random duration in
/// `[0, min(base_ms << (n-1), cap_ms))` drawn from a [`Xoshiro256`]
/// seeded by `seed` — so a fleet of clients with distinct seeds spreads
/// its redials deterministically instead of stampeding the server.
#[derive(Debug, Clone)]
pub struct BackoffPolicy {
    /// Total dial attempts before giving up (the first is immediate).
    pub attempts: usize,
    /// Backoff scale for the first sleep, in milliseconds.
    pub base_ms: u64,
    /// Ceiling on any single sleep, in milliseconds.
    pub cap_ms: u64,
    /// Seed for the jitter stream; give each client its own.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            attempts: 6,
            base_ms: 50,
            cap_ms: 2000,
            seed: 0,
        }
    }
}

/// One connection to a resident fleet server.
pub struct ServeClient {
    addr: String,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServeClient {
    /// Connects to a `firm-fleet serve` coordinator at `addr`
    /// (`host:port`).
    pub fn connect(addr: &str) -> Result<ServeClient, ClientError> {
        let (reader, writer) = Self::dial(addr)?;
        Ok(ServeClient {
            addr: addr.to_string(),
            reader,
            writer,
        })
    }

    /// The address this client dialed (and redials on reconnect).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn dial(addr: &str) -> Result<(BufReader<TcpStream>, TcpStream), ClientError> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true).ok();
        let reader = BufReader::new(writer.try_clone()?);
        Ok((reader, writer))
    }

    /// Replaces a broken connection with a fresh one to the same
    /// address, redialing under `policy` (see [`BackoffPolicy`]).
    /// Returns the last dial error if every attempt fails; the old
    /// connection is discarded either way.
    pub fn reconnect_with_backoff(&mut self, policy: &BackoffPolicy) -> Result<(), ClientError> {
        let mut rng = Xoshiro256::new(mix64(policy.seed, 0xB0FF));
        let mut last = ClientError::Protocol("reconnect with zero attempts".to_string());
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                let shift = (attempt - 1).min(20) as u32;
                let ceil = policy
                    .base_ms
                    .saturating_mul(1u64 << shift)
                    .min(policy.cap_ms)
                    .max(1);
                std::thread::sleep(Duration::from_millis(rng.next_below(ceil)));
            }
            match Self::dial(&self.addr) {
                Ok((reader, writer)) => {
                    self.reader = reader;
                    self.writer = writer;
                    return Ok(());
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Recovers after a connection died mid-submission: reconnect under
    /// `policy`, then `drain`. The cumulative report it returns covers
    /// every submission the server folded — including any that finished
    /// while this client was gone — so nothing a broken connection
    /// swallowed is lost.
    pub fn recover_via_drain(
        &mut self,
        policy: &BackoffPolicy,
    ) -> Result<SubmissionReport, ClientError> {
        self.reconnect_with_backoff(policy)?;
        self.drain()
    }

    /// Submits a catalog and streams its results: `on_outcome` fires
    /// per scenario in completion order, and the returned
    /// [`SubmissionReport`] carries the submission's deterministic
    /// fleet report and the cumulative pool sizes after the fold (no
    /// policy: [`ServeClient::drain`] reads the resident one).
    /// See [`SubmitRequest`] for how `seed` and `base_index` anchor
    /// bit-parity with batch runs.
    pub fn submit(
        &mut self,
        seed: u64,
        base_index: u64,
        scenarios: Vec<Scenario>,
        on_outcome: &mut dyn FnMut(u64, ScenarioOutcome),
    ) -> Result<SubmissionReport, ClientError> {
        let expected = scenarios.len() as u64;
        self.send(&ClientRequest::Submit(SubmitRequest {
            protocol: PROTOCOL_VERSION,
            seed,
            base_index,
            scenarios,
        }))?;
        let id = match self.read_msg()? {
            ServerMessage::Accepted {
                protocol,
                submission,
                scenarios,
            } => {
                if protocol != PROTOCOL_VERSION {
                    return Err(ClientError::Protocol(format!(
                        "protocol skew: server speaks fleet protocol v{protocol}, this \
                         client speaks v{PROTOCOL_VERSION} — upgrade the older side"
                    )));
                }
                if scenarios != expected {
                    return Err(ClientError::Protocol(format!(
                        "server accepted {scenarios} scenarios, {expected} were submitted"
                    )));
                }
                submission
            }
            ServerMessage::Error {
                submission,
                message,
                retryable,
            } => {
                return Err(ClientError::Rejected {
                    submission,
                    message,
                    retryable,
                })
            }
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected an accepted frame, got {}",
                    frame_name(&other)
                )))
            }
        };
        loop {
            match self.read_msg()? {
                ServerMessage::Outcome {
                    submission,
                    index,
                    outcome,
                } => {
                    if submission != id {
                        return Err(ClientError::Protocol(format!(
                            "outcome for submission {submission} on a stream serving {id}"
                        )));
                    }
                    on_outcome(index, *outcome);
                }
                ServerMessage::Report(report) => {
                    if report.submission != id || report.cumulative {
                        return Err(ClientError::Protocol(format!(
                            "expected the report for submission {id}, got {} (cumulative: {})",
                            report.submission, report.cumulative
                        )));
                    }
                    return Ok(*report);
                }
                ServerMessage::Error {
                    submission,
                    message,
                    retryable,
                } => {
                    return Err(ClientError::Rejected {
                        submission,
                        message,
                        retryable,
                    })
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected an outcome or report frame, got {}",
                        frame_name(&other)
                    )))
                }
            }
        }
    }

    /// Waits for the server to finish every outstanding submission and
    /// returns its cumulative report, with the resident policy.
    pub fn drain(&mut self) -> Result<SubmissionReport, ClientError> {
        self.send(&ClientRequest::Drain {
            protocol: PROTOCOL_VERSION,
        })?;
        self.read_cumulative_report()
    }

    /// Asks the server to drain and stop, returning its final
    /// cumulative report.
    pub fn shutdown(&mut self) -> Result<SubmissionReport, ClientError> {
        self.send(&ClientRequest::Shutdown {
            protocol: PROTOCOL_VERSION,
        })?;
        self.read_cumulative_report()
    }

    fn read_cumulative_report(&mut self) -> Result<SubmissionReport, ClientError> {
        match self.read_msg()? {
            ServerMessage::Report(report) if report.cumulative => Ok(*report),
            ServerMessage::Error {
                submission,
                message,
                retryable,
            } => Err(ClientError::Rejected {
                submission,
                message,
                retryable,
            }),
            other => Err(ClientError::Protocol(format!(
                "expected a cumulative report frame, got {}",
                frame_name(&other)
            ))),
        }
    }

    fn send(&mut self, request: &ClientRequest) -> Result<(), ClientError> {
        let frame = firm_wire::encode_line(request);
        self.writer.write_all(frame.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    fn read_msg(&mut self) -> Result<ServerMessage, ClientError> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(ClientError::Protocol(
                    "server closed the connection mid-request".to_string(),
                ));
            }
            if line.trim().is_empty() {
                continue;
            }
            return firm_wire::decode_line(&line)
                .map_err(|e| ClientError::Protocol(format!("bad server frame: {e}")));
        }
    }
}

fn frame_name(msg: &ServerMessage) -> &'static str {
    match msg {
        ServerMessage::Accepted { .. } => "an accepted frame",
        ServerMessage::Outcome { .. } => "an outcome frame",
        ServerMessage::Report(_) => "a report frame",
        ServerMessage::Error { .. } => "an error frame",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    /// Reconnect against an address nobody listens on burns its bounded
    /// attempt budget and reports the dial failure — it neither spins
    /// forever nor sleeps unboundedly.
    #[test]
    fn reconnect_exhausts_its_bounded_attempts_against_a_dead_server() {
        // Bind-then-drop: the port was just free, so dialing it fails fast.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local_addr").to_string();
        let mut client = ServeClient::connect(&addr).expect("connect while alive");
        drop(listener);

        let policy = BackoffPolicy {
            attempts: 4,
            base_ms: 2,
            cap_ms: 8,
            seed: 11,
        };
        let started = Instant::now();
        let err = client
            .reconnect_with_backoff(&policy)
            .expect_err("nobody is listening");
        assert!(matches!(err, ClientError::Io(_)), "got: {err}");
        // 3 sleeps bounded by cap_ms = at most ~24ms of backoff; leave
        // wide slack for slow CI but catch an unbounded retry loop.
        assert!(started.elapsed() < Duration::from_secs(5));
    }
}
