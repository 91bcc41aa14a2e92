//! `firm-fleet-worker` — the fleet's worker process, for both
//! transports.
//!
//! **stdio mode** (default): serves one coordinator session over
//! stdin/stdout — the [`firm_fleet::transport::PipeTransport`] peer,
//! spawned and supervised by the runner itself. Exits 0 on EOF; exits 2
//! with a spanned error on stderr if a frame is malformed (the
//! supervisor treats that as a worker failure and re-dispatches).
//!
//! **TCP mode** (`--listen addr`): binds `addr` and serves one session
//! per inbound connection, each on its own thread, forever — the
//! [`firm_fleet::transport::TcpTransport`] peer, started once per host
//! by an operator:
//!
//! ```sh
//! FIRM_LOG=debug firm-fleet-worker --listen 0.0.0.0:7401 --obs-out obs.jsonl
//! ```
//!
//! Every session speaks the same protocol regardless of mode: a
//! `hello` handshake frame (protocol version, pid, heartbeat interval),
//! heartbeat frames every `--heartbeat-ms` (default 200, 0 disables),
//! one response frame per request, and a `metrics` frame at session
//! end. The worker is deliberately dumb: no seed derivation, no
//! ordering, no training — `decode → simulate → encode`, which is
//! exactly what makes a distributed fleet bit-identical to the
//! in-process one.
//!
//! Observability: `--log-level` (or the `FIRM_LOG` env var; the flag
//! wins) filters the structured event stream; events at `info` and
//! above render to stderr as human-readable lines. `--obs-out PATH`
//! writes the buffered events plus a final metrics snapshot as
//! firm-wire JSONL on exit (stdio mode) — all of it out-of-band, never
//! touching a result byte.

use std::io::Write;

use firm_fleet::worker::{listen, serve_session, ServeError, ServeOptions};
use firm_obs::Level;

const TARGET: &str = "firm-fleet-worker";

fn main() {
    firm_fleet::record_kernel_isa();
    let mut opts = ServeOptions::default();
    let mut listen_addr: Option<String> = None;
    let mut obs_out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => {
                listen_addr = Some(args.next().unwrap_or_else(|| usage("--listen needs addr")));
            }
            "--heartbeat-ms" => {
                opts.heartbeat_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--heartbeat-ms needs a number"));
            }
            "--log-level" => {
                let raw = args
                    .next()
                    .unwrap_or_else(|| usage("--log-level needs off|error|warn|info|debug|trace"));
                match firm_obs::parse_filter(&raw) {
                    Ok(level) => firm_obs::set_level(level),
                    Err(e) => usage(&e),
                }
            }
            "--obs-out" => {
                obs_out = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--obs-out needs a path")),
                );
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }

    match listen_addr {
        Some(addr) => {
            // TCP mode runs forever; an --obs-out file it could never
            // finish writing would always be empty, so refuse it up
            // front instead of surprising the operator at teardown.
            if obs_out.is_some() {
                usage("--obs-out applies to stdio mode (TCP mode never exits)");
            }
            if let Err(e) = listen(&addr, opts) {
                firm_obs::event(Level::Error, TARGET)
                    .msg("listen failed")
                    .field("addr", addr)
                    .field("error", e.to_string())
                    .emit();
                std::process::exit(1);
            }
        }
        None => {
            let stdin = std::io::stdin();
            let result = serve_session(stdin.lock(), std::io::stdout(), &opts);
            if let Some(path) = &obs_out {
                write_obs_out(path);
            }
            match result {
                Ok(()) => {}
                Err(e @ ServeError::BadFrame(_)) => {
                    firm_obs::event(Level::Error, TARGET)
                        .msg("session failed")
                        .field("error", e.to_string())
                        .emit();
                    std::process::exit(2);
                }
                Err(e) => {
                    firm_obs::event(Level::Error, TARGET)
                        .msg("session failed")
                        .field("error", e.to_string())
                        .emit();
                    std::process::exit(1);
                }
            }
        }
    }
}

/// Exports the run's observability as firm-wire JSONL: every buffered
/// event, then one final metrics snapshot frame.
fn write_obs_out(path: &str) {
    let mut jsonl = firm_obs::drain_events_jsonl();
    jsonl.push_str(&firm_wire::encode_line(&firm_obs::metrics().snapshot()));
    if let Err(e) = std::fs::write(path, jsonl) {
        firm_obs::event(Level::Error, TARGET)
            .msg("failed to write --obs-out file")
            .field("path", path)
            .field("error", e.to_string())
            .emit();
    }
}

fn usage(problem: &str) -> ! {
    let mut out = String::new();
    if !problem.is_empty() {
        out.push_str(&format!("firm-fleet-worker: {problem}\n"));
    }
    out.push_str(
        "usage: firm-fleet-worker [--listen host:port] [--heartbeat-ms N]\n\
         \x20                        [--log-level LEVEL] [--obs-out PATH]\n\
         \n\
         stdio mode (default): serve one coordinator session on stdin/stdout.\n\
         --listen host:port    serve a session per TCP connection, forever.\n\
         --heartbeat-ms N      liveness pulse interval (default 200, 0 disables).\n\
         --log-level LEVEL     off|error|warn|info|debug|trace (overrides FIRM_LOG).\n\
         --obs-out PATH        write events + metrics as firm-wire JSONL on exit\n\
         \x20                     (stdio mode only).\n",
    );
    let _ = std::io::stderr().write_all(out.as_bytes());
    std::process::exit(if problem.is_empty() { 0 } else { 64 });
}
