//! `firm-fleet` — operator entry point for the resident fleet service.
//!
//! ```sh
//! firm-fleet serve --listen 0.0.0.0:7500 --workers 4 --seed 7 \
//!     --train-steps 128 --obs-out serve-obs.jsonl
//! ```
//!
//! `serve` starts the coordinator: it connects the worker pool
//! (subprocess `firm-fleet-worker`s and/or `--remote` TCP workers),
//! binds `--listen`, and accepts `firm-fleet-client` submissions until
//! a client sends `shutdown`. On exit it writes `--obs-out` (buffered
//! events as firm-wire JSONL, then one `ops_report` frame folding the
//! coordinator registry and every worker's session-end snapshot) —
//! out-of-band diagnostics, never part of any digest-covered byte.

use std::io::Write;

use std::sync::Arc;
use std::time::Duration;

use firm_fleet::{FleetConfig, OpsReport};
use firm_obs::Level;
use firm_serve::{FleetServer, FleetService, ServiceLimits};

const TARGET: &str = "firm-fleet";

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("serve") => serve(args),
        Some("--help") | Some("-h") => usage(""),
        Some(other) => usage(&format!("unknown subcommand `{other}`")),
        None => usage("a subcommand is required"),
    }
}

fn serve(mut args: impl Iterator<Item = String>) {
    firm_fleet::record_kernel_isa();
    let mut listen: Option<String> = None;
    let mut obs_out: Option<String> = None;
    let mut limits = ServiceLimits::default();
    let mut config = FleetConfig {
        workers: 2,
        train_steps: 128,
        seed: 7,
        ..FleetConfig::default()
    };

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = Some(need(&mut args, "--listen")),
            "--workers" => config.workers = need_u64(&mut args, "--workers") as usize,
            "--remote" => config.remote_workers.push(need(&mut args, "--remote")),
            "--worker-bin" => config.worker_bin = Some(need(&mut args, "--worker-bin").into()),
            "--seed" => config.seed = need_u64(&mut args, "--seed"),
            "--train-steps" => config.train_steps = need_u64(&mut args, "--train-steps") as usize,
            // 0 disables the timeout (crash detection still applies).
            "--request-timeout-ms" => {
                let ms = need_u64(&mut args, "--request-timeout-ms");
                config.supervisor.request_timeout = (ms > 0).then(|| Duration::from_millis(ms))
            }
            "--max-attempts" => {
                config.supervisor.max_attempts =
                    (need_u64(&mut args, "--max-attempts") as usize).max(1)
            }
            "--max-pending" => {
                limits.max_pending_scenarios = need_u64(&mut args, "--max-pending") as usize
            }
            "--obs-out" => obs_out = Some(need(&mut args, "--obs-out")),
            "--log-level" => {
                let raw = need(&mut args, "--log-level");
                match firm_obs::parse_filter(&raw) {
                    Ok(level) => firm_obs::set_level(level),
                    Err(e) => usage(&e),
                }
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let Some(listen) = listen else {
        usage("--listen is required");
    };

    let server = match FleetService::with_limits(config, limits)
        .map(Arc::new)
        .and_then(|service| FleetServer::start_with(&listen, service))
    {
        Ok(s) => s,
        Err(e) => {
            firm_obs::event(Level::Error, TARGET)
                .msg("serve failed to start")
                .field("listen", listen)
                .field("error", e)
                .emit();
            std::process::exit(1);
        }
    };
    // Blocks until a client sends `shutdown`, then tears down the
    // worker pool and hands back the session-end snapshots.
    let worker_ops = server.join();
    firm_obs::event(Level::Info, TARGET)
        .msg("serve stopped")
        .field("workers_reporting", worker_ops.len())
        .emit();
    if let Some(path) = &obs_out {
        write_obs_out(path, worker_ops);
    }
}

/// Exports the run's observability as firm-wire JSONL: every buffered
/// event, then one `ops_report` frame (coordinator registry plus the
/// workers' session-end snapshots).
fn write_obs_out(path: &str, worker_ops: Vec<firm_fleet::WorkerOps>) {
    let mut jsonl = firm_obs::drain_events_jsonl();
    jsonl.push_str(&firm_wire::encode_line(&OpsReport::new(
        firm_obs::metrics().snapshot(),
        worker_ops,
    )));
    if let Err(e) = std::fs::write(path, jsonl) {
        firm_obs::event(Level::Error, TARGET)
            .msg("failed to write --obs-out file")
            .field("path", path)
            .field("error", e.to_string())
            .emit();
    }
}

fn need(args: &mut impl Iterator<Item = String>, what: &str) -> String {
    args.next()
        .unwrap_or_else(|| usage(&format!("{what} needs a value")))
}

fn need_u64(args: &mut impl Iterator<Item = String>, what: &str) -> u64 {
    need(args, what)
        .parse()
        .unwrap_or_else(|_| usage(&format!("{what} needs a number")))
}

fn usage(problem: &str) -> ! {
    let mut out = String::new();
    if !problem.is_empty() {
        out.push_str(&format!("firm-fleet: {problem}\n"));
    }
    out.push_str(
        "usage: firm-fleet serve --listen host:port [options]\n\
         \n\
         Run the resident fleet coordinator: accept scenario submissions from\n\
         firm-fleet-client processes, schedule them onto a supervised worker\n\
         pool, stream results back, and keep one shared agent learning across\n\
         all submissions. Stops when a client sends shutdown.\n\
         \n\
         --listen host:port       address to accept clients on (0 picks a port;\n\
         \x20                        the bound address is printed to stderr).\n\
         --workers N              subprocess firm-fleet-worker count (default 2).\n\
         \x20                        Each worker runs one scenario at a time, on one\n\
         \x20                        thread; more workers is the only parallelism.\n\
         --remote host:port       a firm-fleet-worker --listen address; repeatable.\n\
         --worker-bin PATH        worker binary (default: FIRM_FLEET_WORKER, then\n\
         \x20                        next to this executable).\n\
         --seed N                 the service's fleet seed (default 7) — seeds the\n\
         \x20                        cumulative report and the resident policy.\n\
         --train-steps N          minibatches per resident-policy train (default 128).\n\
         --request-timeout-ms N   per-scenario timeout (default 300000, 0 disables).\n\
         --max-attempts N         worker failures tolerated per scenario (default 3).\n\
         --max-pending N          backpressure bound: scenarios admitted but not yet\n\
         \x20                        folded (default 1024, 0 disables); beyond it new\n\
         \x20                        submissions get a retryable error frame.\n\
         --obs-out PATH           write events + ops_report JSONL on exit.\n\
         --log-level LEVEL        off|error|warn|info|debug|trace (overrides FIRM_LOG).\n",
    );
    let _ = std::io::stderr().write_all(out.as_bytes());
    std::process::exit(if problem.is_empty() { 0 } else { 64 });
}
