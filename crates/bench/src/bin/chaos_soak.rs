//! Chaos soak: the fleet's recovery machinery under seeded fault
//! plans, checked for bit-identical output — the CI smoke for the
//! `firm-chaos` adversary and the supervisor/transport hardening.
//!
//! Runs the (truncated) scenario catalog once fault-free in process,
//! then once per `--chaos-seeds` entry over real workers whose
//! connections suffer the seed's derived [`firm_chaos::FaultPlan`]
//! (crashes, drops, truncations, corruption, blackholes, stalls,
//! heartbeat suppression). Every chaotic run must reproduce the
//! baseline report bytes, digest, pooled experience, and trained
//! weights exactly; any divergence panics, so the exit code is the
//! verdict.
//!
//! ```sh
//! cargo run --release -p firm-bench --bin chaos_soak -- \
//!     --scenarios 4 --seconds 3 --chaos-seeds 1,2,3 \
//!     --remote 127.0.0.1:7101,127.0.0.1:7102
//! ```
//!
//! `--remote addr1,addr2,...` soaks already-running
//! `firm-fleet-worker --listen` processes over chaos-wrapped TCP;
//! without it, `--workers N` (default 2) spawns chaos-wrapped
//! `firm-fleet-worker` subprocesses. `--timeout-ms` bounds each
//! dispatched request so a planned blackhole is reaped in seconds
//! (timeouts are recovery machinery and may never move a byte).
//! `--out PATH` writes the per-seed rows as JSON; without it the
//! verdict line on stdout is the whole result. Observability riders:
//! `--log-level LEVEL` filters the `firm_obs` event stream (overrides
//! `FIRM_LOG`), and `--obs-out PATH` writes the buffered events plus
//! the last run's `OpsReport` as firm-wire JSONL — it carries the
//! `chaos.injected.*`, `fleet.reconnect.backoff_us`, and retry/recycle
//! counters the soak exercised.

use std::sync::atomic::Ordering;
use std::time::Instant;

use firm_bench::{banner, Args};
use firm_chaos::{ChaosTransport, FaultPlan};
use firm_fleet::transport::{PipeTransport, TcpTransport, Transport};
use firm_fleet::{builtin_catalog, FleetConfig, FleetRunner, Scenario};
use firm_sim::SimDuration;
use firm_wire::{JsonValue, Obj};

fn main() {
    let args = Args::parse(std::env::args().skip(1));
    let seconds = args.u64("seconds", 3);
    let take = args.u64("scenarios", 4) as usize;
    let seed = args.u64("seed", 7);
    let workers = args.u64("workers", 2) as usize;
    let timeout_ms = args.u64("timeout-ms", 3_000);
    let chaos_seeds = args.list("chaos-seeds", &[1u64, 2, 3]);
    let remote: Vec<String> = args
        .get("remote")
        .map(|v| v.split(',').map(str::to_string).collect())
        .unwrap_or_default();
    let out_path = args.get("out").map(str::to_string);
    let obs_out = args.get("obs-out").map(str::to_string);
    if let Some(raw) = args.get("log-level") {
        match firm_obs::parse_filter(raw) {
            Ok(level) => firm_obs::set_level(level),
            Err(e) => panic!("--log-level: {e}"),
        }
    }

    let scenarios: Vec<Scenario> = builtin_catalog()
        .into_iter()
        .take(take.max(1))
        .map(|s| s.with_duration(SimDuration::from_secs(seconds)))
        .collect();
    let config = FleetConfig {
        threads: 2,
        seed,
        train_steps: 32,
        request_timeout_ms: timeout_ms,
        ..FleetConfig::default()
    };
    let slots = if remote.is_empty() {
        workers.max(1)
    } else {
        remote.len()
    };

    banner(
        "BENCH chaos_soak",
        "seeded fault injection over real workers: recovery must not move a byte",
    );
    println!(
        "catalog: {} scenarios x {seconds}s simulated; {} chaos-wrapped {} slot(s); \
         chaos seeds {:?}\n",
        scenarios.len(),
        slots,
        if remote.is_empty() { "pipe" } else { "tcp" },
        chaos_seeds,
    );

    let baseline = FleetRunner::new(config.clone()).run(&scenarios);
    let digest = baseline.report.digest();

    let mut rows: Vec<JsonValue> = Vec::new();
    let mut last_ops = None;
    let mut total_injected = 0u64;
    for &chaos_seed in &chaos_seeds {
        let mut transports: Vec<Box<dyn Transport>> = Vec::new();
        let mut counters = Vec::new();
        for slot in 0..slots {
            let inner: Box<dyn Transport> = if remote.is_empty() {
                Box::new(PipeTransport::new(config.resolve_worker_bin()))
            } else {
                Box::new(TcpTransport::new(remote[slot].clone()))
            };
            let chaos = ChaosTransport::new(inner, FaultPlan::derive(chaos_seed, slot));
            counters.push(chaos.injection_counter());
            transports.push(Box::new(chaos));
        }
        let start = Instant::now();
        let chaotic = FleetRunner::new(config.clone()).run_with_transports(&scenarios, transports);
        let wall_secs = start.elapsed().as_secs_f64();
        let injected: u64 = counters.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        total_injected += injected;

        assert_eq!(
            baseline.report.to_json(),
            chaotic.report.to_json(),
            "report bytes moved under chaos seed {chaos_seed}"
        );
        assert_eq!(
            digest,
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
        println!(
            "chaos-seed={chaos_seed:<3} wall={wall_secs:>6.2}s injected={injected:<2} \
             digest matches baseline"
        );
        rows.push(
            Obj::new()
                .field("chaos_seed", chaos_seed)
                .field("wall_secs", (wall_secs * 1_000.0).round() / 1_000.0)
                .field("injected", injected)
                .field("digest_matches", true)
                .build(),
        );
        last_ops = Some(chaotic.ops);
    }
    println!(
        "\nall {} chaos seeds bit-identical to the fault-free run \
         (digest {digest:016x}, {total_injected} faults injected)",
        chaos_seeds.len(),
    );

    if let Some(path) = &out_path {
        let mut json = Obj::new()
            .field("bench", "chaos_soak")
            .field("scenarios", scenarios.len())
            .field("sim_seconds_each", seconds)
            .field("seed", seed)
            .field("slots", slots)
            .field("transport", if remote.is_empty() { "pipe" } else { "tcp" })
            .field("report_digest", format!("{digest:016x}"))
            .field("total_injected", total_injected)
            .field("runs", rows)
            .build()
            .render();
        json.push('\n');
        std::fs::write(path, &json).expect("write --out file");
        println!("wrote {path}");
    }

    if let Some(path) = &obs_out {
        let mut jsonl = firm_obs::drain_events_jsonl();
        if let Some(ops) = &last_ops {
            jsonl.push_str(&firm_wire::encode_line(ops));
        }
        std::fs::write(path, jsonl).expect("write --obs-out file");
        println!("wrote {path}");
    }
}
