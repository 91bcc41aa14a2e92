//! Tables 2, 3, 4 and 5: the configuration surfaces of FIRM, printed
//! from the live code so drift between paper and implementation is
//! visible.

use firm_core::estimator::{ACTION_DIM, ACTOR_STATE_DIM, STATE_DIM};
use firm_ml::ddpg::DdpgConfig;
use firm_sim::anomaly::ANOMALY_KINDS;

use crate::{banner, section, Args};

/// Table 2 as the paper groups it: each source, then its metrics paired
/// with the `firm_sim::telemetry_probe::InstanceSnapshot` field the
/// control loop reads them from.
const TABLE2: [(&str, &[(&str, &str)]); 3] = [
    (
        "cAdvisor & Prometheus",
        &[
            ("cpu_usage_seconds_total", "usage[Cpu]"),
            ("memory_usage_bytes", "usage[Llc]"),
            ("fs_write/read_seconds", "usage[IoBw]"),
            ("fs_usage_bytes", "usage[IoBw] x window"),
            ("network_transmit/receive_bytes_total", "usage[NetBw]"),
            ("processes", "workers"),
        ],
    ),
    (
        "Linux perf subsystem",
        &[
            ("offcore_response.*.llc_hit/miss.*_DRAM", "mem_inflation"),
            ("per-core DRAM access (Fig. 1)", "per_core_dram_mbps"),
        ],
    ),
    (
        "tracing agents",
        &[
            ("span latency", "mean_latency_us"),
            ("queue length", "avg_queue_len"),
            ("dropped requests", "drops"),
            ("arrival rate", "arrivals; TelemetryWindow::arrival_rate"),
        ],
    ),
];

pub fn run(_: &Args) {
    banner(
        "Tables 2–5",
        "Configuration surfaces (telemetry, state-action, RL, anomalies)",
    );

    section("Table 2: collected telemetry data and sources");
    println!("  {:<44} {:<22} InstanceSnapshot field", "metric", "source");
    for (source, rows) in TABLE2 {
        for (metric, field) in rows {
            println!("  {metric:<44} {source:<22} {field}");
        }
    }

    section("Table 3: state-action space of the RL agent");
    println!("  state  (SVt, WCt, RCt, RUt[5])            -> actor inputs   = {ACTOR_STATE_DIM}");
    println!("  state  ⊕ normalized limits and usage      -> full state dim = {STATE_DIM}");
    println!("  action RLTi, i ∈ {{CPU, Mem, LLC, IO, Net}} -> action dim     = {ACTION_DIM}");
    println!(
        "  critic input = state ⊕ action             -> {} (Fig. 8: 23)",
        STATE_DIM + ACTION_DIM
    );

    section("Table 4: RL training parameters");
    let cfg = DdpgConfig::paper(STATE_DIM, ACTOR_STATE_DIM, ACTION_DIM);
    println!("  # time steps x # minibatch      300 x {}", cfg.batch_size);
    println!("  size of replay buffer           {}", cfg.replay_capacity);
    println!(
        "  learning rate                   actor {:.0e}, critic {:.0e}",
        cfg.actor_lr, cfg.critic_lr
    );
    println!("  discount factor                 {}", cfg.gamma);
    println!(
        "  soft-target update coefficient  {} (Alg. 3 reuses gamma)",
        cfg.tau
    );
    println!(
        "  hidden layers                   {:?} (Fig. 8: two x 40, ReLU; actor output Tanh)",
        cfg.hidden
    );

    section("Table 5: performance-anomaly types and the paper's tools");
    println!("  {:<30} tools (paper) / model (here)", "anomaly");
    for kind in ANOMALY_KINDS {
        let model = match kind.contended_resource() {
            Some(r) => format!("consumes node {r} pool"),
            None => match kind {
                firm_sim::AnomalyKind::WorkloadVariation => "multiplies arrival rate".to_string(),
                _ => "adds per-RPC delay".to_string(),
            },
        };
        println!("  {:<30} {} / {}", kind.label(), kind.paper_tools(), model);
    }
}
