//! Tables 2, 3, 4 and 5: the configuration surfaces of FIRM, printed
//! from the live code so drift between paper and implementation is
//! visible.

use firm_core::estimator::{ACTION_DIM, ACTOR_STATE_DIM, STATE_DIM};
use firm_ml::ddpg::{ACTOR_LR, BATCH_SIZE, CRITIC_LR, GAMMA, HIDDEN, REPLAY_CAPACITY, TAU};
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
    println!("  # time steps x # minibatch      300 x {BATCH_SIZE}");
    println!("  size of replay buffer           {REPLAY_CAPACITY}");
    println!("  learning rate                   actor {ACTOR_LR:.0e}, critic {CRITIC_LR:.0e}");
    println!("  discount factor                 {GAMMA}");
    println!("  soft-target update coefficient  {TAU} (Alg. 3 reuses gamma)");
    println!(
        "  hidden layers                   {HIDDEN:?} (Fig. 8: two x 40, ReLU; actor output Tanh)"
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

#[cfg(test)]
mod tests {
    use super::TABLE2;
    use firm_sim::spec::{AppSpec, ClusterSpec};
    use firm_sim::{SimDuration, Simulation};

    /// Table 2 prints its field names from literals, so a deleted or
    /// renamed `InstanceSnapshot` field would leave the table wrong:
    /// every field it names (the identifier before any `[`) must be a
    /// field of a snapshot drained from a short run.
    #[test]
    fn table2_names_instance_snapshot_fields() {
        let mut sim =
            Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), 3).build();
        sim.run_for(SimDuration::from_millis(500));
        let snapshot = format!("{:?}", sim.drain_telemetry().instances[0]);
        for (_, rows) in TABLE2 {
            for (metric, field) in rows {
                let name: String = field
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                assert!(
                    !name.is_empty() && snapshot.contains(&format!(" {name}: ")),
                    "Table 2's {metric:?} names {name:?}, not a field of {snapshot}"
                );
            }
        }
    }
}
