//! Telemetry snapshots exported by the simulator.
//!
//! The real FIRM deployment scrapes cAdvisor/Prometheus and the Linux perf
//! subsystem (Table 2). The simulator exports the equivalent observables
//! through [`InstanceSnapshot`] and [`NodeSnapshot`], and every consumer
//! (the FIRM manager's Table 3 state, both baselines, the episode
//! timeline) reads the drained [`TelemetryWindow`] directly — there is no
//! metric store beside it. Where each Table 2 metric lives:
//!
//! | Table 2 metric | paper source | carried by |
//! |---|---|---|
//! | `cpu_usage_seconds_total` | cAdvisor & Prometheus | [`InstanceSnapshot::usage`] `[Cpu]`, cores |
//! | `memory_usage_bytes` | cAdvisor & Prometheus | [`InstanceSnapshot::usage`] `[Llc]`, MB of working set |
//! | `fs_write/read_seconds` | cAdvisor & Prometheus | [`InstanceSnapshot::usage`] `[IoBw]`, MB/s |
//! | `fs_usage_bytes` | cAdvisor & Prometheus | [`InstanceSnapshot::usage`] `[IoBw]` × [`InstanceSnapshot::window`] |
//! | `network_transmit/receive_bytes_total` | cAdvisor & Prometheus | [`InstanceSnapshot::usage`] `[NetBw]`, MB/s |
//! | `processes` | cAdvisor & Prometheus | [`InstanceSnapshot::workers`] |
//! | `offcore_response.*.llc_hit/miss.*_DRAM` | Linux perf subsystem | [`InstanceSnapshot::mem_inflation`] over [`InstanceSnapshot::usage`] `[MemBw]` |
//! | per-core DRAM access (Fig. 1) | Linux perf subsystem | [`InstanceSnapshot::per_core_dram_mbps`] |
//! | span latency | tracing agents | [`InstanceSnapshot::mean_latency_us`] |
//! | queue length | tracing agents | [`InstanceSnapshot::avg_queue_len`] |
//! | dropped requests | tracing agents | [`InstanceSnapshot::drops`] |
//! | arrival rate | tracing agents | [`InstanceSnapshot::arrivals`] per window; cluster-wide [`TelemetryWindow::arrival_rate`] |

use crate::ids::{InstanceId, NodeId, ServiceId};
use crate::instance::InstanceState;
use crate::resources::ResourceVec;
use crate::spec::IsaArch;
use crate::time::{SimDuration, SimTime};

/// One instance's telemetry over a sampling window.
#[derive(Debug, Clone)]
pub struct InstanceSnapshot {
    /// Window end time.
    pub at: SimTime,
    /// Window length.
    pub window: SimDuration,
    /// The instance.
    pub instance: InstanceId,
    /// Its service.
    pub service: ServiceId,
    /// Its node.
    pub node: NodeId,
    /// Lifecycle state at sampling time.
    pub state: InstanceState,
    /// Resolved resource limits `RLT` (partition or node capacity).
    pub rlt: ResourceVec,
    /// Average resource usage rates over the window (cores, MB/s, MB,
    /// MB/s, MB/s — same units as [`ResourceVec`]).
    pub usage: ResourceVec,
    /// `usage / rlt`, clamped to `[0, 1]` — the RL state's `RU` vector.
    pub utilization: ResourceVec,
    /// Worker threads configured.
    pub workers: u32,
    /// Average queue length over the window.
    pub avg_queue_len: f64,
    /// Requests arrived in the window.
    pub arrivals: u64,
    /// Requests completed in the window.
    pub completions: u64,
    /// Requests dropped in the window.
    pub drops: u64,
    /// Mean per-request span latency in the window (us); 0 if none.
    pub mean_latency_us: f64,
    /// Average DRAM-traffic inflation factor (synthetic LLC-miss
    /// counter: >1 means the working set is not fitting).
    pub mem_inflation: f64,
    /// Per-core DRAM traffic, MB/s per core of quota (the Fig. 1
    /// "per-core DRAM access" series).
    pub per_core_dram_mbps: f64,
}

/// One node's telemetry over a sampling window.
#[derive(Debug, Clone)]
pub struct NodeSnapshot {
    /// Window end time.
    pub at: SimTime,
    /// The node.
    pub node: NodeId,
    /// Its ISA (for the Fig. 9(b) x86-vs-ppc64 split).
    pub arch: IsaArch,
    /// Capacity vector.
    pub capacity: ResourceVec,
    /// Anomaly contender load, absolute units.
    pub anomaly_load: ResourceVec,
    /// Sum of instance usage rates on the node.
    pub used: ResourceVec,
}

impl NodeSnapshot {
    /// Node-level utilization of one resource in `[0, 1]`.
    pub fn utilization(&self, kind: crate::resources::ResourceKind) -> f64 {
        let cap = self.capacity.get(kind);
        if cap <= 0.0 {
            0.0
        } else {
            (self.used.get(kind) / cap).clamp(0.0, 1.0)
        }
    }
}

/// A full telemetry window: every instance and node.
#[derive(Debug, Clone, Default)]
pub struct TelemetryWindow {
    /// Per-instance snapshots (only instances that exist).
    pub instances: Vec<InstanceSnapshot>,
    /// Per-node snapshots.
    pub nodes: Vec<NodeSnapshot>,
    /// Offered arrival rate over the window, requests/second.
    pub arrival_rate: f64,
    /// Request-type composition over the window (fractions summing to 1
    /// when any requests arrived).
    pub request_mix: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::ResourceKind;

    #[test]
    fn node_utilization_clamps() {
        let snap = NodeSnapshot {
            at: SimTime::ZERO,
            node: NodeId(0),
            arch: IsaArch::X86,
            capacity: ResourceVec::new(48.0, 25_600.0, 35.0, 2_000.0, 1_250.0),
            anomaly_load: ResourceVec::ZERO,
            used: ResourceVec::new(24.0, 51_200.0, 0.0, 0.0, 0.0),
        };
        assert!((snap.utilization(ResourceKind::Cpu) - 0.5).abs() < 1e-12);
        assert_eq!(snap.utilization(ResourceKind::MemBw), 1.0);
        assert_eq!(snap.utilization(ResourceKind::Llc), 0.0);
    }
}
