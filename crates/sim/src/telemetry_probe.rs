//! Telemetry snapshots exported by the simulator.
//!
//! The real FIRM deployment scrapes cAdvisor/Prometheus and the Linux perf
//! subsystem (Table 2). The simulator exports the equivalent observables
//! through [`InstanceSnapshot`], and every consumer (the FIRM manager's
//! Table 3 state, both baselines, the Fig. 1 probe) reads the drained
//! [`TelemetryWindow`] directly — there is no metric store beside it.
//!
//! The rule for what goes in: the simulator exports what a controller,
//! a figure or Table 2 reads, and nothing else. There is no per-node
//! snapshot, because nothing reads one; a node-level usage sum is a
//! fold over [`InstanceSnapshot::usage`] grouped by each instance's
//! `Simulation::instance(id).node`. Where each Table 2 metric lives:
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

use crate::ids::{InstanceId, ServiceId};
use crate::instance::InstanceState;
use crate::resources::ResourceVec;
use crate::time::SimDuration;

/// One instance's telemetry over a sampling window.
#[derive(Debug, Clone)]
pub struct InstanceSnapshot {
    /// Window length.
    pub window: SimDuration,
    /// The instance.
    pub instance: InstanceId,
    /// Its service.
    pub service: ServiceId,
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

/// A full telemetry window: every live instance.
#[derive(Debug, Clone, Default)]
pub struct TelemetryWindow {
    /// Per-instance snapshots (only instances that exist).
    pub instances: Vec<InstanceSnapshot>,
    /// Offered arrival rate over the window, requests/second.
    pub arrival_rate: f64,
    /// Request-type composition over the window (fractions summing to 1
    /// when any requests arrived).
    pub request_mix: Vec<f64>,
}
