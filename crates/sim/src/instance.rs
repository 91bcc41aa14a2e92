//! Runtime state of a container instance (one replica of a microservice).

use crate::ids::{NodeId, ServiceId};
use crate::resources::{ResourceKind, ResourceVec, RESOURCE_KINDS};

/// Lifecycle state of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// Container is starting (Table 6 warm/cold start latency); it is not
    /// yet eligible for load balancing.
    Starting,
    /// Serving requests.
    Running,
    /// Excluded from load balancing, finishing its queue before removal.
    Draining,
    /// Removed from the cluster; the slot is retained for stable IDs.
    Removed,
}

/// Per-window usage accounting for one instance.
///
/// Usage is accumulated as *work amounts* (core-us, MB) and converted to
/// rates/utilizations when a window snapshot is taken.
#[derive(Debug, Clone, Copy, Default)]
pub struct UsageWindow {
    /// CPU work executed, in core-microseconds.
    pub cpu_core_us: f64,
    /// DRAM traffic, in MB (after LLC-miss inflation).
    pub mem_mb: f64,
    /// Disk traffic, in MB.
    pub io_mb: f64,
    /// Network traffic, in MB.
    pub net_mb: f64,
    /// Sum of the LLC share the instance observed at each chunk start
    /// (divide by `chunks` for the average share).
    pub llc_share_sum: f64,
    /// Sum of the observed memory-inflation factors at chunk starts.
    pub inflation_sum: f64,
    /// Number of compute chunks started.
    pub chunks: u64,
    /// Requests that arrived.
    pub arrivals: u64,
    /// Requests that completed.
    pub completions: u64,
    /// Requests dropped on queue overflow.
    pub drops: u64,
    /// Sum of sampled queue lengths.
    pub queue_len_sum: u64,
    /// Number of queue-length samples.
    pub queue_samples: u64,
    /// Sum of per-request span latencies (us) for completed requests.
    pub latency_sum_us: u64,
}

impl UsageWindow {
    /// Resets the window.
    pub fn clear(&mut self) {
        *self = UsageWindow::default();
    }

    /// Average observed memory-inflation factor (1.0 when no chunks ran).
    pub fn avg_inflation(&self) -> f64 {
        if self.chunks == 0 {
            1.0
        } else {
            self.inflation_sum / self.chunks as f64
        }
    }

    /// Average observed LLC share in MB (0 when no chunks ran).
    pub fn avg_llc_share(&self) -> f64 {
        if self.chunks == 0 {
            0.0
        } else {
            self.llc_share_sum / self.chunks as f64
        }
    }

    /// Mean queue length over the window's samples.
    pub fn avg_queue_len(&self) -> f64 {
        if self.queue_samples == 0 {
            0.0
        } else {
            self.queue_len_sum as f64 / self.queue_samples as f64
        }
    }
}

/// A container instance.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The microservice this instance replicates.
    pub service: ServiceId,
    /// The node it is placed on.
    pub node: NodeId,
    /// Lifecycle state.
    pub state: InstanceState,
    /// Per-resource partitions: `Some(amount)` = an explicit limit
    /// (cgroups quota / MBA / CAT / blkio / HTB); `None` = best-effort.
    /// CPU always has a quota, Kubernetes-style.
    pub partitions: [Option<f64>; 5],
    /// Maximum worker threads (from the service spec).
    pub max_threads: u32,
    /// Busy workers right now.
    pub busy_workers: u32,
    /// Queued activity handles (indices into the engine's activity slab).
    pub queue: std::collections::VecDeque<usize>,
    /// Queue capacity (overflow drops).
    pub queue_cap: usize,
    /// Current usage-accounting window.
    pub window: UsageWindow,
    /// Per-resource direct stress from container-level anomaly
    /// injections (§3.6: the injector runs inside the container);
    /// intensity sums in `[0, 1+]` per canonical resource index.
    pub stress: [f64; 5],
}

impl Instance {
    /// Creates an instance in the given lifecycle state.
    pub fn new(
        service: ServiceId,
        node: NodeId,
        cpu_limit: f64,
        max_threads: u32,
        queue_cap: usize,
        state: InstanceState,
    ) -> Self {
        let mut partitions = [None; 5];
        partitions[ResourceKind::Cpu.index()] = Some(cpu_limit);
        Instance {
            service,
            node,
            state,
            partitions,
            max_threads,
            busy_workers: 0,
            queue: std::collections::VecDeque::new(),
            queue_cap,
            window: UsageWindow::default(),
            stress: [0.0; 5],
        }
    }

    /// The instance's CPU quota in cores.
    pub fn cpu_limit(&self) -> f64 {
        self.partitions[ResourceKind::Cpu.index()].unwrap_or(1.0)
    }

    /// Worker-thread count: `ceil(cpu quota)` capped by `max_threads`
    /// (§3.4: raising the CPU limit beyond the thread count cannot help).
    pub fn workers(&self) -> u32 {
        (self.cpu_limit().ceil() as u32).clamp(1, self.max_threads)
    }

    /// Free worker slots.
    pub fn free_workers(&self) -> u32 {
        self.workers().saturating_sub(self.busy_workers)
    }

    /// The partition of `kind`, if set.
    pub fn partition(&self, kind: ResourceKind) -> Option<f64> {
        self.partitions[kind.index()]
    }

    /// Sets or clears the partition of `kind`.
    pub fn set_partition(&mut self, kind: ResourceKind, amount: Option<f64>) {
        self.partitions[kind.index()] = amount;
    }

    /// The resolved resource-limit vector `RLT` (Table 3): the partition
    /// where set, otherwise the node capacity (best-effort is effectively
    /// "limited" only by the hardware).
    pub fn rlt(&self, node_capacity: &ResourceVec) -> ResourceVec {
        let mut v = *node_capacity;
        for kind in RESOURCE_KINDS {
            if let Some(p) = self.partition(kind) {
                v.set(kind, p);
            }
        }
        v
    }

    /// True if the instance participates in load balancing.
    pub fn accepts_load(&self) -> bool {
        self.state == InstanceState::Running
    }

    /// Load metric used by the least-loaded balancer: busy workers plus
    /// queue length.
    pub fn load(&self) -> usize {
        self.busy_workers as usize + self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(cpu: f64) -> Instance {
        Instance::new(
            ServiceId(0),
            NodeId(0),
            cpu,
            64,
            128,
            InstanceState::Running,
        )
    }

    #[test]
    fn workers_follow_quota() {
        assert_eq!(inst(0.5).workers(), 1);
        assert_eq!(inst(1.0).workers(), 1);
        assert_eq!(inst(2.3).workers(), 3);
        let mut i = inst(100.0);
        i.max_threads = 16;
        assert_eq!(i.workers(), 16);
    }

    #[test]
    fn partitions_roundtrip() {
        let mut i = inst(2.0);
        assert_eq!(i.partition(ResourceKind::MemBw), None);
        i.set_partition(ResourceKind::MemBw, Some(512.0));
        assert_eq!(i.partition(ResourceKind::MemBw), Some(512.0));
        i.set_partition(ResourceKind::MemBw, None);
        assert_eq!(i.partition(ResourceKind::MemBw), None);
    }

    #[test]
    fn rlt_falls_back_to_capacity() {
        let mut i = inst(2.0);
        i.set_partition(ResourceKind::IoBw, Some(100.0));
        let cap = ResourceVec::new(48.0, 25_600.0, 35.0, 2_000.0, 1_250.0);
        let rlt = i.rlt(&cap);
        assert_eq!(rlt.get(ResourceKind::Cpu), 2.0);
        assert_eq!(rlt.get(ResourceKind::IoBw), 100.0);
        assert_eq!(rlt.get(ResourceKind::MemBw), 25_600.0);
    }

    #[test]
    fn usage_window_averages() {
        let mut w = UsageWindow::default();
        assert_eq!(w.avg_inflation(), 1.0);
        w.chunks = 2;
        w.inflation_sum = 3.0;
        w.llc_share_sum = 10.0;
        assert_eq!(w.avg_inflation(), 1.5);
        assert_eq!(w.avg_llc_share(), 5.0);
        w.queue_len_sum = 9;
        w.queue_samples = 3;
        assert_eq!(w.avg_queue_len(), 3.0);
        w.clear();
        assert_eq!(w.chunks, 0);
    }

    #[test]
    fn free_workers_saturates() {
        let mut i = inst(2.0);
        i.busy_workers = 5;
        assert_eq!(i.free_workers(), 0);
    }
}
