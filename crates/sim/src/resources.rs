//! The fine-grained resource model FIRM manages.
//!
//! The paper's RL agent controls five resource dimensions per container
//! (§3.4, Table 3): CPU time, memory bandwidth, LLC capacity, disk I/O
//! bandwidth, and network bandwidth. [`ResourceKind`] enumerates them and
//! [`ResourceVec`] is a dense per-resource vector of `f64` used for
//! capacities, limits, demands, and utilizations.
//!
//! Units, by convention throughout the workspace:
//!
//! * `Cpu` — cores (1.0 = one full core; a cgroups quota of 150ms/100ms).
//! * `MemBw` — MB/s of DRAM bandwidth.
//! * `Llc` — MB of last-level-cache capacity.
//! * `IoBw` — MB/s of disk bandwidth.
//! * `NetBw` — MB/s of NIC bandwidth.

use core::fmt;
use core::ops::{Index, IndexMut};

/// A controllable resource dimension (Table 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceKind {
    /// CPU time (cores), controlled via cgroups `cpu.cfs_quota_us`.
    Cpu,
    /// Memory bandwidth, controlled via Intel MBA.
    MemBw,
    /// Last-level-cache capacity, controlled via Intel CAT.
    Llc,
    /// Disk I/O bandwidth, controlled via cgroups `blkio`.
    IoBw,
    /// Network bandwidth, controlled via Linux `tc` HTB queueing.
    NetBw,
}

/// All resource kinds in canonical order (the order of Table 3).
pub const RESOURCE_KINDS: [ResourceKind; 5] = [
    ResourceKind::Cpu,
    ResourceKind::MemBw,
    ResourceKind::Llc,
    ResourceKind::IoBw,
    ResourceKind::NetBw,
];

impl ResourceKind {
    /// Canonical index in `[0, 5)`.
    pub const fn index(self) -> usize {
        match self {
            ResourceKind::Cpu => 0,
            ResourceKind::MemBw => 1,
            ResourceKind::Llc => 2,
            ResourceKind::IoBw => 3,
            ResourceKind::NetBw => 4,
        }
    }

    /// Short lower-case name used in reports (`cpu`, `mem`, `llc`, `io`,
    /// `net`).
    pub const fn short_name(self) -> &'static str {
        match self {
            ResourceKind::Cpu => "cpu",
            ResourceKind::MemBw => "mem",
            ResourceKind::Llc => "llc",
            ResourceKind::IoBw => "io",
            ResourceKind::NetBw => "net",
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// A dense per-resource vector of `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceVec {
    values: [f64; 5],
}

impl ResourceVec {
    /// The all-zero vector.
    pub const ZERO: ResourceVec = ResourceVec { values: [0.0; 5] };

    /// Builds a vector from explicit components.
    pub const fn new(cpu: f64, mem_bw: f64, llc: f64, io_bw: f64, net_bw: f64) -> Self {
        ResourceVec {
            values: [cpu, mem_bw, llc, io_bw, net_bw],
        }
    }

    /// Component accessor by kind.
    pub fn get(&self, kind: ResourceKind) -> f64 {
        self.values[kind.index()]
    }

    /// Component mutator by kind.
    pub fn set(&mut self, kind: ResourceKind, v: f64) {
        self.values[kind.index()] = v;
    }

    /// Element-wise sum.
    pub fn add(&self, other: &ResourceVec) -> ResourceVec {
        let mut out = *self;
        for i in 0..5 {
            out.values[i] += other.values[i];
        }
        out
    }

    /// Element-wise saturating (floor-at-zero) difference.
    pub fn saturating_sub(&self, other: &ResourceVec) -> ResourceVec {
        let mut out = *self;
        for i in 0..5 {
            out.values[i] = (out.values[i] - other.values[i]).max(0.0);
        }
        out
    }

    /// Element-wise scale.
    pub fn scale(&self, k: f64) -> ResourceVec {
        let mut out = *self;
        for v in &mut out.values {
            *v *= k;
        }
        out
    }

    /// Element-wise minimum.
    pub fn min(&self, other: &ResourceVec) -> ResourceVec {
        let mut out = *self;
        for i in 0..5 {
            out.values[i] = out.values[i].min(other.values[i]);
        }
        out
    }

    /// Iterates `(kind, value)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceKind, f64)> + '_ {
        RESOURCE_KINDS.iter().map(move |&k| (k, self.get(k)))
    }

    /// The values as a fixed array in canonical order.
    pub fn as_array(&self) -> [f64; 5] {
        self.values
    }
}

impl Index<ResourceKind> for ResourceVec {
    type Output = f64;

    fn index(&self, kind: ResourceKind) -> &f64 {
        &self.values[kind.index()]
    }
}

impl IndexMut<ResourceKind> for ResourceVec {
    fn index_mut(&mut self, kind: ResourceKind) -> &mut f64 {
        &mut self.values[kind.index()]
    }
}

impl fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpu={:.2} mem={:.0} llc={:.1} io={:.0} net={:.0}",
            self.values[0], self.values[1], self.values[2], self.values[3], self.values[4]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for (i, k) in RESOURCE_KINDS.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn get_set() {
        let mut v = ResourceVec::ZERO;
        v.set(ResourceKind::MemBw, 1024.0);
        assert_eq!(v.get(ResourceKind::MemBw), 1024.0);
        assert_eq!(v[ResourceKind::MemBw], 1024.0);
        v[ResourceKind::Cpu] = 2.0;
        assert_eq!(v.get(ResourceKind::Cpu), 2.0);
    }

    #[test]
    fn arithmetic() {
        let a = ResourceVec::new(1.0, 100.0, 10.0, 50.0, 200.0);
        let b = ResourceVec::new(0.5, 200.0, 5.0, 10.0, 100.0);
        let sum = a.add(&b);
        assert_eq!(sum.get(ResourceKind::Cpu), 1.5);
        let diff = a.saturating_sub(&b);
        assert_eq!(diff.get(ResourceKind::MemBw), 0.0);
        assert_eq!(diff.get(ResourceKind::Llc), 5.0);
        let scaled = a.scale(2.0);
        assert_eq!(scaled.get(ResourceKind::NetBw), 400.0);
    }

    #[test]
    fn iter_order_is_canonical() {
        let v = ResourceVec::new(1.0, 2.0, 3.0, 4.0, 5.0);
        let collected: Vec<f64> = v.iter().map(|(_, x)| x).collect();
        assert_eq!(collected, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(v.as_array(), [1.0, 2.0, 3.0, 4.0, 5.0]);
    }
}
