//! Runtime state of a physical node.

use crate::ids::{AnomalyId, InstanceId};
use crate::resources::{ResourceKind, RESOURCE_KINDS};
use crate::spec::NodeSpec;
use crate::time::SimDuration;

/// A live anomaly contender pinned to this node.
#[derive(Debug, Clone, Copy)]
pub struct ActiveContender {
    /// The injection that created it.
    pub anomaly: AnomalyId,
    /// The resource it stresses.
    pub resource: ResourceKind,
    /// Fraction of the node's capacity it tries to consume, in `[0, 1]`.
    pub intensity: f64,
}

/// A live network-delay injection on this node.
#[derive(Debug, Clone, Copy)]
pub struct ActiveDelay {
    /// The injection that created it.
    pub anomaly: AnomalyId,
    /// Mean added delay per RPC touching this node.
    pub mean: SimDuration,
}

/// Runtime node state: spec plus dynamic contention and placement.
///
/// Besides the raw placement and contender lists the node carries the
/// aggregates the contention model reads on every compute chunk
/// (`weight_sum`, `reserved`, the per-kind anomaly fractions), so a rate
/// query never walks the node's peers. The engine keeps them current at
/// every mutation of an instance's load, partitions or lifecycle state;
/// see [`crate::contention`].
#[derive(Debug, Clone)]
pub struct Node {
    /// Static description.
    pub spec: NodeSpec,
    /// Instances ever placed here, in placement order — which is
    /// ascending id order, because ids are allocated at placement
    /// (includes starting, draining and removed ones).
    pub instances: Vec<InstanceId>,
    /// Network-delay anomalies active on the node.
    pub delays: Vec<ActiveDelay>,
    /// Resource-stressing anomalies active on the node, in start order.
    contenders: Vec<ActiveContender>,
    /// `anomaly_fraction` per resource kind, refolded in contender order
    /// whenever `contenders` changes.
    anomaly_frac: [f64; RESOURCE_KINDS.len()],
    /// Σ activity weight of the live instances placed here. Weights are
    /// busy-worker counts, so the integer sum equals the `f64` fold the
    /// peer walk computes, in any order.
    pub(crate) weight_sum: u64,
    /// Live instances holding a MemBw or LLC reservation, in placement
    /// order — the order the peer walk folds their `f64` amounts in.
    pub(crate) reserved: Vec<InstanceId>,
}

impl Node {
    /// Wraps a spec into an empty runtime node.
    pub fn new(spec: NodeSpec) -> Self {
        let mut node = Node {
            spec,
            instances: Vec::new(),
            delays: Vec::new(),
            contenders: Vec::new(),
            anomaly_frac: [0.0; RESOURCE_KINDS.len()],
            weight_sum: 0,
            reserved: Vec::new(),
        };
        // The empty fold, not a literal zero: `f64` sums start at -0.0,
        // and every fraction is the bits of a fresh fold of the
        // contenders.
        node.refold_anomaly_fractions();
        node
    }

    /// Capacity of one resource.
    pub fn capacity(&self, kind: ResourceKind) -> f64 {
        self.spec.capacity.get(kind)
    }

    /// Total anomaly pressure on `kind`, as a fraction of capacity in
    /// `[0, 1]` (multiple stressors accumulate but saturate at 1).
    pub fn anomaly_fraction(&self, kind: ResourceKind) -> f64 {
        self.anomaly_frac[kind.index()]
    }

    /// The resource-stressing anomalies active on the node, in start
    /// order.
    pub fn contenders(&self) -> &[ActiveContender] {
        &self.contenders
    }

    /// Starts a resource-stressing anomaly on the node.
    pub fn add_contender(&mut self, contender: ActiveContender) {
        self.contenders.push(contender);
        self.refold_anomaly_fractions();
    }

    fn refold_anomaly_fractions(&mut self) {
        for kind in RESOURCE_KINDS {
            let total: f64 = self
                .contenders
                .iter()
                .filter(|c| c.resource == kind)
                .map(|c| c.intensity)
                .sum();
            self.anomaly_frac[kind.index()] = total.min(1.0);
        }
    }

    /// Folds one placed instance's activity-weight change into
    /// `weight_sum`.
    pub(crate) fn reweigh(&mut self, before: u64, after: u64) {
        self.weight_sum = self.weight_sum + after - before;
    }

    /// Adds `id` to, or drops it from, the `reserved` list, keeping
    /// placement (ascending id) order.
    pub(crate) fn set_reserved(&mut self, id: InstanceId, member: bool) {
        match (self.reserved.binary_search(&id), member) {
            (Err(at), true) => self.reserved.insert(at, id),
            (Ok(at), false) => {
                self.reserved.remove(at);
            }
            _ => {}
        }
    }

    /// Mean extra network delay for RPCs touching this node.
    pub fn extra_delay_mean(&self) -> SimDuration {
        let total: u64 = self.delays.iter().map(|d| d.mean.as_micros()).sum();
        SimDuration::from_micros(total)
    }

    /// Removes every contender/delay created by `anomaly`.
    pub fn remove_anomaly(&mut self, anomaly: AnomalyId) {
        self.contenders.retain(|c| c.anomaly != anomaly);
        self.delays.retain(|d| d.anomaly != anomaly);
        self.refold_anomaly_fractions();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anomaly_fraction_accumulates_and_saturates() {
        let mut n = Node::new(NodeSpec::x86_default());
        assert_eq!(n.anomaly_fraction(ResourceKind::MemBw), 0.0);
        n.add_contender(ActiveContender {
            anomaly: AnomalyId(1),
            resource: ResourceKind::MemBw,
            intensity: 0.6,
        });
        n.add_contender(ActiveContender {
            anomaly: AnomalyId(2),
            resource: ResourceKind::MemBw,
            intensity: 0.7,
        });
        assert_eq!(n.anomaly_fraction(ResourceKind::MemBw), 1.0);
        assert_eq!(n.anomaly_fraction(ResourceKind::Cpu), 0.0);
    }

    #[test]
    fn remove_anomaly_clears_both_kinds() {
        let mut n = Node::new(NodeSpec::x86_default());
        n.add_contender(ActiveContender {
            anomaly: AnomalyId(1),
            resource: ResourceKind::Cpu,
            intensity: 0.5,
        });
        n.delays.push(ActiveDelay {
            anomaly: AnomalyId(1),
            mean: SimDuration::from_millis(5),
        });
        n.remove_anomaly(AnomalyId(1));
        assert!(n.contenders.is_empty());
        assert!(n.delays.is_empty());
    }

    #[test]
    fn delay_means_add() {
        let mut n = Node::new(NodeSpec::x86_default());
        n.delays.push(ActiveDelay {
            anomaly: AnomalyId(1),
            mean: SimDuration::from_millis(5),
        });
        n.delays.push(ActiveDelay {
            anomaly: AnomalyId(2),
            mean: SimDuration::from_millis(3),
        });
        assert_eq!(n.extra_delay_mean().as_micros(), 8_000);
    }
}
