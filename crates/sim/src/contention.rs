//! The shared-resource contention model.
//!
//! This module computes the *effective* resource rates a container
//! instance observes, given the node's capacity, active anomaly
//! contenders, explicit partitions, and the activity of co-located
//! instances. It encodes the semantics of the actuators FIRM drives
//! (§3.5):
//!
//! * **Reservations** (Intel CAT for LLC, Intel MBA for memory bandwidth):
//!   carve capacity out of the shared pool; a reserved instance is
//!   *protected* from contenders up to its reservation, and capped at it.
//! * **Throttles** (cgroups `cpu.cfs_quota_us`, `blkio`, `tc` HTB for
//!   CPU/disk/network): cap an instance's use but do **not** protect it —
//!   a throttled instance still competes in the best-effort pool.
//!
//! Anomaly contenders take their share off the top of the unreserved pool
//! (streaming stressors are deliberately aggressive; this mirrors how
//! iBench/pmbw behave), and the remaining best-effort capacity is shared
//! in proportion to instance activity (busy workers). Scale-up therefore
//! increases an instance's share of contended bandwidth — the mechanism
//! behind Fig. 1's mitigation — while a reservation protects it outright.
//!
//! # Cost: maintained aggregates, not a peer walk
//!
//! A rate depends on the node's peers only through a few sums: the total
//! activity weight, and per reservation kind the reserved amounts and the
//! weight behind them. The engine prices every compute chunk and every
//! cross-node hop, so re-deriving those sums from the peer list made each
//! query cost O(instances on the node). Instead [`Node`] carries them —
//! `weight_sum`, the `reserved` list and the cached anomaly fractions —
//! and a query costs O(1 + reservations on the node); for the throttle
//! kinds (CPU, disk, network) it reads `weight_sum` alone.
//!
//! The results are bit-identical to the walk. Activity weights are small
//! integers (busy-worker counts), so the maintained `u64` sum converts to
//! exactly the `f64` the walk accumulates, whatever the order of
//! updates. The only sums over non-integers — reserved amounts and their
//! carve — run over `reserved`, which is kept in placement order, the
//! order the walk visits them in. The walk itself survives as the naive
//! reference for tests and debug builds, where every production query is
//! checked against it; both feed the same `KindSums` → rate tail, so the
//! rate formula exists once.
//!
//! **Invariant:** any code that mutates an instance's `busy_workers`,
//! `queue`, `partitions` or `state` must fold the change into its node's
//! aggregates (the engine's `mutate_instance` does).

use crate::instance::{Instance, InstanceState};
use crate::node::Node;
use crate::resources::{ResourceKind, RESOURCE_KINDS};

/// Fraction of the pool a saturating stressor cannot take (hardware always
/// retains some victim throughput).
const CONTENDER_FLOOR: f64 = 0.05;
/// Minimum effective rate, as a fraction of capacity, to keep service
/// times finite under total saturation.
const RATE_FLOOR_FRAC: f64 = 0.01;
/// Reservations may cover at most this fraction of a node's capacity.
pub const MAX_RESERVABLE_FRAC: f64 = 0.9;

/// The effective rates one compute chunk reads, for one instance at one
/// moment. The network rate is not among them: only a cross-node hop
/// reads it, through [`effective_rate`].
#[derive(Debug, Clone, Copy)]
pub struct EffectiveRates {
    /// Per-worker CPU speed in cores (≤ 1.0 × node speed).
    pub cpu_per_worker: f64,
    /// Memory bandwidth, MB/s.
    pub mem_mbps: f64,
    /// LLC share, MB.
    pub llc_mb: f64,
    /// Disk bandwidth, MB/s.
    pub io_mbps: f64,
    /// DRAM-traffic inflation factor from LLC shortfall (≥ 1).
    pub mem_inflation: f64,
}

/// The resource kinds whose partition is a reservation.
const RESERVATION_KINDS: [ResourceKind; 2] = [ResourceKind::MemBw, ResourceKind::Llc];

/// Whether a resource's partition acts as a reservation (protects) or a
/// throttle (caps only).
pub const fn is_reservation(kind: ResourceKind) -> bool {
    matches!(kind, ResourceKind::MemBw | ResourceKind::Llc)
}

/// Activity weight of an instance in best-effort sharing: its busy
/// workers, counting the instance as active while it holds queued work.
fn weight(inst: &Instance) -> u64 {
    if inst.busy_workers == 0 && !inst.queue.is_empty() {
        1
    } else {
        u64::from(inst.busy_workers)
    }
}

/// What `inst` contributes to its node's aggregates: its activity
/// weight, and whether it belongs on the `reserved` list. A removed
/// instance contributes nothing.
pub(crate) fn footprint(inst: &Instance) -> (u64, bool) {
    if inst.state == InstanceState::Removed {
        return (0, false);
    }
    let reserved = RESERVATION_KINDS
        .iter()
        .any(|&kind| inst.partition(kind).is_some());
    (weight(inst), reserved)
}

/// What one resource kind's rate needs to know about the node's peers.
#[derive(Debug, Clone, Copy, PartialEq)]
struct KindSums {
    /// Σ reserved amount over the peers reserving this kind.
    reserved_sum: f64,
    /// Σ of the part of each reservation its holder can plausibly use.
    reserved_carve: f64,
    /// Σ activity weight of the peers sharing the best-effort pool.
    be_weight: f64,
}

type PoolSums = [KindSums; RESOURCE_KINDS.len()];

/// No reservations: the whole node's weight shares the pool. Exact for
/// the throttle kinds whatever the peers reserve.
fn unreserved_sums(node: &Node) -> KindSums {
    KindSums {
        reserved_sum: 0.0,
        reserved_carve: 0.0,
        be_weight: node.weight_sum as f64,
    }
}

/// The sums for every kind from the node's maintained aggregates, in
/// O(1 + reservations on the node).
///
/// Reservations (CAT/MBA) are *work-conserving* guarantees: a reserved
/// instance is protected up to its guarantee, but the part of the
/// guarantee it cannot plausibly use (bounded by its activity share)
/// returns to the best-effort pool, so idle reservations do not starve
/// co-located containers.
fn aggregate_sums(node: &Node, instances: &[Instance]) -> PoolSums {
    let all_weight = node.weight_sum as f64;
    let mut sums = [unreserved_sums(node); RESOURCE_KINDS.len()];
    let mut reserved_weight = [0u64; RESOURCE_KINDS.len()];
    for id in &node.reserved {
        let inst = &instances[id.index()];
        let w = weight(inst);
        for kind in RESERVATION_KINDS {
            if let Some(p) = inst.partition(kind) {
                let k = kind.index();
                sums[k].reserved_sum += p;
                let activity_share = w as f64 / all_weight.max(1.0) * node.capacity(kind) * 1.5;
                sums[k].reserved_carve += p.min(activity_share);
                reserved_weight[k] += w;
            }
        }
    }
    for kind in RESERVATION_KINDS {
        let k = kind.index();
        sums[k].be_weight = (node.weight_sum - reserved_weight[k]) as f64;
    }
    sums
}

/// The live (non-removed) instances placed on `node`, in placement
/// order — the peer set the contention model shares capacity over.
#[cfg(any(test, debug_assertions))]
pub(crate) fn node_peers<'a>(
    node: &'a Node,
    instances: &'a [Instance],
) -> impl Iterator<Item = &'a Instance> + Clone {
    node.instances
        .iter()
        .map(move |id| &instances[id.index()])
        .filter(|i| i.state != InstanceState::Removed)
}

/// The naive reference for [`aggregate_sums`]: two passes over the
/// node's peers, every sum an `f64` fold in peer order.
#[cfg(any(test, debug_assertions))]
fn walk_sums(node: &Node, instances: &[Instance]) -> PoolSums {
    let peers = node_peers(node, instances);
    let mut all_weight = 0.0;
    for inst in peers.clone() {
        all_weight += weight(inst) as f64;
    }
    let mut sums = [KindSums {
        reserved_sum: 0.0,
        reserved_carve: 0.0,
        be_weight: 0.0,
    }; RESOURCE_KINDS.len()];
    for inst in peers {
        let w = weight(inst) as f64;
        for kind in RESOURCE_KINDS {
            let k = kind.index();
            match inst.partition(kind) {
                Some(p) if is_reservation(kind) => {
                    sums[k].reserved_sum += p;
                    let activity_share = w / all_weight.max(1.0) * node.capacity(kind) * 1.5;
                    sums[k].reserved_carve += p.min(activity_share);
                }
                _ => sums[k].be_weight += w,
            }
        }
    }
    sums
}

/// Effective rate of `target` on `kind`, given that kind's peer sums.
///
/// The returned rate is never below `RATE_FLOOR_FRAC` of capacity unless
/// an explicit partition says so, so service times stay finite under
/// full saturation.
fn rate_from_sums(node: &Node, target: &Instance, kind: ResourceKind, sums: KindSums) -> f64 {
    let capacity = node.capacity(kind);
    let floor = capacity * RATE_FLOOR_FRAC;
    let reserve_cap = capacity * MAX_RESERVABLE_FRAC;
    let rescale = if sums.reserved_sum > reserve_cap {
        reserve_cap / sums.reserved_sum
    } else {
        1.0
    };

    // An explicit partition may be far below the contention floor; only a
    // tiny absolute epsilon keeps service times finite.
    let epsilon = capacity * 1e-4;

    if is_reservation(kind) {
        if let Some(p) = target.partition(kind) {
            return (p * rescale).max(epsilon);
        }
    }

    // Best-effort pool: capacity minus the *used* part of reservations
    // minus the anomaly's off-the-top consumption.
    let pool = (capacity - sums.reserved_carve.min(reserve_cap)).max(0.0);
    let anomaly = node.anomaly_fraction(kind) * pool * (1.0 - CONTENDER_FLOOR);
    let free = (pool - anomaly).max(floor);

    let my_weight = (weight(target) as f64).max(1.0);
    let total_weight = sums.be_weight.max(my_weight);
    // The contention floor applies to the *shared* rate; a throttle below
    // it still sticks (an operator-chosen quota must be honoured).
    let fair_share = (free * my_weight / total_weight).max(floor);

    // A throttle caps but does not protect.
    match target.partition(kind) {
        Some(p) if !is_reservation(kind) => fair_share.min(p.max(epsilon)),
        _ => fair_share,
    }
}

/// DRAM-traffic inflation from an LLC share smaller than the working set.
///
/// `sensitivity` is the demand profile's `llc_sensitivity`; a share equal
/// to the working set gives factor 1.0, zero share gives
/// `1 + sensitivity`.
pub fn llc_inflation(llc_share_mb: f64, working_set_mb: f64, sensitivity: f64) -> f64 {
    if working_set_mb <= 0.0 {
        return 1.0;
    }
    let shortfall = (1.0 - llc_share_mb / working_set_mb).clamp(0.0, 1.0);
    1.0 + sensitivity.max(0.0) * shortfall
}

/// Per-core slowdown under CPU-stressor contention: a saturating
/// stressor timeslices against victim threads, so even a single-threaded
/// victim with quota headroom slows down (factor 3× at full intensity).
pub fn cpu_stress_slowdown(stress_fraction: f64) -> f64 {
    1.0 / (1.0 + 2.0 * stress_fraction.clamp(0.0, 1.0))
}

/// Per-resource slowdown gain of an in-container stressor at full
/// intensity: CPU timeslicing halves-to-thirds the victim; saturating
/// memory/LLC streams cost memory-bound code an order of magnitude
/// (iBench-style); disk/network saturation sits in between.
const STRESS_GAIN: [f64; 5] = [2.0, 9.0, 9.0, 6.0, 6.0];

/// Direct in-container stress slowdown for one resource: a container-
/// level stressor (the paper's injector runs inside the container)
/// competes head-to-head with the service on that resource.
fn instance_stress_factor(target: &Instance, kind: ResourceKind) -> f64 {
    let stress = target.stress[kind.index()].max(0.0);
    // Exactly what the formula gives at zero stress, without the divide.
    if stress == 0.0 {
        return 1.0;
    }
    1.0 / (1.0 + STRESS_GAIN[kind.index()] * stress)
}

/// The rates a compute chunk reads (every kind but the network's),
/// given every kind's peer sums.
fn rates_from_sums(
    node: &Node,
    target: &Instance,
    sums: &PoolSums,
    llc_working_set_mb: f64,
    llc_sensitivity: f64,
) -> EffectiveRates {
    let rate = |kind: ResourceKind| rate_from_sums(node, target, kind, sums[kind.index()]);

    let cpu_total = rate(ResourceKind::Cpu);
    let busy = target.busy_workers.max(1) as f64;
    let slowdown = cpu_stress_slowdown(node.anomaly_fraction(ResourceKind::Cpu))
        * instance_stress_factor(target, ResourceKind::Cpu);
    let cpu_per_worker = (cpu_total / busy).min(1.0) * node.spec.speed * slowdown;

    let mem_mbps = rate(ResourceKind::MemBw) * instance_stress_factor(target, ResourceKind::MemBw);
    let llc_mb = rate(ResourceKind::Llc) * instance_stress_factor(target, ResourceKind::Llc);
    let io_mbps = rate(ResourceKind::IoBw) * instance_stress_factor(target, ResourceKind::IoBw);
    let mem_inflation = llc_inflation(llc_mb, llc_working_set_mb, llc_sensitivity);

    EffectiveRates {
        cpu_per_worker: cpu_per_worker.max(0.02),
        mem_mbps,
        llc_mb,
        io_mbps,
        mem_inflation,
    }
}

/// Effective rate of `target` on resource `kind`.
///
/// `node` must be the node `target` is placed on, `instances` the slab
/// its placement list indexes, and the node's aggregates current (see
/// the module docs). In debug builds the result is checked against the
/// peer walk.
pub fn effective_rate(
    node: &Node,
    instances: &[Instance],
    target: &Instance,
    kind: ResourceKind,
) -> f64 {
    let sums = if is_reservation(kind) {
        aggregate_sums(node, instances)[kind.index()]
    } else {
        unreserved_sums(node)
    };
    let rate = rate_from_sums(node, target, kind, sums);
    #[cfg(debug_assertions)]
    {
        let naive = rate_from_sums(node, target, kind, walk_sums(node, instances)[kind.index()]);
        debug_assert_eq!(
            rate.to_bits(),
            naive.to_bits(),
            "{kind:?} rate vs peer walk"
        );
    }
    rate
}

/// The rates a compute chunk reads — CPU, memory bandwidth, LLC and
/// disk — at once: the engine's per-chunk query. Same contract as
/// [`effective_rate`], and bit-identical to independent calls of it.
pub fn effective_rates(
    node: &Node,
    instances: &[Instance],
    target: &Instance,
    llc_working_set_mb: f64,
    llc_sensitivity: f64,
) -> EffectiveRates {
    let sums = aggregate_sums(node, instances);
    let rates = rates_from_sums(node, target, &sums, llc_working_set_mb, llc_sensitivity);
    #[cfg(debug_assertions)]
    {
        let naive = rates_from_sums(
            node,
            target,
            &walk_sums(node, instances),
            llc_working_set_mb,
            llc_sensitivity,
        );
        debug_assert_eq!(rate_bits(&rates), rate_bits(&naive), "rates vs peer walk");
    }
    rates
}

#[cfg(any(test, debug_assertions))]
fn rate_bits(r: &EffectiveRates) -> [u64; 5] {
    [
        r.cpu_per_worker,
        r.mem_mbps,
        r.llc_mb,
        r.io_mbps,
        r.mem_inflation,
    ]
    .map(f64::to_bits)
}

/// The aggregates of `node` derived from scratch off its placement
/// list: what the engine's incremental updates must add up to.
#[cfg(test)]
pub(crate) fn aggregates_from_scratch(
    node: &Node,
    instances: &[Instance],
) -> (u64, Vec<crate::ids::InstanceId>) {
    let weight_sum = node_peers(node, instances).map(weight).sum();
    let reserved = node
        .instances
        .iter()
        .copied()
        .filter(|id| {
            let inst = &instances[id.index()];
            inst.state != InstanceState::Removed
                && (inst.partition(ResourceKind::MemBw).is_some()
                    || inst.partition(ResourceKind::Llc).is_some())
        })
        .collect();
    (weight_sum, reserved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AnomalyId, InstanceId, NodeId, ServiceId};
    use crate::node::ActiveContender;
    use crate::spec::NodeSpec;

    fn node() -> Node {
        Node::new(NodeSpec::x86_default())
    }

    fn inst(cpu: f64, busy: u32) -> Instance {
        let mut i = Instance::new(
            ServiceId(0),
            NodeId(0),
            cpu,
            64,
            128,
            InstanceState::Running,
        );
        i.busy_workers = busy;
        i
    }

    fn contender(resource: ResourceKind, intensity: f64) -> ActiveContender {
        ActiveContender {
            anomaly: AnomalyId(0),
            resource,
            intensity,
        }
    }

    /// Places `peers` on `node` in order and derives its aggregates.
    fn place(mut node: Node, peers: Vec<Instance>) -> (Node, Vec<Instance>) {
        node.instances = (0..peers.len() as u32).map(InstanceId).collect();
        (node.weight_sum, node.reserved) = aggregates_from_scratch(&node, &peers);
        (node, peers)
    }

    /// Rate of the `target`-th of `peers` placed on `node`.
    fn rate(node: Node, peers: Vec<Instance>, target: usize, kind: ResourceKind) -> f64 {
        let (node, peers) = place(node, peers);
        effective_rate(&node, &peers, &peers[target], kind)
    }

    /// The aggregate-fed per-chunk query must reproduce the peer walk
    /// and the independent per-kind queries bit for bit — partitions,
    /// oversubscribed reservations, contenders, stress and every
    /// lifecycle state included. The network rate, which the per-chunk
    /// query does not compute, is held to the peer walk per kind.
    #[test]
    fn fused_rates_match_per_kind_rates_bit_for_bit() {
        let mut n = node();
        n.add_contender(contender(ResourceKind::MemBw, 0.6));
        n.add_contender(contender(ResourceKind::NetBw, 0.3));
        // Reservations oversubscribed on both kinds: 27,000 of 23,040
        // reservable MB/s, 38 of 31.5 reservable MB.
        let mut a = inst(2.0, 3);
        a.set_partition(ResourceKind::MemBw, Some(15_000.0));
        a.set_partition(ResourceKind::Llc, Some(20.0));
        a.stress[ResourceKind::Cpu.index()] = 0.4;
        let mut b = inst(4.0, 1);
        b.set_partition(ResourceKind::IoBw, Some(300.0));
        let c = inst(1.0, 0);
        let mut draining = inst(2.0, 2);
        draining.state = InstanceState::Draining;
        draining.set_partition(ResourceKind::MemBw, Some(12_000.0));
        draining.set_partition(ResourceKind::Llc, Some(18.0));
        // A removed peer keeps its partitions but must count for nothing.
        let mut removed = inst(2.0, 0);
        removed.state = InstanceState::Removed;
        removed.set_partition(ResourceKind::MemBw, Some(9_000.0));
        let mut queued = inst(1.0, 0);
        queued.queue.push_back(0);
        let mut llc_only = inst(1.0, 1);
        llc_only.set_partition(ResourceKind::Llc, Some(4.0));

        let (n, peers) = place(n, vec![a, b, c, draining, removed, queued, llc_only]);
        assert_eq!(n.weight_sum, 3 + 1 + 2 + 1 + 1);
        assert_eq!(n.reserved, [InstanceId(0), InstanceId(3), InstanceId(6)]);
        assert_eq!(aggregate_sums(&n, &peers), walk_sums(&n, &peers));

        for target in node_peers(&n, &peers) {
            let fused = effective_rates(&n, &peers, target, 2.0, 0.7);
            let naive = rates_from_sums(&n, target, &walk_sums(&n, &peers), 2.0, 0.7);
            assert_eq!(rate_bits(&fused), rate_bits(&naive));

            let busy = target.busy_workers.max(1) as f64;
            let slowdown = cpu_stress_slowdown(n.anomaly_fraction(ResourceKind::Cpu))
                * instance_stress_factor(target, ResourceKind::Cpu);
            let cpu = (effective_rate(&n, &peers, target, ResourceKind::Cpu) / busy).min(1.0)
                * n.spec.speed
                * slowdown;
            assert_eq!(fused.cpu_per_worker.to_bits(), cpu.max(0.02).to_bits());
            let per_kind = |kind: ResourceKind| {
                effective_rate(&n, &peers, target, kind) * instance_stress_factor(target, kind)
            };
            assert_eq!(
                fused.mem_mbps.to_bits(),
                per_kind(ResourceKind::MemBw).to_bits()
            );
            assert_eq!(
                fused.llc_mb.to_bits(),
                per_kind(ResourceKind::Llc).to_bits()
            );
            assert_eq!(
                fused.io_mbps.to_bits(),
                per_kind(ResourceKind::IoBw).to_bits()
            );
            let net = effective_rate(&n, &peers, target, ResourceKind::NetBw);
            let net_walk = rate_from_sums(
                &n,
                target,
                ResourceKind::NetBw,
                walk_sums(&n, &peers)[ResourceKind::NetBw.index()],
            );
            assert_eq!(net.to_bits(), net_walk.to_bits());
        }
    }

    #[test]
    fn sole_instance_gets_whole_pool() {
        let rate = rate(node(), vec![inst(4.0, 2)], 0, ResourceKind::MemBw);
        assert!((rate - 25_600.0).abs() < 1.0, "rate was {rate}");
    }

    #[test]
    fn cpu_throttle_caps() {
        let rate = rate(node(), vec![inst(4.0, 2)], 0, ResourceKind::Cpu);
        assert!((rate - 4.0).abs() < 1e-9, "rate was {rate}");
    }

    #[test]
    fn anomaly_shrinks_best_effort_share() {
        let before = rate(node(), vec![inst(4.0, 2)], 0, ResourceKind::MemBw);
        let mut n = node();
        n.add_contender(contender(ResourceKind::MemBw, 0.8));
        let after = rate(n, vec![inst(4.0, 2)], 0, ResourceKind::MemBw);
        assert!(after < before * 0.35, "before={before} after={after}");
        assert!(after > 0.0);
    }

    #[test]
    fn reservation_protects_from_anomaly() {
        let mut n = node();
        let mut i = inst(4.0, 2);
        i.set_partition(ResourceKind::MemBw, Some(8_000.0));
        n.add_contender(contender(ResourceKind::MemBw, 1.0));
        let rate = rate(n, vec![i], 0, ResourceKind::MemBw);
        assert!((rate - 8_000.0).abs() < 1.0, "rate was {rate}");
    }

    #[test]
    fn reservation_also_caps() {
        let mut i = inst(4.0, 2);
        i.set_partition(ResourceKind::MemBw, Some(1_000.0));
        let rate = rate(node(), vec![i], 0, ResourceKind::MemBw);
        assert!((rate - 1_000.0).abs() < 1.0, "rate was {rate}");
    }

    #[test]
    fn oversubscribed_reservations_rescale() {
        let mut a = inst(4.0, 1);
        let mut b = inst(4.0, 1);
        // 2 × 20,000 MB/s of reservations on a 25,600 MB/s node.
        a.set_partition(ResourceKind::MemBw, Some(20_000.0));
        b.set_partition(ResourceKind::MemBw, Some(20_000.0));
        let rate = rate(node(), vec![a, b], 0, ResourceKind::MemBw);
        // 90% of capacity split pro rata: 0.9 × 25,600 / 2.
        assert!((rate - 11_520.0).abs() < 1.0, "rate was {rate}");
    }

    #[test]
    fn best_effort_shares_by_busy_workers() {
        let peers = vec![inst(8.0, 6), inst(8.0, 2)];
        let ra = rate(node(), peers.clone(), 0, ResourceKind::MemBw);
        let rb = rate(node(), peers, 1, ResourceKind::MemBw);
        assert!((ra / rb - 3.0).abs() < 0.01, "ratio was {}", ra / rb);
    }

    #[test]
    fn scale_up_increases_bandwidth_share() {
        // The Fig. 1 mechanism: more busy workers → bigger share of the
        // contended memory bandwidth.
        let mut n = node();
        n.add_contender(contender(ResourceKind::MemBw, 0.6));
        let other = inst(8.0, 8);
        let before = rate(
            n.clone(),
            vec![inst(2.0, 2), other.clone()],
            0,
            ResourceKind::MemBw,
        );
        let after = rate(n, vec![inst(8.0, 8), other], 0, ResourceKind::MemBw);
        assert!(after > before * 2.0, "before={before} after={after}");
    }

    #[test]
    fn rate_never_zero_under_full_saturation() {
        let mut n = node();
        n.add_contender(contender(ResourceKind::IoBw, 1.0));
        let rate = rate(n, vec![inst(1.0, 1)], 0, ResourceKind::IoBw);
        assert!(rate >= 2_000.0 * RATE_FLOOR_FRAC * 0.99);
    }

    #[test]
    fn idle_queued_instance_has_weight() {
        let mut a = inst(4.0, 0);
        a.queue.push_back(0);
        let ra = rate(node(), vec![a, inst(4.0, 4)], 0, ResourceKind::MemBw);
        // Weight 1 vs 4 → a gets 1/5 of the pool.
        assert!((ra / 25_600.0 - 0.2).abs() < 0.01);
    }

    #[test]
    fn llc_inflation_bounds() {
        assert_eq!(llc_inflation(4.0, 4.0, 0.8), 1.0);
        assert!((llc_inflation(0.0, 4.0, 0.8) - 1.8).abs() < 1e-12);
        assert!((llc_inflation(2.0, 4.0, 0.8) - 1.4).abs() < 1e-12);
        assert_eq!(llc_inflation(8.0, 4.0, 0.8), 1.0);
        assert_eq!(llc_inflation(0.0, 0.0, 0.8), 1.0);
    }

    #[test]
    fn cpu_stress_slows_single_threaded_victims() {
        // A single worker with quota headroom still slows under a CPU
        // stressor (timeslice contention), even though its fair share
        // exceeds one core.
        let (mut n, peers) = place(node(), vec![inst(2.0, 1)]);
        let before = effective_rates(&n, &peers, &peers[0], 1.0, 0.2).cpu_per_worker;
        n.add_contender(contender(ResourceKind::Cpu, 1.0));
        let after = effective_rates(&n, &peers, &peers[0], 1.0, 0.2).cpu_per_worker;
        assert!((before - 1.0).abs() < 1e-9, "before {before}");
        assert!((after - 1.0 / 3.0).abs() < 1e-9, "after {after}");
        assert_eq!(cpu_stress_slowdown(0.0), 1.0);
        assert_eq!(cpu_stress_slowdown(0.5), 0.5);
    }

    #[test]
    fn effective_rates_per_worker_speed() {
        let (n, peers) = place(node(), vec![inst(2.0, 4)]);
        let rates = effective_rates(&n, &peers, &peers[0], 1.0, 0.5);
        // Quota 2 cores over 4 busy workers → 0.5 cores per worker.
        assert!((rates.cpu_per_worker - 0.5).abs() < 1e-9);
        assert!(rates.mem_inflation >= 1.0);
    }
}
