//! The Deployment Module (§3.4/§3.5): one RL action becomes commands.
//!
//! [`plan`] is FIRM's whole path from an agent's action to actuation.
//! Every limit is checked against the hosting node's remaining capacity
//! before actuation. Following the paper: "Each action on scaling a
//! specific type of resource is limited by the total available amount
//! of the resource on that physical machine. If the action leads to
//! oversubscribing a resource, then it is replaced by a scale-out
//! operation." An action pinned at the top of its range asks for a
//! scale-out too (§3.4). CPU limits are additionally capped so they
//! never exceed what the worker-thread count can use.

use firm_sim::contention::MAX_RESERVABLE_FRAC;
use firm_sim::instance::InstanceState;
use firm_sim::{Command, InstanceId, ResourceKind, ResourceVec, Simulation, RESOURCE_KINDS};

use crate::estimator::to_limits;

/// The rule that turned an action into a scale-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleOut {
    /// §3.5: a limit oversubscribed its node and was replaced.
    Oversubscribed,
    /// §3.4: an action dimension sat at the top of its range.
    AtCeiling,
}

/// The commands one action becomes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Plan {
    /// Commands to apply in order: partition updates and at most one
    /// [`Command::ScaleOut`].
    pub commands: Vec<Command>,
    /// Which rule planned the scale-out, if one did.
    pub scale_out: Option<ScaleOut>,
}

/// Plans the commands for one agent `action` on `instance`, in four
/// steps:
///
/// 1. the action maps to absolute limits ([`to_limits`]);
/// 2. each limit is floored at 1.5× its entry in `floors`, the
///    instance's live demand — an action may right-size an
///    overprovisioned limit toward demand but never choke a container
///    below 1.5x what it is actively consuming;
/// 3. a limit that oversubscribes its node is replaced by a warm
///    scale-out of the service (§3.5); the remaining in-bound partition
///    updates still apply;
/// 4. if no scale-out is planned yet, an action dimension above 0.9 on
///    a service with fewer than 8 replicas appends one last (§3.4).
pub fn plan(sim: &Simulation, instance: InstanceId, action: &[f64], floors: &ResourceVec) -> Plan {
    let inst = sim.instance(instance);
    let node = &sim.nodes()[inst.node.index()];
    let limits = to_limits(action);
    let scale_out = Command::ScaleOut {
        service: inst.service,
        warm: true,
    };
    let mut out = Plan::default();

    for kind in RESOURCE_KINDS {
        let mut target = limits[kind.index()];
        // Demand floor (LLC usage is a share, not a demand; skip it).
        if kind != ResourceKind::Llc {
            target = target.max(floors.get(kind) * 1.5);
        }
        let capacity = node.capacity(kind);

        // The bottom of the action range means "no partition": a
        // reservation/throttle smaller than ~8% of the node would
        // cap the container below any useful rate (and a choked
        // container's measured usage can no longer raise the demand
        // floor), so the limit is released to best-effort instead.
        if kind != ResourceKind::Cpu && target < capacity * 0.08 {
            if inst.partition(kind).is_some() {
                out.commands
                    .push(Command::ClearPartition { instance, kind });
            }
            continue;
        }

        // Peer commitment on this node for this resource.
        let peer_committed: f64 = node
            .instances
            .iter()
            .filter(|id| **id != instance)
            .map(|id| sim.instance(*id))
            .filter(|i| i.state != InstanceState::Removed)
            .filter_map(|i| i.partition(kind))
            .sum();

        let headroom = match kind {
            // Reservations must fit in the reservable envelope.
            ResourceKind::MemBw | ResourceKind::Llc => {
                capacity * MAX_RESERVABLE_FRAC - peer_committed
            }
            // Throttles oversubscribe only past full capacity.
            _ => capacity - peer_committed,
        };

        if target > headroom {
            // §3.5: oversubscription ⇒ scale-out instead.
            if out.scale_out.is_none() {
                out.commands.push(scale_out);
                out.scale_out = Some(ScaleOut::Oversubscribed);
            }
            continue;
        }

        let target = match kind {
            // A CPU limit beyond the thread cap cannot help (§3.4).
            ResourceKind::Cpu => target.min(inst.max_threads as f64).max(0.1),
            _ => target.max(capacity * 0.001),
        };

        // Skip no-op updates to avoid pointless actuation latency.
        let changed = match inst.partition(kind) {
            Some(c) => (c - target).abs() / c.max(1e-9) > 0.02,
            None => true,
        };
        if changed {
            out.commands.push(Command::SetPartition {
                instance,
                kind,
                amount: target,
            });
        }
    }

    // §3.4: "if the amount of resource reaches the total available
    // amount, then a scale-out operation is needed" — an action pinned
    // at the top of its range is that request. `replicas()` is read
    // before any command applies; partition commands never change it.
    let at_ceiling = action.iter().any(|a| *a > 0.9);
    if at_ceiling && out.scale_out.is_none() && sim.replicas(inst.service).len() < 8 {
        out.commands.push(scale_out);
        out.scale_out = Some(ScaleOut::AtCeiling);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use firm_sim::spec::{AppSpec, ClusterSpec};
    use firm_sim::SimDuration;

    fn sim_of(app: AppSpec) -> Simulation {
        Simulation::builder(ClusterSpec::small(2), app, 51).build()
    }

    fn sim() -> Simulation {
        sim_of(AppSpec::three_tier_demo())
    }

    /// Applies `plan`'s commands and lets them actuate.
    fn execute(sim: &mut Simulation, plan: &Plan) {
        for cmd in &plan.commands {
            sim.apply(*cmd);
        }
        sim.run_for(SimDuration::from_millis(200));
    }

    /// Demand floors with only `kind` set: its limit target is `1.5 × at`.
    fn floor(kind: ResourceKind, at: f64) -> ResourceVec {
        let mut floors = ResourceVec::ZERO;
        floors.set(kind, at);
        floors
    }

    fn scale_outs(plan: &Plan) -> usize {
        let is_scale_out = |c: &&Command| matches!(c, Command::ScaleOut { .. });
        plan.commands.iter().filter(is_scale_out).count()
    }

    fn cpu_amount(plan: &Plan) -> Option<f64> {
        plan.commands.iter().find_map(|c| match c {
            Command::SetPartition {
                kind: ResourceKind::Cpu,
                amount,
                ..
            } => Some(*amount),
            _ => None,
        })
    }

    #[test]
    fn in_bound_limits_become_partitions() {
        let mut sim = sim();
        // The middle of every range: 4.25 cores, 6 528 MB/s, 10.5 MB.
        let plan = plan(&sim, InstanceId(0), &[0.0; 5], &ResourceVec::ZERO);
        assert_eq!(plan.scale_out, None);
        assert_eq!(plan.commands.len(), 5);
        execute(&mut sim, &plan);
        let inst = sim.instance(InstanceId(0));
        assert_eq!(inst.partition(ResourceKind::Cpu), Some(4.25));
        assert_eq!(inst.partition(ResourceKind::MemBw), Some(6_528.0));
        assert_eq!(inst.partition(ResourceKind::Llc), Some(10.5));
    }

    #[test]
    fn oversubscription_replaced_by_scale_out() {
        let mut sim = sim();
        // Instance 0's memory-bandwidth demand reserves 20 GB/s of node
        // 0's 23 GB/s reservable envelope...
        let mem = floor(ResourceKind::MemBw, 20_000.0 / 1.5);
        let first = plan(&sim, InstanceId(0), &[0.0; 5], &mem);
        assert_eq!(first.scale_out, None);
        execute(&mut sim, &first);
        // ... so the same demand on a co-located instance oversubscribes
        // (instance 2 is on node 0 in the demo placement).
        let victim = InstanceId(2);
        assert_eq!(sim.instance(victim).node, sim.instance(InstanceId(0)).node);
        let plan = plan(&sim, victim, &[0.0; 5], &mem);
        assert_eq!(plan.scale_out, Some(ScaleOut::Oversubscribed));
        assert_eq!(scale_outs(&plan), 1);
        // The scale-out takes the memory partition's place, after CPU's.
        assert!(matches!(plan.commands[1], Command::ScaleOut { .. }));
        // The memory partition itself must NOT be among the commands,
        // while the in-bound ones still are.
        assert!(!plan.commands.iter().any(|c| matches!(
            c,
            Command::SetPartition {
                kind: ResourceKind::MemBw,
                ..
            }
        )));
        assert_eq!(cpu_amount(&plan), Some(4.25));
    }

    #[test]
    fn oversubscribed_action_never_gets_a_second_scale_out() {
        let sim = sim();
        // CPU and I/O both oversubscribe, and the action sits at its
        // ceiling: still exactly one scale-out, from the first rule.
        let mut floors = floor(ResourceKind::Cpu, 300.0);
        floors.set(ResourceKind::IoBw, 2_000.0);
        let plan = plan(&sim, InstanceId(0), &[0.95, 0.0, 0.0, 1.0, 0.0], &floors);
        assert_eq!(plan.scale_out, Some(ScaleOut::Oversubscribed));
        assert_eq!(scale_outs(&plan), 1);
        assert!(matches!(plan.commands[0], Command::ScaleOut { .. }));
    }

    #[test]
    fn cpu_capped_by_thread_count() {
        let mut app = AppSpec::three_tier_demo();
        for svc in &mut app.services {
            svc.max_threads = 16;
        }
        let sim = sim_of(app);
        // A concurrency floor of 300 asks for 450 cores on a 48-core
        // node: scale-out (oversubscription) path.
        let plan_at = |cpu: f64| {
            plan(
                &sim,
                InstanceId(0),
                &[0.0; 5],
                &floor(ResourceKind::Cpu, cpu),
            )
        };
        assert_eq!(plan_at(300.0).scale_out, Some(ScaleOut::Oversubscribed));
        // 30 cores fit the node but not the 16 worker threads: capped.
        let capped = plan_at(20.0);
        assert_eq!(capped.scale_out, None);
        assert_eq!(cpu_amount(&capped), Some(16.0));
        // 12 cores fit both and pass unchanged.
        assert_eq!(cpu_amount(&plan_at(8.0)), Some(12.0));
    }

    #[test]
    fn noop_updates_skipped() {
        let mut sim = sim();
        let first = plan(&sim, InstanceId(0), &[0.0; 5], &ResourceVec::ZERO);
        execute(&mut sim, &first);
        // Re-proposing the same action issues nothing.
        let again = plan(&sim, InstanceId(0), &[0.0; 5], &ResourceVec::ZERO);
        assert_eq!(again, Plan::default());
    }

    #[test]
    fn action_at_ceiling_scales_out_last() {
        let sim = sim();
        let plan = plan(
            &sim,
            InstanceId(0),
            &[0.0, 0.0, 0.95, 0.0, 0.0],
            &ResourceVec::ZERO,
        );
        assert_eq!(plan.scale_out, Some(ScaleOut::AtCeiling));
        assert_eq!(scale_outs(&plan), 1);
        assert_eq!(
            plan.commands.len(),
            6,
            "five partitions, then the scale-out"
        );
        assert_eq!(
            plan.commands.last(),
            Some(&Command::ScaleOut {
                service: sim.instance(InstanceId(0)).service,
                warm: true,
            })
        );
    }

    #[test]
    fn ceiling_is_strictly_above_0_9() {
        let sim = sim();
        let plan = plan(&sim, InstanceId(0), &[0.9; 5], &ResourceVec::ZERO);
        assert_eq!(plan.scale_out, None);
        assert_eq!(scale_outs(&plan), 0);
    }

    #[test]
    fn ceiling_stops_at_eight_replicas() {
        let at = |replicas: u32| {
            let mut app = AppSpec::three_tier_demo();
            app.services[0].initial_replicas = replicas;
            let sim = sim_of(app);
            assert_eq!(
                sim.replicas(firm_sim::ServiceId(0)).len(),
                replicas as usize
            );
            plan(
                &sim,
                InstanceId(0),
                &[1.0, 0.0, 0.0, 0.0, 0.0],
                &ResourceVec::ZERO,
            )
            .scale_out
        };
        assert_eq!(at(7), Some(ScaleOut::AtCeiling));
        assert_eq!(at(8), None);
    }
}
