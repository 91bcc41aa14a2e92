//! Execution history graphs (Definition 2.2 of the paper).
//!
//! An execution history graph is the space-time diagram of one distributed
//! request: vertices are spans (send/receive/compute collapse into the
//! span's timeline) and edges are the RPC invocations. The graph also
//! classifies sibling spans into the paper's three workflow patterns
//! (§3.2): *parallel* (overlapping), *sequential* (happens-before), and
//! *background* (no return value).

use firm_sim::{CompletedRequest, SimTime, SpanId, SpanRecord};

/// Relation between two synchronous sibling calls (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiblingRelation {
    /// Their active intervals overlap: `(st_j < st_i < et_j) ∨
    /// (st_i < st_j < et_i)`.
    Parallel,
    /// The first returns before the second is sent (happens-before).
    Sequential,
    /// At least one is a background (fire-and-forget) call.
    Background,
}

/// A node of the execution history graph: one span plus its resolved
/// child links.
#[derive(Debug, Clone)]
pub struct GraphNode {
    /// Index into [`ExecutionHistoryGraph::spans`].
    pub span_idx: usize,
    /// Indices of child nodes, in call order.
    pub children: Vec<usize>,
    /// Index of the parent node, if any.
    pub parent: Option<usize>,
}

/// The execution history graph of one completed request.
#[derive(Debug, Clone)]
pub struct ExecutionHistoryGraph {
    /// The spans, as recorded (completion order).
    pub spans: Vec<SpanRecord>,
    /// One node per span, same indexing as `spans`.
    pub nodes: Vec<GraphNode>,
    /// Index of the root span's node.
    pub root: usize,
}

impl ExecutionHistoryGraph {
    /// Builds the graph from a completed request, taking ownership of
    /// its spans — the span buffers travel from the simulator into the
    /// graph without a copy.
    ///
    /// Returns `None` if the trace has no root span or contains a parent
    /// reference that never completed (partial traces are skipped by the
    /// coordinator, matching how Jaeger drops incomplete traces).
    pub fn build(request: CompletedRequest) -> Option<Self> {
        Self::from_spans(request.spans)
    }

    /// Builds the graph from raw spans.
    pub fn from_spans(spans: Vec<SpanRecord>) -> Option<Self> {
        let mut root = None;
        let mut nodes: Vec<GraphNode> = (0..spans.len())
            .map(|i| GraphNode {
                span_idx: i,
                children: Vec::new(),
                parent: None,
            })
            .collect();

        // Resolve parent links through span ids.
        let find = |id: SpanId, spans: &[SpanRecord]| -> Option<usize> {
            spans.iter().position(|s| s.span_id == id)
        };
        for i in 0..spans.len() {
            match spans[i].parent {
                None => {
                    if root.is_some() {
                        return None; // Two roots: malformed.
                    }
                    root = Some(i);
                }
                Some(pid) => {
                    let p = find(pid, &spans)?;
                    nodes[i].parent = Some(p);
                    nodes[p].children.push(i);
                }
            }
        }
        // Order children by send time so traversal is deterministic.
        for p in 0..nodes.len() {
            let mut children = std::mem::take(&mut nodes[p].children);
            children.sort_by_key(|&c| {
                spans[p]
                    .calls
                    .iter()
                    .find(|call| call.child_span == spans[c].span_id)
                    .map(|call| call.sent)
                    .unwrap_or(SimTime::ZERO)
            });
            nodes[p].children = children;
        }
        let root = root?;
        Some(ExecutionHistoryGraph { spans, nodes, root })
    }

    /// The root span.
    pub fn root_span(&self) -> &SpanRecord {
        &self.spans[self.root]
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when the graph has no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Classifies the relation between two child calls of `parent`
    /// (identified by positions in the parent's call list).
    ///
    /// Returns `None` if the indexes are invalid or the calls never
    /// resolved to spans.
    pub fn sibling_relation(&self, parent: usize, a: usize, b: usize) -> Option<SiblingRelation> {
        let p = &self.spans[self.nodes.get(parent)?.span_idx];
        let ca = p.calls.get(a)?;
        let cb = p.calls.get(b)?;
        if ca.background || cb.background {
            return Some(SiblingRelation::Background);
        }
        // Child activity interval: sent → returned. The paper's overlap
        // test uses strict inequalities; we additionally treat calls sent
        // at the same instant as overlapping (the simulator fires a
        // stage's calls at one timestamp).
        let (sa, ea) = (ca.sent, ca.returned?);
        let (sb, eb) = (cb.sent, cb.returned?);
        let overlap = sa.max(sb) < ea.min(eb);
        if overlap {
            Some(SiblingRelation::Parallel)
        } else {
            Some(SiblingRelation::Sequential)
        }
    }

    /// Iterates `(parent_idx, child_idx)` edges.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .flat_map(|(p, n)| n.children.iter().map(move |&c| (p, c)))
    }

    /// Depth of the graph (root = 1).
    ///
    /// Iterative: the wire parser caps document nesting at 128, but
    /// graphs built in-process have no depth cap, so a recursive walk
    /// could overflow the stack on a pathologically deep call chain.
    pub fn depth(&self) -> usize {
        if self.is_empty() {
            return 0;
        }
        let mut max_depth = 0;
        let mut stack: Vec<(usize, usize)> = vec![(self.root, 1)];
        while let Some((n, d)) = stack.pop() {
            max_depth = max_depth.max(d);
            for &c in &self.nodes[n].children {
                stack.push((c, d + 1));
            }
        }
        max_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firm_sim::{
        spec::{AppSpec, ClusterSpec},
        SimDuration, Simulation,
    };

    fn one_trace() -> CompletedRequest {
        let mut sim =
            Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), 42).build();
        sim.run_for(SimDuration::from_secs(1));
        let mut done = sim.drain_completed();
        done.remove(done.len() / 2)
    }

    #[test]
    fn builds_from_simulated_trace() {
        let req = one_trace();
        let g = ExecutionHistoryGraph::build(req).expect("graph builds");
        assert_eq!(g.len(), 5);
        assert!(g.root_span().parent.is_none());
        assert_eq!(g.depth(), 3); // frontend → logic-a → store.
        assert_eq!(g.edges().count(), 4);
    }

    /// Every request the span-recording engine completes builds a
    /// graph — served, degraded by an internal drop, or dropped at the
    /// door, with anomalies and scaling in flight. Controllers that keep
    /// end-to-end latencies instead of a trace store (AIMD) rest on
    /// this: the store never silently rejected anything they now count.
    #[test]
    fn every_completed_request_builds_under_drops_and_anomalies() {
        use firm_sim::{AnomalyKind, AnomalySpec, Command, InstanceId, NodeId, ResourceKind};
        let mut app = AppSpec::three_tier_demo();
        let frontend = app
            .service_by_name("frontend")
            .expect("demo has a frontend");
        let store = app.service_by_name("store").expect("demo has a store");
        // Workers block on their downstream calls, so an inner queue
        // overflows only if the entry admits more requests than the
        // inner tiers can hold: a wide frontend over short inner queues.
        for svc in &mut app.services {
            svc.queue_cap = 2;
        }
        app.services[frontend.index()].initial_cpu = 16.0;
        app.services[frontend.index()].queue_cap = 8;
        let (mut built, mut dropped, mut degraded) = (0, 0, 0);
        for seed in [3, 4] {
            let mut sim = Simulation::builder(ClusterSpec::small(2), app.clone(), seed)
                .arrivals(Box::new(firm_sim::PoissonArrivals::new(400.0)))
                .build();
            for kind in [
                AnomalyKind::CpuStress,
                AnomalyKind::MemBwStress,
                AnomalyKind::NetworkDelay,
                AnomalyKind::WorkloadVariation,
            ] {
                let length = SimDuration::from_secs(3);
                sim.inject(AnomalySpec::new(kind, NodeId(0), 0.9, length));
            }
            // Squeeze the leaf so internal calls drop, then the entry.
            let squeeze = |sim: &mut Simulation, service| {
                let instance: InstanceId = sim.replicas(service)[0];
                sim.apply(Command::SetPartition {
                    instance,
                    kind: ResourceKind::Cpu,
                    amount: 0.05,
                });
            };
            squeeze(&mut sim, store);
            sim.run_for(SimDuration::from_secs(2));
            squeeze(&mut sim, frontend);
            let scale_out = Command::ScaleOut {
                service: store,
                warm: true,
            };
            sim.apply(scale_out);
            sim.run_for(SimDuration::from_secs(2));
            sim.apply(Command::ScaleIn { service: store });
            sim.run_for(SimDuration::from_secs(1));
            for req in sim.drain_completed() {
                let was_dropped = req.dropped;
                let root_dropped = req.root_span().is_some_and(|s| s.dropped);
                let g = ExecutionHistoryGraph::build(req).expect("engine emits whole traces");
                assert!(g.root_span().parent.is_none());
                built += 1;
                dropped += u32::from(root_dropped);
                degraded += u32::from(was_dropped && !root_dropped);
            }
        }
        assert!(built > 1_000, "only {built} traces");
        assert!(dropped > 0, "no request was dropped at the entry");
        assert!(degraded > 0, "no request lost an internal call");
    }

    #[test]
    fn children_sorted_by_send_time() {
        let req = one_trace();
        let g = ExecutionHistoryGraph::build(req).expect("graph builds");
        let root = &g.nodes[g.root];
        let sent: Vec<_> = root
            .children
            .iter()
            .map(|&c| {
                g.root_span()
                    .calls
                    .iter()
                    .find(|call| call.child_span == g.spans[c].span_id)
                    .unwrap()
                    .sent
            })
            .collect();
        for w in sent.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn sibling_relations_classified() {
        let req = one_trace();
        let g = ExecutionHistoryGraph::build(req).expect("graph builds");
        // The three-tier frontend fires logic-a and logic-b in parallel
        // (stage 0, calls 0 and 1), and a background logger (call 2).
        assert_eq!(
            g.sibling_relation(g.root, 0, 1),
            Some(SiblingRelation::Parallel)
        );
        assert_eq!(
            g.sibling_relation(g.root, 0, 2),
            Some(SiblingRelation::Background)
        );
        assert_eq!(g.sibling_relation(g.root, 0, 9), None);
    }

    #[test]
    fn depth_survives_pathologically_deep_chains() {
        // A 200_000-deep linear call chain, assembled directly: the wire
        // parser caps document nesting at 128, but in-process graphs
        // have no cap, and the old recursive depth() overflowed the
        // stack well before this size.
        use firm_sim::{InstanceId, RequestTypeId, ServiceId};
        let n = 200_000usize;
        let spans: Vec<SpanRecord> = (0..n)
            .map(|i| SpanRecord {
                trace_id: firm_sim::TraceId(1),
                span_id: SpanId(i as u64),
                parent: (i > 0).then(|| SpanId(i as u64 - 1)),
                service: ServiceId(0),
                instance: InstanceId(0),
                request_type: RequestTypeId(0),
                start: SimTime::from_micros(i as u64),
                end: SimTime::from_micros(i as u64 + 1),
                work_start: SimTime::from_micros(i as u64),
                background: false,
                dropped: false,
                calls: Vec::new(),
            })
            .collect();
        let nodes: Vec<GraphNode> = (0..n)
            .map(|i| GraphNode {
                span_idx: i,
                children: if i + 1 < n { vec![i + 1] } else { Vec::new() },
                parent: (i > 0).then(|| i - 1),
            })
            .collect();
        let g = ExecutionHistoryGraph {
            spans,
            nodes,
            root: 0,
        };
        assert_eq!(g.depth(), n);
    }

    #[test]
    fn rejects_malformed_traces() {
        let req = one_trace();
        // Remove the root: orphaned children make the build fail.
        let spans: Vec<_> = req
            .spans
            .iter()
            .filter(|s| s.parent.is_some())
            .cloned()
            .collect();
        assert!(ExecutionHistoryGraph::from_spans(spans).is_none());
        assert!(ExecutionHistoryGraph::from_spans(Vec::new()).is_none());
    }

    #[test]
    fn rejects_two_roots() {
        let req = one_trace();
        let mut spans = req.spans.clone();
        let mut extra = spans[0].clone();
        extra.parent = None;
        extra.span_id = firm_sim::SpanId(999_999);
        spans.push(extra);
        // Now two spans have no parent.
        let roots = spans.iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, 2);
        assert!(ExecutionHistoryGraph::from_spans(spans).is_none());
    }
}
