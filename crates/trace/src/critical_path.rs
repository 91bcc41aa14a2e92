//! Critical-path extraction — Algorithm 1 of the paper.
//!
//! The critical path (CP) of a request is the path of maximal duration
//! through its execution history graph (Definition 2.3). Algorithm 1
//! walks the graph top-down: at each span it descends into the
//! *last-returned child* (`lrc`), then additionally into every child that
//! *happens-before* the `lrc` (a sequential chain leading up to it).
//! Parallel children that overlap the `lrc` are dominated by it and are
//! excluded; background children never return and are excluded by
//! construction (§3.2).

use firm_sim::{InstanceId, ServiceId, SimDuration, SimTime, SpanId};

use crate::graph::ExecutionHistoryGraph;

/// One span on a critical path.
#[derive(Debug, Clone, Copy)]
pub struct PathEntry {
    /// Index into the graph's span vector.
    pub span_idx: usize,
    /// The span.
    pub span_id: SpanId,
    /// Its service.
    pub service: ServiceId,
    /// Its instance.
    pub instance: InstanceId,
    /// Span start time.
    pub start: SimTime,
    /// Full span duration (arrival → response).
    pub duration: SimDuration,
    /// Exclusive time: span duration minus the time spent waiting for
    /// its CP children (the per-service "individual latency" of Table 1).
    pub exclusive: SimDuration,
}

/// A critical path through one execution history graph.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// Entries ordered by span start time (the root is first).
    pub entries: Vec<PathEntry>,
    /// End-to-end duration of the root span.
    pub total: SimDuration,
}

impl CriticalPath {
    /// The ordered service signature of the path; CPs with equal
    /// signatures take the same route (used to group CPs, e.g. Fig. 3's
    /// min/max-latency CP comparison).
    pub fn signature(&self) -> Vec<ServiceId> {
        self.entries.iter().map(|e| e.service).collect()
    }

    /// Sum of exclusive times; ≤ `total` (the gap is network transfer
    /// time, which belongs to no span).
    pub fn exclusive_sum(&self) -> SimDuration {
        let mut t = SimDuration::ZERO;
        for e in &self.entries {
            t += e.exclusive;
        }
        t
    }
}

/// Extracts the critical path of the "Service Response" (Definition 2.3
/// without a target microservice) from an execution history graph.
///
/// Algorithm 1 runs iteratively on two reused scratch buffers (the
/// visit worklist and the per-span synchronous-call view); entries are
/// sorted by `(start, span_id)` at the end, so visit order never shows
/// in the result. Child spans resolve through the node's own child
/// list instead of a whole-graph scan.
pub fn critical_path(graph: &ExecutionHistoryGraph) -> CriticalPath {
    let mut on_path = Vec::new();
    let mut stack: Vec<usize> = vec![graph.root];
    let mut sync_calls: Vec<(usize, SimTime, SimTime)> = Vec::new();

    while let Some(node) = stack.pop() {
        let span = &graph.spans[graph.nodes[node].span_idx];

        // Synchronous, completed calls only: background calls never
        // return and cannot carry the response.
        sync_calls.clear();
        sync_calls.extend(
            span.calls
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.returned.map(|r| (i, c.sent, r))),
        );

        // The last-returned child dominates the tail of this span; the
        // CP children are the lrc plus every child that happens-before
        // it. Exclusive time is the span minus its waits on CP children.
        let lrc = sync_calls
            .iter()
            .max_by_key(|(_, _, returned)| *returned)
            .copied();
        let mut waited = SimDuration::ZERO;
        if let Some((lrc_idx, lrc_sent, _)) = lrc {
            for &(i, sent, returned) in &sync_calls {
                if i == lrc_idx || returned <= lrc_sent {
                    waited += returned - sent;
                    let child_span_id = span.calls[i].child_span;
                    if let Some(&child_node) = graph.nodes[node]
                        .children
                        .iter()
                        .find(|&&c| graph.spans[graph.nodes[c].span_idx].span_id == child_span_id)
                    {
                        stack.push(child_node);
                    }
                }
            }
        }
        let duration = span.duration();
        let exclusive = duration.saturating_sub(waited);

        on_path.push(PathEntry {
            span_idx: graph.nodes[node].span_idx,
            span_id: span.span_id,
            service: span.service,
            instance: span.instance,
            start: span.start,
            duration,
            exclusive,
        });
    }

    on_path.sort_by_key(|e: &PathEntry| (e.start, e.span_id));
    CriticalPath {
        entries: on_path,
        total: graph.root_span().duration(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firm_sim::{CallRecord, RequestTypeId, SpanRecord, TraceId};

    /// Builds a span with call records; times in microseconds.
    fn span(
        id: u64,
        parent: Option<u64>,
        service: u16,
        start: u64,
        end: u64,
        calls: Vec<(u64, u16, u64, Option<u64>, bool)>,
    ) -> SpanRecord {
        SpanRecord {
            trace_id: TraceId(1),
            span_id: SpanId(id),
            parent: parent.map(SpanId),
            service: ServiceId(service),
            instance: InstanceId(service as u32),
            request_type: RequestTypeId(0),
            start: SimTime::from_micros(start),
            end: SimTime::from_micros(end),
            work_start: SimTime::from_micros(start),
            background: false,
            dropped: false,
            calls: calls
                .into_iter()
                .map(|(child, target, sent, ret, background)| CallRecord {
                    child_span: SpanId(child),
                    target: ServiceId(target),
                    sent: SimTime::from_micros(sent),
                    returned: ret.map(SimTime::from_micros),
                    background,
                })
                .collect(),
        }
    }

    fn graph(spans: Vec<SpanRecord>) -> ExecutionHistoryGraph {
        ExecutionHistoryGraph::from_spans(spans).expect("valid graph")
    }

    #[test]
    fn leaf_only_root() {
        let g = graph(vec![span(1, None, 0, 0, 100, vec![])]);
        let cp = critical_path(&g);
        assert_eq!(cp.entries.len(), 1);
        assert_eq!(cp.total.as_micros(), 100);
        assert_eq!(cp.exclusive_sum().as_micros(), 100);
    }

    #[test]
    fn parallel_children_pick_last_returned() {
        // Root 0..1000 calls A (10..400) and B (10..900): B returns last,
        // overlaps A, so the CP is root → B.
        let g = graph(vec![
            span(
                1,
                None,
                0,
                0,
                1000,
                vec![(2, 1, 10, Some(400), false), (3, 2, 10, Some(900), false)],
            ),
            span(2, Some(1), 1, 20, 390, vec![]),
            span(3, Some(1), 2, 20, 880, vec![]),
        ]);
        let cp = critical_path(&g);
        let services: Vec<u16> = cp.signature().iter().map(|s| s.raw()).collect();
        assert_eq!(services, vec![0, 2]);
        // Root exclusive: 1000 − (900 − 10) = 110.
        assert_eq!(cp.entries[0].exclusive.as_micros(), 110);
    }

    #[test]
    fn sequential_chain_fully_included() {
        // Root calls A (10..200) then B (250..700): A happens-before B,
        // both on the CP.
        let g = graph(vec![
            span(
                1,
                None,
                0,
                0,
                800,
                vec![(2, 1, 10, Some(200), false), (3, 2, 250, Some(700), false)],
            ),
            span(2, Some(1), 1, 20, 190, vec![]),
            span(3, Some(1), 2, 260, 690, vec![]),
        ]);
        let cp = critical_path(&g);
        let services: Vec<u16> = cp.signature().iter().map(|s| s.raw()).collect();
        assert_eq!(services, vec![0, 1, 2]);
        // Root exclusive: 800 − (200−10) − (700−250) = 160.
        assert_eq!(cp.entries[0].exclusive.as_micros(), 160);
    }

    #[test]
    fn three_way_sequential_chain() {
        // a → b → c all sequential: all included through the
        // happens-before recursion against the lrc.
        let g = graph(vec![
            span(
                1,
                None,
                0,
                0,
                1000,
                vec![
                    (2, 1, 10, Some(200), false),
                    (3, 2, 210, Some(500), false),
                    (4, 3, 510, Some(950), false),
                ],
            ),
            span(2, Some(1), 1, 15, 195, vec![]),
            span(3, Some(1), 2, 215, 495, vec![]),
            span(4, Some(1), 3, 515, 945, vec![]),
        ]);
        let cp = critical_path(&g);
        assert_eq!(cp.entries.len(), 4);
    }

    #[test]
    fn background_children_excluded() {
        let g = graph(vec![
            span(
                1,
                None,
                0,
                0,
                500,
                vec![(2, 1, 10, Some(450), false), (3, 2, 10, None, true)],
            ),
            span(2, Some(1), 1, 20, 440, vec![]),
            {
                let mut s = span(3, Some(1), 2, 20, 2_000, vec![]);
                s.background = true;
                s
            },
        ]);
        let cp = critical_path(&g);
        let services: Vec<u16> = cp.signature().iter().map(|s| s.raw()).collect();
        assert_eq!(services, vec![0, 1]);
    }

    #[test]
    fn nested_paths_recurse() {
        // Root → A → B; A's child B dominates A's time.
        let g = graph(vec![
            span(1, None, 0, 0, 1000, vec![(2, 1, 10, Some(950), false)]),
            span(2, Some(1), 1, 20, 940, vec![(3, 2, 40, Some(900), false)]),
            span(3, Some(2), 2, 50, 890, vec![]),
        ]);
        let cp = critical_path(&g);
        assert_eq!(cp.entries.len(), 3);
        assert_eq!(cp.total.as_micros(), 1000);
        // Entries ordered by start time.
        let starts: Vec<u64> = cp.entries.iter().map(|e| e.start.as_micros()).collect();
        assert_eq!(starts, vec![0, 20, 50]);
    }

    #[test]
    fn parallel_branch_outside_lrc_chain_excluded() {
        // A (10..600) overlaps B (550..900, lrc): A is parallel to B and
        // returns after B was sent? No: A returns at 600 > B sent at 550,
        // so A is NOT happens-before B and is excluded.
        let g = graph(vec![
            span(
                1,
                None,
                0,
                0,
                1000,
                vec![(2, 1, 10, Some(600), false), (3, 2, 550, Some(900), false)],
            ),
            span(2, Some(1), 1, 20, 590, vec![]),
            span(3, Some(1), 2, 560, 890, vec![]),
        ]);
        let cp = critical_path(&g);
        let services: Vec<u16> = cp.signature().iter().map(|s| s.raw()).collect();
        assert_eq!(services, vec![0, 2]);
    }

    #[test]
    fn cp_on_simulated_traces_is_sane() {
        use firm_sim::{
            spec::{AppSpec, ClusterSpec},
            SimDuration, Simulation,
        };
        let mut sim =
            Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), 11).build();
        sim.run_for(SimDuration::from_secs(1));
        for req in sim.drain_completed() {
            let g = ExecutionHistoryGraph::build(req).expect("graph builds");
            let cp = critical_path(&g);
            assert!(!cp.entries.is_empty());
            assert_eq!(cp.entries[0].span_id, g.root_span().span_id);
            assert!(cp.exclusive_sum() <= cp.total);
            // No background spans on a CP.
            for e in &cp.entries {
                assert!(!g.spans[e.span_idx].background);
            }
        }
    }
}
