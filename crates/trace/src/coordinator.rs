//! The Tracing Coordinator (§3.1 of the paper) and its trace store.
//!
//! The coordinator collects spans from tracing agents, combines them
//! into execution history graphs, extracts each graph's critical path
//! and stores the path, not the graph. It is the store too: a bounded
//! in-memory stand-in for the paper's Neo4j graph database that answers
//! FIRM's time-windowed queries. Neo4j keeps every execution history
//! graph; this one keeps each trace's metadata and critical path only,
//! because the Extractor (§3.2) reads nothing else: a graph lives while
//! Algorithm 1 runs over it and is dropped before the trace is stored.
//!
//! FIRM's episode loop (`firm_core::controller::run_episode`) feeds it
//! as requests complete, every `INGEST_PERIOD` (100 ms of simulated
//! time), so the spans in memory are bounded by the busiest ingest
//! period rather than the busiest control window. FIRM queries it one
//! control window at a time and evicts older traces after each tick, so
//! it holds only what the next window's queries can read; offline
//! readers keep all. Capacity is bounded too; the oldest traces are
//! evicted first.
//!
//! In the paper the coordinator also handles clock drift (via Jaeger);
//! the simulator has a global clock, so that concern disappears.

use std::collections::VecDeque;

use firm_sim::{CompletedRequest, RequestTypeId, SimDuration, SimTime, TraceId};

use crate::critical_path::{critical_path, CriticalPath};
use crate::graph::ExecutionHistoryGraph;

/// A stored trace: its metadata plus its pre-extracted critical path.
#[derive(Debug, Clone)]
pub struct StoredTrace {
    /// Trace identifier.
    pub trace_id: TraceId,
    /// Request type.
    pub request_type: RequestTypeId,
    /// Client-side start time.
    pub started: SimTime,
    /// Completion time.
    pub finished: SimTime,
    /// End-to-end latency.
    pub latency: SimDuration,
    /// Whether the request was dropped.
    pub dropped: bool,
    /// The critical path (extracted at ingestion, as the paper folds CP
    /// extraction into span construction).
    pub cp: CriticalPath,
}

/// Span-collection front-end and bounded critical-path store with
/// time-windowed queries.
#[derive(Debug)]
pub struct TracingCoordinator {
    traces: VecDeque<StoredTrace>,
    capacity: usize,
}

impl TracingCoordinator {
    /// Creates a coordinator holding at most `capacity` traces.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        TracingCoordinator {
            traces: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
        }
    }

    /// Ingests a batch of completed requests, skipping malformed traces
    /// (no root, two roots, or a dangling parent).
    ///
    /// Each request's span buffers move into the graph Algorithm 1
    /// extracts the critical path from — each trace is materialized
    /// exactly once between the simulator and the store — and the
    /// graph, spans included, is dropped once the path is out.
    pub fn ingest(&mut self, requests: Vec<CompletedRequest>) {
        for request in requests {
            let CompletedRequest {
                trace_id,
                request_type,
                started,
                finished,
                latency,
                dropped,
                spans,
            } = request;
            let Some(graph) = ExecutionHistoryGraph::from_spans(spans) else {
                continue;
            };
            if self.traces.len() == self.capacity {
                self.traces.pop_front();
            }
            self.traces.push_back(StoredTrace {
                trace_id,
                request_type,
                started,
                finished,
                latency,
                dropped,
                cp: critical_path(&graph),
            });
        }
    }

    /// Number of traces currently held.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when no trace is held.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Critical paths of traces finished at or after `since` (non-dropped
    /// only), newest last.
    pub fn critical_paths_since(&self, since: SimTime) -> Vec<&CriticalPath> {
        self.traces_since(since)
            .filter(|t| !t.dropped)
            .map(|t| &t.cp)
            .collect()
    }

    /// Stored traces finished at or after `since`, oldest first — a
    /// borrowed view, so per-window consumers (the Extractor) iterate
    /// the store in place instead of cloning every trace.
    ///
    /// A linear filter, deliberately: traces are ingested in
    /// *finalization* order, but `finished` records the root-response
    /// time, and a background span can outlive the root response — so
    /// `finished` is not monotone across the deque and a binary-searched
    /// window would drop stragglers.
    pub fn traces_since(&self, since: SimTime) -> impl Iterator<Item = &StoredTrace> {
        self.traces.iter().filter(move |t| t.finished >= since)
    }

    /// End-to-end latencies (us) of non-dropped requests of type `rt`
    /// finished at or after `since`.
    pub fn latencies_since(&self, since: SimTime, rt: RequestTypeId) -> Vec<f64> {
        self.traces_since(since)
            .filter(|t| t.request_type == rt && !t.dropped)
            .map(|t| t.latency.as_micros() as f64)
            .collect()
    }

    /// Evicts traces finished before `before` to bound memory.
    pub fn evict_before(&mut self, before: SimTime) {
        while let Some(front) = self.traces.front() {
            if front.finished < before {
                self.traces.pop_front();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firm_sim::{
        spec::{AppSpec, ClusterSpec},
        Simulation,
    };

    fn run(seed: u64, secs: u64) -> Vec<CompletedRequest> {
        let mut sim =
            Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), seed).build();
        sim.run_for(SimDuration::from_secs(secs));
        sim.drain_completed()
    }

    #[test]
    fn ingest_and_query() {
        let rs = run(3, 1);
        let n = rs.len();
        let mut c = TracingCoordinator::new(10_000);
        c.ingest(rs);
        assert_eq!(c.len(), n);
        assert_eq!(c.traces_since(SimTime::ZERO).count(), n);
        // The demo has one request type; a type it lacks reads empty.
        assert_eq!(c.latencies_since(SimTime::ZERO, RequestTypeId(0)).len(), n);
        assert!(c
            .latencies_since(SimTime::ZERO, RequestTypeId(9))
            .is_empty());
    }

    #[test]
    fn ingest_and_query_cps() {
        let rs = run(1, 1);
        let n = rs.len();
        let mut c = TracingCoordinator::new(10_000);
        c.ingest(rs);
        assert_eq!(c.len(), n);
        let cps = c.critical_paths_since(SimTime::ZERO);
        assert_eq!(cps.len(), n);
        // Every CP starts at the frontend.
        assert!(cps.iter().all(|cp| cp.entries[0].service.raw() == 0));
        assert_eq!(c.latencies_since(SimTime::ZERO, RequestTypeId(0)).len(), n);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let rs = run(4, 1);
        let first_id = rs[0].trace_id;
        let mut c = TracingCoordinator::new(10);
        c.ingest(rs);
        assert_eq!(c.len(), 10);
        assert!(c
            .traces_since(SimTime::ZERO)
            .all(|t| t.trace_id != first_id));
    }

    #[test]
    fn rejects_malformed() {
        let mut rs = run(5, 1);
        let mut rootless = rs.pop().unwrap();
        rootless.spans.retain(|s| s.parent.is_some());
        let mut two_roots = rs.pop().unwrap();
        let root = two_roots.spans.iter().find(|s| s.parent.is_none()).cloned();
        two_roots.spans.extend(root);
        let mut c = TracingCoordinator::new(16);
        c.ingest(vec![rootless, two_roots]);
        assert!(c.is_empty());
    }

    #[test]
    fn windowed_queries_filter_by_time() {
        let mut sim =
            Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), 3).build();
        let mut c = TracingCoordinator::new(100_000);
        sim.run_for(SimDuration::from_secs(1));
        c.ingest(sim.drain_completed());
        let early = c.traces_since(SimTime::ZERO).count();
        sim.run_for(SimDuration::from_secs(1));
        c.ingest(sim.drain_completed());
        let recent = c.traces_since(SimTime::from_secs(1)).count();
        let all = c.traces_since(SimTime::ZERO).count();
        assert!(recent < all);
        assert!(early > 0);
        c.evict_before(SimTime::from_secs(1));
        assert_eq!(c.traces_since(SimTime::ZERO).count(), recent);
    }

    #[test]
    fn evict_before_drops_old_traces() {
        let mut c = TracingCoordinator::new(100_000);
        c.ingest(run(7, 2));
        let before = c.len();
        c.evict_before(SimTime::from_secs(1));
        assert!(c.len() < before);
        assert!(c
            .traces_since(SimTime::ZERO)
            .all(|t| t.finished >= SimTime::from_secs(1)));
    }
}
