//! A bounded in-memory trace/graph store.
//!
//! Stands in for the paper's Neo4j graph database (§3.1): it stores
//! execution history graphs with their critical paths and answers FIRM's
//! time-windowed queries. Neo4j keeps history; FIRM evicts after every
//! tick, so its store holds only what the next window's queries can read.
//! Capacity is bounded too; the oldest traces are evicted first.

use std::collections::VecDeque;

use firm_sim::{CompletedRequest, RequestTypeId, SimDuration, SimTime, TraceId};

use crate::critical_path::{critical_path, CriticalPath};
use crate::graph::ExecutionHistoryGraph;

/// A stored trace: the graph plus its pre-extracted critical path.
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
    /// The execution history graph.
    pub graph: ExecutionHistoryGraph,
    /// The critical path (extracted at ingestion, as the paper folds CP
    /// extraction into span construction).
    pub cp: CriticalPath,
}

/// Builds one [`StoredTrace`] from a completed request — graph
/// construction plus Algorithm 1 critical-path extraction, the
/// compute-heavy half of ingestion. Returns `None` for malformed traces
/// (no root / dangling parent).
///
/// This is a pure function of its input: no store state, no RNG, no
/// clocks. That is what makes it safe to evaluate on shard threads —
/// any schedule of calls produces the same per-trace values, and a
/// merge ordered by input index reproduces sequential ingestion bit for
/// bit.
pub fn build_stored(request: CompletedRequest) -> Option<StoredTrace> {
    let CompletedRequest {
        trace_id,
        request_type,
        started,
        finished,
        latency,
        dropped,
        spans,
    } = request;
    let graph = ExecutionHistoryGraph::from_spans(spans)?;
    let cp = critical_path(&graph);
    Some(StoredTrace {
        trace_id,
        request_type,
        started,
        finished,
        latency,
        dropped,
        graph,
        cp,
    })
}

/// Bounded trace store with time-windowed queries.
#[derive(Debug)]
pub struct TraceStore {
    traces: VecDeque<StoredTrace>,
    capacity: usize,
}

impl TraceStore {
    /// Creates a store holding at most `capacity` traces.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        TraceStore {
            traces: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
        }
    }

    /// Ingests one completed request; returns `false` if the trace was
    /// malformed (no root / dangling parent) and rejected.
    ///
    /// The request's span buffers move into the stored graph — each
    /// trace is materialized exactly once between the simulator and the
    /// store.
    pub fn ingest(&mut self, request: CompletedRequest) -> bool {
        self.insert_built(build_stored(request))
    }

    /// Inserts the result of [`build_stored`]: the sequential,
    /// order-sensitive half of ingestion (capacity eviction, deque
    /// append). Callers that build traces on
    /// shard threads feed the results back through here in input order,
    /// which keeps the store byte-identical to sequential ingestion.
    pub fn insert_built(&mut self, built: Option<StoredTrace>) -> bool {
        let Some(trace) = built else {
            return false;
        };
        if self.traces.len() == self.capacity {
            self.traces.pop_front();
        }
        self.traces.push_back(trace);
        true
    }

    /// Number of traces currently held.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when the store holds no traces.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// All stored traces, oldest first.
    pub fn all(&self) -> impl Iterator<Item = &StoredTrace> {
        self.traces.iter()
    }

    /// Traces finished at or after `since`.
    ///
    /// A linear filter, deliberately: traces are ingested in
    /// *finalization* order, but `finished` records the root-response
    /// time, and a background span can outlive the root response — so
    /// `finished` is not monotone across the deque and a binary-searched
    /// window would drop stragglers.
    pub fn since(&self, since: SimTime) -> impl Iterator<Item = &StoredTrace> {
        self.traces.iter().filter(move |t| t.finished >= since)
    }

    /// Traces of one request type finished at or after `since`.
    pub fn since_of_type(
        &self,
        since: SimTime,
        rt: RequestTypeId,
    ) -> impl Iterator<Item = &StoredTrace> {
        self.since(since).filter(move |t| t.request_type == rt)
    }

    /// Evicts traces finished before `before`.
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

    fn traces(seed: u64, secs: u64) -> Vec<CompletedRequest> {
        let mut sim =
            Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), seed).build();
        sim.run_for(SimDuration::from_secs(secs));
        sim.drain_completed()
    }

    #[test]
    fn ingest_and_query() {
        let ts = traces(3, 1);
        let n = ts.len();
        let mut store = TraceStore::new(10_000);
        for t in ts {
            assert!(store.ingest(t));
        }
        assert_eq!(store.len(), n);
        assert_eq!(store.since(SimTime::ZERO).count(), n);
        assert_eq!(
            store.since_of_type(SimTime::ZERO, RequestTypeId(0)).count(),
            n
        );
        assert_eq!(
            store.since_of_type(SimTime::ZERO, RequestTypeId(9)).count(),
            0
        );
    }

    #[test]
    fn capacity_evicts_oldest() {
        let ts = traces(4, 1);
        let mut store = TraceStore::new(10);
        let first_id = ts[0].trace_id;
        for t in ts {
            store.ingest(t);
        }
        assert_eq!(store.len(), 10);
        assert!(store.all().all(|t| t.trace_id != first_id));
    }

    #[test]
    fn rejects_malformed() {
        let mut ts = traces(5, 1);
        let mut bad = ts.pop().unwrap();
        bad.spans.retain(|s| s.parent.is_some());
        let mut store = TraceStore::new(16);
        assert!(!store.ingest(bad));
        assert!(store.is_empty());
    }

    #[test]
    fn evict_before_drops_old_traces() {
        let ts = traces(7, 2);
        let mut store = TraceStore::new(100_000);
        for t in ts {
            store.ingest(t);
        }
        let before = store.len();
        store.evict_before(SimTime::from_secs(1));
        assert!(store.len() < before);
        assert!(store.all().all(|t| t.finished >= SimTime::from_secs(1)));
    }

    use firm_sim::SimDuration;
}
