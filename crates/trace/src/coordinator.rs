//! The Tracing Coordinator (§3.1 of the paper).
//!
//! A stateless, replicable data-processing front-end that collects spans
//! from tracing agents, combines them into execution history graphs, and
//! stores them in the graph store. FIRM queries it one control window at
//! a time and evicts older traces after each tick; offline readers keep all.
//!
//! In the paper the coordinator also handles clock drift (via Jaeger);
//! the simulator has a global clock, so that concern disappears.

use firm_par::ShardPool;
use firm_sim::{CompletedRequest, RequestTypeId, SimTime};

use crate::critical_path::CriticalPath;
use crate::store::{build_stored, StoredTrace, TraceStore};

/// Span-collection and query front-end.
#[derive(Debug)]
pub struct TracingCoordinator {
    store: TraceStore,
}

impl TracingCoordinator {
    /// Creates a coordinator whose store holds at most `capacity` traces.
    pub fn new(capacity: usize) -> Self {
        TracingCoordinator {
            store: TraceStore::new(capacity),
        }
    }

    /// Ingests a batch of completed requests.
    pub fn ingest(&mut self, requests: Vec<CompletedRequest>) {
        for r in requests {
            self.store.ingest(r);
        }
    }

    /// Ingests a batch with the graph/critical-path construction fanned
    /// out over `pool`'s shards.
    ///
    /// Ingestion splits into two phases: a parallel build of each
    /// trace's graph and critical path ([`build_stored`] is pure, and
    /// each shard owns a disjoint contiguous index range), and a
    /// sequential merge that inserts the built traces in input order.
    /// Because the build is pure and the merge is index-ordered, the
    /// store ends up byte-identical to [`TracingCoordinator::ingest`]
    /// at any shard count — the property `tests/fleet_determinism.rs`
    /// pins.
    ///
    /// Small windows fall back to the sequential path: below a few
    /// dozen traces, spawn-and-join overhead exceeds the build work.
    pub fn ingest_sharded(&mut self, requests: Vec<CompletedRequest>, pool: &ShardPool) {
        /// Fan-out pays for itself only when each shard gets a real
        /// chunk of graph builds.
        const MIN_PARALLEL: usize = 64;
        if pool.is_sequential() || requests.len() < MIN_PARALLEL {
            return self.ingest(requests);
        }
        let mut requests: Vec<Option<CompletedRequest>> = requests.into_iter().map(Some).collect();
        let mut built: Vec<Option<StoredTrace>> = Vec::new();
        built.resize_with(requests.len(), || None);
        pool.zip_chunks(&mut requests, &mut built, |_, reqs, outs| {
            for (r, out) in reqs.iter_mut().zip(outs) {
                *out = build_stored(r.take().expect("each request consumed once"));
            }
        });
        for b in built {
            self.store.insert_built(b);
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// Critical paths of traces finished at or after `since` (non-dropped
    /// only), newest last.
    pub fn critical_paths_since(&self, since: SimTime) -> Vec<&CriticalPath> {
        self.store
            .since(since)
            .filter(|t| !t.dropped)
            .map(|t| &t.cp)
            .collect()
    }

    /// Stored traces finished at or after `since` — a borrowed view, so
    /// per-window consumers (the Extractor) iterate the store in place
    /// instead of cloning every trace.
    pub fn traces_since(&self, since: SimTime) -> impl Iterator<Item = &StoredTrace> {
        self.store.since(since)
    }

    /// End-to-end latencies (us) per request type since `since`.
    pub fn latencies_since(&self, since: SimTime, rt: RequestTypeId) -> Vec<f64> {
        self.store
            .since_of_type(since, rt)
            .filter(|t| !t.dropped)
            .map(|t| t.latency.as_micros() as f64)
            .collect()
    }

    /// Evicts traces finished before `before` to bound memory.
    pub fn evict_before(&mut self, before: SimTime) {
        self.store.evict_before(before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use firm_sim::{
        spec::{AppSpec, ClusterSpec},
        SimDuration, Simulation,
    };

    fn run(seed: u64) -> Vec<CompletedRequest> {
        let mut sim =
            Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), seed).build();
        sim.run_for(SimDuration::from_secs(1));
        sim.drain_completed()
    }

    #[test]
    fn ingest_and_query_cps() {
        let rs = run(1);
        let n = rs.len();
        let mut c = TracingCoordinator::new(10_000);
        c.ingest(rs);
        assert_eq!(c.store().len(), n);
        let cps = c.critical_paths_since(SimTime::ZERO);
        assert_eq!(cps.len(), n);
        // Every CP starts at the frontend.
        assert!(cps.iter().all(|cp| cp.entries[0].service.raw() == 0));
        assert_eq!(c.latencies_since(SimTime::ZERO, RequestTypeId(0)).len(), n);
    }

    #[test]
    fn sharded_ingest_matches_sequential_at_any_shard_count() {
        let mut sim =
            Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), 11).build();
        sim.run_for(SimDuration::from_secs(3));
        let rs = sim.drain_completed();
        assert!(rs.len() >= 64, "need enough traces to cross MIN_PARALLEL");

        let fingerprint = |c: &TracingCoordinator| -> Vec<String> {
            c.store().all().map(|t| format!("{t:?}")).collect()
        };

        let mut seq = TracingCoordinator::new(10_000);
        seq.ingest(rs.clone());
        for shards in [1, 2, 3, 4] {
            let mut par = TracingCoordinator::new(10_000);
            par.ingest_sharded(rs.clone(), &firm_par::ShardPool::new(shards));
            assert_eq!(fingerprint(&seq), fingerprint(&par), "shards={shards}");
        }
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
}
