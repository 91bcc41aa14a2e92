//! The discrete-event simulation engine.
//!
//! [`Simulation`] owns the cluster, the application, all in-flight request
//! state, and a time-ordered event queue. External controllers (FIRM, the
//! baselines, the anomaly injector, experiment harnesses) interleave with
//! it by running the clock forward ([`Simulation::run_until`] /
//! [`Simulation::run_for`]), draining completed traces and telemetry
//! windows, and applying [`Command`]s, which take effect after their
//! Table 6 actuation latency.
//!
//! # Determinism
//!
//! Events are ordered by `(time, sequence)`, every random draw comes from
//! one seeded [`SimRng`], and per-entity state lives in index-addressed
//! vectors, so a `(spec, seed)` pair reproduces a run bit-for-bit.
//!
//! The order is packed into one `u128` key per event, `(time_us << 64) |
//! seq`, so the heap compares one integer; `seq` only grows, so keys are
//! unique and the order is total. The event being dispatched stays at
//! the top of the heap until its handler's first `schedule`, which
//! overwrites it in place: one sift-down instead of a pop (sift down to
//! the bottom, then up) plus a push. Only a handler that schedules
//! nothing pops. The heap holds the same set of keys either way, so the
//! dispatch order is the same.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::actuator::Command;
use crate::anomaly::{AnomalyKind, AnomalySpec};
use crate::arrival::ArrivalProcess;
use crate::contention;
use crate::ids::{AnomalyId, InstanceId, NodeId, RequestTypeId, ServiceId, SpanId, TraceId};
use crate::instance::{Instance, InstanceState};
use crate::node::{ActiveContender, ActiveDelay, Node};
use crate::resources::{ResourceKind, ResourceVec, RESOURCE_KINDS};
use crate::rng::SimRng;
use crate::span::{CallRecord, CompletedRequest, SpanRecord};
use crate::spec::{AppSpec, ClusterSpec};
use crate::telemetry_probe::{InstanceSnapshot, TelemetryWindow};
use crate::time::{SimDuration, SimTime};

/// One-way base latency of an inter-service RPC.
const BASE_RTT: SimDuration = SimDuration::from_micros(150);
/// One-way latency between the client and the entry service.
const CLIENT_RTT: SimDuration = SimDuration::from_micros(250);
/// Queue-length sampling period.
const SAMPLE_PERIOD: SimDuration = SimDuration::from_millis(100);

/// Cumulative run statistics: the simulator's own arrival tally, the
/// one count no drained request carries. Completions, drops and
/// latencies are counted from what [`Simulation::drain_completed`]
/// hands out.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunStats {
    /// Client requests generated.
    pub arrivals: u64,
}

/// One client arrival, as recorded when the simulation is built with
/// [`SimulationBuilder::record_arrivals`]. A run's arrival log is the
/// raw material of trace replay: feeding the recorded times back in as
/// an arrival process reproduces the run's load shape exactly —
/// incident re-runs instead of synthetic arrival curves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivalRecord {
    /// When the client request arrived.
    pub at: SimTime,
    /// The request type drawn for it.
    pub request_type: RequestTypeId,
}

/// What an event does. Slots are `u32` and the rare actuation's
/// command is boxed, so a heap entry is 32 bytes.
#[derive(Debug, Clone)]
enum EventKind {
    Arrival,
    HopDeliver { act: u32 },
    ComputeDone { act: u32 },
    ResponseDeliver { parent_act: u32, call_idx: u32 },
    RootResponse { trace_slot: u32 },
    AnomalyStart { id: AnomalyId },
    AnomalyEnd { id: AnomalyId },
    ActuationDone { cmd: Box<Command> },
    Sample,
}

#[derive(Debug)]
struct EventEntry {
    /// `(time_us << 64) | seq`.
    key: u128,
    kind: EventKind,
}

impl PartialEq for EventEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for EventEntry {}
impl PartialOrd for EventEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// An event's slab index. Slabs hold what is in flight, so they stay far
/// below 2^32 entries.
fn slot(index: usize) -> u32 {
    u32::try_from(index).expect("slab index fits in an event slot")
}

/// The time-ordered event queue (see the module's Determinism section).
#[derive(Debug, Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<EventEntry>>,
    seq: u64,
    /// The top of the heap is the event last handed out by
    /// [`EventQueue::next_due`]: the next `schedule` overwrites it.
    spent_top: bool,
    /// The smallest key the next dispatch may carry (debug order check).
    next_min_key: u128,
}

impl EventQueue {
    fn schedule(&mut self, time: SimTime, kind: EventKind) {
        let key = (u128::from(time.as_micros()) << 64) | u128::from(self.seq);
        self.seq += 1;
        let entry = Reverse(EventEntry { key, kind });
        if self.spent_top {
            self.spent_top = false;
            *self.heap.peek_mut().expect("the spent event is on top") = entry;
        } else {
            self.heap.push(entry);
        }
    }

    /// The earliest event at or before `deadline`, if any. It stays on
    /// top of the heap, spent, until the next `schedule` overwrites it
    /// or the next call pops it.
    fn next_due(&mut self, deadline: SimTime) -> Option<(SimTime, EventKind)> {
        if std::mem::take(&mut self.spent_top) {
            self.heap.pop();
        }
        let Reverse(head) = self.heap.peek()?;
        let time = SimTime::from_micros((head.key >> 64) as u64);
        if time > deadline {
            return None;
        }
        debug_assert!(head.key >= self.next_min_key, "event keys out of order");
        self.next_min_key = head.key + 1;
        self.spent_top = true;
        Some((time, head.kind.clone()))
    }
}

#[derive(Debug)]
struct Activity {
    trace_slot: usize,
    span_id: SpanId,
    parent: Option<(usize, usize)>,
    parent_span: Option<SpanId>,
    instance: InstanceId,
    service: ServiceId,
    rt: RequestTypeId,
    background: bool,
    arrived: SimTime,
    work_start: SimTime,
    stage: usize,
    pending_children: u32,
    calls: Vec<CallRecord>,
    live: bool,
}

#[derive(Debug, Default)]
struct TraceBuf {
    trace_id: TraceId,
    rt: RequestTypeId,
    started: SimTime,
    spans: Vec<SpanRecord>,
    open_activities: u32,
    root_response_at: Option<SimTime>,
    dropped: bool,
    live: bool,
}

#[derive(Debug, Default)]
struct ServiceRuntime {
    replicas: Vec<InstanceId>,
    /// Each replica's [`offer`], in `replicas` order, kept current by
    /// `Simulation::mutate_instance`: the replica choice reads this list
    /// instead of every replica's `Instance`.
    offers: Vec<Option<usize>>,
    rr_cursor: usize,
}

/// What the replica choice reads of an instance: its load, if it
/// accepts load.
fn offer(inst: &Instance) -> Option<usize> {
    inst.accepts_load().then(|| inst.load())
}

/// Builder for [`Simulation`].
pub struct SimulationBuilder {
    cluster: ClusterSpec,
    app: AppSpec,
    seed: u64,
    arrivals: Option<Box<dyn ArrivalProcess>>,
    record_arrivals: bool,
    record_spans: bool,
}

impl SimulationBuilder {
    /// Sets the arrival process (default: 100 req/s Poisson).
    pub fn arrivals(mut self, arrivals: Box<dyn ArrivalProcess>) -> Self {
        self.arrivals = Some(arrivals);
        self
    }

    /// Records every client arrival into [`Simulation::arrival_log`]
    /// (off by default: most runs never replay their load).
    pub fn record_arrivals(mut self, record: bool) -> Self {
        self.record_arrivals = record;
        self
    }

    /// Whether completed requests carry their [`SpanRecord`]s (on by
    /// default: FIRM's Extractor builds execution-history graphs from
    /// them). With `false` the run draws the same random numbers and
    /// processes the same events in the same order — identical
    /// latencies, [`RunStats`] and telemetry windows — but every
    /// [`CompletedRequest::spans`] is empty and no [`CallRecord`] is
    /// kept. For consumers that read end-to-end latency only: SLO
    /// calibration and the span-blind baseline controllers. A span-less
    /// request builds no execution-history graph, so never hand one to a
    /// trace store.
    pub fn record_spans(mut self, record: bool) -> Self {
        self.record_spans = record;
        self
    }

    /// Builds the simulation and places the initial replicas.
    ///
    /// # Panics
    ///
    /// Panics if the application spec fails validation.
    pub fn build(self) -> Simulation {
        let SimulationBuilder {
            cluster,
            app,
            seed,
            arrivals,
            record_arrivals,
            record_spans,
        } = self;
        app.validate().expect("invalid application spec");
        assert!(!cluster.nodes.is_empty(), "cluster must have nodes");

        let mut sim = Simulation {
            now: SimTime::ZERO,
            events: EventQueue::default(),
            rng: SimRng::new(seed),
            nodes: cluster.nodes.into_iter().map(Node::new).collect(),
            app,
            instances: Vec::new(),
            services: Vec::new(),
            arrivals: arrivals
                .unwrap_or_else(|| Box::new(crate::arrival::PoissonArrivals::new(100.0))),
            activities: Vec::new(),
            free_activities: Vec::new(),
            traces: Vec::new(),
            free_traces: Vec::new(),
            completed: Vec::new(),
            active_anomalies: Vec::new(),
            next_anomaly: 0,
            next_trace: 0,
            next_span: 0,
            load_multipliers: Vec::new(),
            stats: RunStats::default(),
            window_started: SimTime::ZERO,
            window_arrivals: 0,
            window_mix: Vec::new(),
            record_arrivals,
            record_spans,
            arrival_log: Vec::new(),
            rt_weights: Vec::new(),
            chunk_noise: Vec::new(),
            replica_pos: Vec::new(),
        };
        sim.window_mix = vec![0u64; sim.app.request_types.len()];
        sim.rt_weights = sim.app.request_types.iter().map(|r| r.weight).collect();
        sim.chunk_noise = sim
            .app
            .services
            .iter()
            .flat_map(|svc| &svc.behaviors)
            .map(|b| {
                let cv = b.as_ref().and_then(|b| b.demand).map_or(0.0, |d| d.cv);
                SimRng::lognormal_params(1.0, cv)
            })
            .collect();
        sim.services = (0..sim.app.services.len())
            .map(|_| ServiceRuntime::default())
            .collect();

        // Place the initial replicas round-robin across nodes.
        let mut node_cursor = 0usize;
        for sid in 0..sim.app.services.len() {
            let spec = sim.app.services[sid].clone();
            for _ in 0..spec.initial_replicas.max(1) {
                let node = NodeId(node_cursor as u16);
                node_cursor = (node_cursor + 1) % sim.nodes.len();
                sim.spawn_instance(
                    ServiceId(sid as u16),
                    node,
                    spec.initial_cpu,
                    InstanceState::Running,
                );
            }
        }

        // Seed the arrival stream and the sampling tick.
        let first = sim.next_arrival_gap();
        sim.events.schedule(sim.now + first, EventKind::Arrival);
        sim.events
            .schedule(sim.now + SAMPLE_PERIOD, EventKind::Sample);
        sim
    }
}

/// The discrete-event simulator.
pub struct Simulation {
    now: SimTime,
    events: EventQueue,
    rng: SimRng,
    nodes: Vec<Node>,
    app: AppSpec,
    instances: Vec<Instance>,
    services: Vec<ServiceRuntime>,
    arrivals: Box<dyn ArrivalProcess>,
    activities: Vec<Activity>,
    free_activities: Vec<usize>,
    traces: Vec<TraceBuf>,
    free_traces: Vec<usize>,
    completed: Vec<CompletedRequest>,
    active_anomalies: Vec<(AnomalyId, AnomalySpec, SimTime)>,
    next_anomaly: u32,
    next_trace: u64,
    next_span: u64,
    load_multipliers: Vec<(AnomalyId, f64)>,
    stats: RunStats,
    window_started: SimTime,
    window_arrivals: u64,
    window_mix: Vec<u64>,
    record_arrivals: bool,
    record_spans: bool,
    arrival_log: Vec<ArrivalRecord>,
    /// Request-type sampling weights, cached at build time (the mix is
    /// part of the immutable [`AppSpec`]) so each arrival avoids
    /// rebuilding the weight vector.
    rt_weights: Vec<f64>,
    /// Per-chunk service-time noise parameters, `services ×
    /// request_types` row-major: the `(mu, sigma)` of each behaviour's
    /// unit-mean log-normal depend only on its `cv`, so they are
    /// computed once here instead of on every compute chunk. `None`
    /// where the noise is the constant 1 (no demand, or `cv <= 0`).
    chunk_noise: Vec<Option<(f64, f64)>>,
    /// Each instance's position in its service's `replicas`.
    replica_pos: Vec<usize>,
}

impl Simulation {
    /// Starts building a simulation.
    pub fn builder(cluster: ClusterSpec, app: AppSpec, seed: u64) -> SimulationBuilder {
        SimulationBuilder {
            cluster,
            app,
            seed,
            arrivals: None,
            record_arrivals: false,
            record_spans: true,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The application under simulation.
    pub fn app(&self) -> &AppSpec {
        &self.app
    }

    /// Cumulative run statistics.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// The cluster nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All instances ever created (including removed slots).
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// One instance by id.
    pub fn instance(&self, id: InstanceId) -> &Instance {
        &self.instances[id.index()]
    }

    /// Live (non-removed) replicas of a service.
    pub fn replicas(&self, service: ServiceId) -> Vec<InstanceId> {
        self.services[service.index()]
            .replicas
            .iter()
            .copied()
            .filter(|id| self.instances[id.index()].state != InstanceState::Removed)
            .collect()
    }

    /// Sum of CPU quotas across live instances, in cores — the paper's
    /// "requested CPU limit" (Fig. 10b).
    pub fn total_requested_cpu(&self) -> f64 {
        self.instances
            .iter()
            .filter(|i| i.state == InstanceState::Running || i.state == InstanceState::Starting)
            .map(|i| i.cpu_limit())
            .sum()
    }

    /// Currently active anomaly injections (ground truth for training).
    pub fn active_anomalies(&self) -> &[(AnomalyId, AnomalySpec, SimTime)] {
        &self.active_anomalies
    }

    /// Every client arrival recorded so far (empty unless the simulation
    /// was built with [`SimulationBuilder::record_arrivals`]). In order
    /// of arrival time; feed it to a replay arrival process to re-run
    /// the load as a recorded incident.
    pub fn arrival_log(&self) -> &[ArrivalRecord] {
        &self.arrival_log
    }

    /// The current workload multiplier from workload-variation anomalies.
    pub fn load_multiplier(&self) -> f64 {
        self.load_multipliers.iter().map(|(_, m)| m).product()
    }

    /// Runs the simulation until `deadline` (inclusive of events at it).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some((time, kind)) = self.events.next_due(deadline) {
            debug_assert!(time >= self.now, "time went backwards");
            self.now = time;
            self.dispatch(kind);
        }
        self.now = self.now.max(deadline);
    }

    /// Runs the simulation for `d` from the current time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Takes all requests completed since the last drain.
    pub fn drain_completed(&mut self) -> Vec<CompletedRequest> {
        std::mem::take(&mut self.completed)
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Arrival => self.on_arrival(),
            EventKind::HopDeliver { act } => self.on_hop_deliver(act as usize),
            EventKind::ComputeDone { act } => self.on_compute_done(act as usize),
            EventKind::ResponseDeliver {
                parent_act,
                call_idx,
            } => self.on_response_deliver(parent_act as usize, call_idx as usize),
            EventKind::RootResponse { trace_slot } => self.on_root_response(trace_slot as usize),
            EventKind::AnomalyStart { id } => self.on_anomaly_start(id),
            EventKind::AnomalyEnd { id } => self.on_anomaly_end(id),
            EventKind::ActuationDone { cmd } => self.on_actuation_done(*cmd),
            EventKind::Sample => self.on_sample(),
        }
    }

    // ----- arrivals and request routing -------------------------------

    fn next_arrival_gap(&mut self) -> SimDuration {
        let gap = self.arrivals.next_interarrival(self.now, &mut self.rng);
        let mult = self.load_multiplier();
        if mult > 1.0 {
            gap.mul_f64(1.0 / mult)
        } else {
            gap
        }
    }

    fn on_arrival(&mut self) {
        let gap = self.next_arrival_gap();
        self.events.schedule(self.now + gap, EventKind::Arrival);

        let rt = RequestTypeId(self.rng.weighted_index(&self.rt_weights) as u16);
        self.stats.arrivals += 1;
        self.window_arrivals += 1;
        self.window_mix[rt.index()] += 1;
        if self.record_arrivals {
            self.arrival_log.push(ArrivalRecord {
                at: self.now,
                request_type: rt,
            });
        }

        let trace_id = TraceId(self.next_trace);
        self.next_trace += 1;
        let trace_slot = self.alloc_trace(trace_id, rt);

        let entry = self.app.request_types[rt.index()].entry;
        let act = slot(self.alloc_activity(trace_slot, None, None, entry, rt, false));
        let delay = CLIENT_RTT + self.entry_delay(entry);
        self.events
            .schedule(self.now + delay, EventKind::HopDeliver { act });
    }

    fn entry_delay(&mut self, service: ServiceId) -> SimDuration {
        // Injected network delay on whichever node hosts a replica of the
        // entry service (client traffic crosses its NIC).
        if let Some(&iid) = self.services[service.index()].replicas.first() {
            let node = self.instances[iid.index()].node;
            return self.sample_node_delay(node);
        }
        SimDuration::ZERO
    }

    fn sample_node_delay(&mut self, node: NodeId) -> SimDuration {
        let mean = self.nodes[node.index()].extra_delay_mean();
        if mean == SimDuration::ZERO {
            return SimDuration::ZERO;
        }
        let m = mean.as_micros() as f64;
        SimDuration::from_micros(self.rng.normal_at_least(m, m / 4.0, 0.0) as u64)
    }

    fn alloc_trace(&mut self, trace_id: TraceId, rt: RequestTypeId) -> usize {
        let buf = TraceBuf {
            trace_id,
            rt,
            started: self.now,
            // One up-front allocation instead of doubling through the
            // first few span pushes; 8 covers the built-in benchmarks'
            // common trace sizes.
            spans: if self.record_spans {
                Vec::with_capacity(8)
            } else {
                Vec::new()
            },
            open_activities: 0,
            root_response_at: None,
            dropped: false,
            live: true,
        };
        if let Some(slot) = self.free_traces.pop() {
            self.traces[slot] = buf;
            slot
        } else {
            self.traces.push(buf);
            self.traces.len() - 1
        }
    }

    fn alloc_activity(
        &mut self,
        trace_slot: usize,
        parent: Option<(usize, usize)>,
        parent_span: Option<SpanId>,
        service: ServiceId,
        rt: RequestTypeId,
        background: bool,
    ) -> usize {
        let span_id = SpanId(self.next_span);
        self.next_span += 1;
        self.traces[trace_slot].open_activities += 1;
        let instance = self.pick_replica(service);
        let act = Activity {
            trace_slot,
            span_id,
            parent,
            parent_span,
            instance: instance.unwrap_or(InstanceId(u32::MAX)),
            service,
            rt,
            background,
            arrived: self.now,
            work_start: self.now,
            stage: 0,
            pending_children: 0,
            calls: Vec::new(),
            live: true,
        };
        if let Some(slot) = self.free_activities.pop() {
            self.activities[slot] = act;
            slot
        } else {
            self.activities.push(act);
            self.activities.len() - 1
        }
    }

    fn free_activity(&mut self, idx: usize) {
        self.activities[idx].live = false;
        self.free_activities.push(idx);
    }

    /// Least-loaded replica of a service (ties broken round-robin).
    ///
    /// Scans the service's replica offers in place, from the cursor's
    /// accepting replica onward and wrapping round, skipping those that
    /// accept no load: the first replica of the lowest load wins. In
    /// debug builds the offers are checked against the instances.
    fn pick_replica(&mut self, service: ServiceId) -> Option<InstanceId> {
        let rt = &mut self.services[service.index()];
        debug_assert!(
            rt.replicas
                .iter()
                .zip(&rt.offers)
                .all(|(id, &o)| o == offer(&self.instances[id.index()])),
            "replica offers vs instances"
        );
        let live = rt.offers.iter().filter(|o| o.is_some()).count();
        if live == 0 {
            return None;
        }
        rt.rr_cursor = rt.rr_cursor.wrapping_add(1);
        let skip = rt.rr_cursor % live;
        let start = if live == rt.offers.len() {
            skip
        } else {
            let mut accepting_at = (0..rt.offers.len()).filter(|&i| rt.offers[i].is_some());
            accepting_at.nth(skip).expect("skip < live")
        };
        let (wrapped, from_start) = rt.offers.split_at(start);
        let mut best = start;
        let mut best_load = from_start[0].expect("the start replica accepts load");
        let mut consider = |i: usize, o: Option<usize>| {
            if let Some(load) = o {
                if load < best_load {
                    best = i;
                    best_load = load;
                }
            }
        };
        for (i, &o) in from_start.iter().enumerate().skip(1) {
            consider(start + i, o);
        }
        for (i, &o) in wrapped.iter().enumerate() {
            consider(i, o);
        }
        Some(rt.replicas[best])
    }

    // ----- activity lifecycle -----------------------------------------

    fn on_hop_deliver(&mut self, act_idx: usize) {
        if !self.activities[act_idx].live {
            return;
        }
        // Re-validate the chosen replica at delivery time.
        let service = self.activities[act_idx].service;
        let chosen = self.activities[act_idx].instance;
        let ok = chosen != InstanceId(u32::MAX) && self.instances[chosen.index()].accepts_load();
        let target = if ok {
            Some(chosen)
        } else {
            self.pick_replica(service)
        };
        let Some(iid) = target else {
            self.drop_activity(act_idx);
            return;
        };
        self.activities[act_idx].instance = iid;
        self.activities[act_idx].arrived = self.now;

        let inst = &mut self.instances[iid.index()];
        inst.window.arrivals += 1;
        if inst.free_workers() > 0 {
            self.mutate_instance(iid, |inst| inst.busy_workers += 1);
            self.begin_work(act_idx);
        } else if inst.queue.len() < inst.queue_cap {
            self.mutate_instance(iid, |inst| inst.queue.push_back(act_idx));
        } else {
            inst.window.drops += 1;
            self.drop_activity(act_idx);
        }
    }

    /// Applies `f` to instance `iid`, then folds what it changed into the
    /// node's contention aggregates and its service's replica offers.
    /// Every write to an instance's `busy_workers`, `queue`, `partitions`
    /// or `state` goes through here, so rate queries never have to walk
    /// the node's peers, nor the replica choice the service's instances.
    fn mutate_instance<R>(&mut self, iid: InstanceId, f: impl FnOnce(&mut Instance) -> R) -> R {
        let inst = &mut self.instances[iid.index()];
        let (weight_before, reserved_before) = contention::footprint(inst);
        let out = f(inst);
        let (weight, reserved) = contention::footprint(inst);
        let node = &mut self.nodes[inst.node.index()];
        node.reweigh(weight_before, weight);
        if reserved != reserved_before {
            node.set_reserved(iid, reserved);
        }
        self.services[inst.service.index()].offers[self.replica_pos[iid.index()]] = offer(inst);
        out
    }

    fn begin_work(&mut self, act_idx: usize) {
        self.activities[act_idx].work_start = self.now;
        self.activities[act_idx].stage = 0;
        self.start_chunk(act_idx);
    }

    /// Computes the duration of the current compute chunk and schedules
    /// its completion.
    fn start_chunk(&mut self, act_idx: usize) {
        let (iid, service, rt) = {
            let a = &self.activities[act_idx];
            (a.instance, a.service, a.rt)
        };
        let behavior = self
            .app
            .behavior(service, rt)
            .expect("activity without behaviour");
        let nstages = behavior.stages.len();
        let demand = behavior.demand;
        let chunk_frac = 1.0 / (nstages as f64 + 1.0);

        let dur = if let Some(d) = demand {
            let inst = &self.instances[iid.index()];
            let node = &self.nodes[inst.node.index()];
            let rates = contention::effective_rates(
                node,
                &self.instances,
                inst,
                d.llc_ws_mb,
                d.llc_sensitivity,
            );

            // LLC misses stall the pipeline: compute time inflates with
            // the same miss factor as DRAM traffic.
            let cpu_t = d.cpu_us * chunk_frac * rates.mem_inflation / rates.cpu_per_worker;
            let mem_mb = d.mem_mb * chunk_frac * rates.mem_inflation;
            let mem_t = mem_mb / rates.mem_mbps * 1e6;
            let io_t = d.io_mb * chunk_frac / rates.io_mbps * 1e6;
            let request_types = self.app.request_types.len();
            let noise_params = self.chunk_noise[service.index() * request_types + rt.index()];
            let mut noise = noise_params.map_or(1.0, |p| self.rng.lognormal(p));
            // In-container stressors fluctuate (iBench/pmbw phases), so
            // the victim's slowdown wobbles — the latency-variance
            // signature Algorithm 2's features are built to detect.
            let stressed: f64 = self.instances[iid.index()].stress.iter().sum();
            if stressed > 0.0 {
                noise *= self.rng.lognormal_mean_cv(1.0, (stressed * 0.8).min(1.2));
            }
            let dur_us = (cpu_t + mem_t + io_t) * noise;

            let inst = &mut self.instances[iid.index()];
            inst.window.cpu_core_us += d.cpu_us * chunk_frac;
            inst.window.mem_mb += mem_mb;
            inst.window.io_mb += d.io_mb * chunk_frac;
            inst.window.llc_share_sum += rates.llc_mb;
            inst.window.inflation_sum += rates.mem_inflation;
            inst.window.chunks += 1;

            SimDuration::from_micros(dur_us.max(1.0) as u64)
        } else {
            SimDuration::from_micros(1)
        };

        let act = slot(act_idx);
        self.events
            .schedule(self.now + dur, EventKind::ComputeDone { act });
    }

    fn on_compute_done(&mut self, act_idx: usize) {
        if !self.activities[act_idx].live {
            return;
        }
        let (service, rt, stage) = {
            let a = &self.activities[act_idx];
            (a.service, a.rt, a.stage)
        };
        let nstages = self
            .app
            .behavior(service, rt)
            .map(|b| b.stages.len())
            .unwrap_or(0);

        if stage < nstages {
            let pending = self.fire_stage_calls(act_idx, service, rt, stage);
            if pending == 0 {
                self.activities[act_idx].stage += 1;
                self.start_chunk(act_idx);
            } else {
                self.activities[act_idx].pending_children = pending;
            }
        } else {
            self.complete_activity(act_idx, false);
        }
    }

    /// Issues the calls of one behaviour stage; returns the number of
    /// synchronous children the caller must wait for. Calls are fetched
    /// by index from the (immutable) application spec — `Call` is
    /// `Copy` — so no per-stage call list is cloned on the hot path.
    fn fire_stage_calls(
        &mut self,
        act_idx: usize,
        service: ServiceId,
        rt: RequestTypeId,
        stage: usize,
    ) -> u32 {
        let (trace_slot, my_span, my_instance) = {
            let a = &self.activities[act_idx];
            (a.trace_slot, a.span_id, a.instance)
        };
        let ncalls = self
            .app
            .behavior(service, rt)
            .expect("checked by caller")
            .stages[stage]
            .calls
            .len();
        let src_node = self.instances[my_instance.index()].node;
        if self.record_spans {
            self.activities[act_idx].calls.reserve(ncalls);
        }
        let mut pending = 0u32;
        for ci in 0..ncalls {
            let call = self
                .app
                .behavior(service, rt)
                .expect("checked by caller")
                .stages[stage]
                .calls[ci];
            let child = self.alloc_activity(
                trace_slot,
                if call.background {
                    None
                } else {
                    Some((act_idx, self.activities[act_idx].calls.len()))
                },
                Some(my_span),
                call.target,
                rt,
                call.background,
            );
            if self.record_spans {
                let child_span = self.activities[child].span_id;
                self.activities[act_idx].calls.push(CallRecord {
                    child_span,
                    target: call.target,
                    sent: self.now,
                    returned: None,
                    background: call.background,
                });
            }
            if !call.background {
                pending += 1;
            }
            let dst = self.activities[child].instance;
            let transfer = self.transfer_time(call.req_kb, src_node, dst);
            let act = slot(child);
            self.events
                .schedule(self.now + transfer, EventKind::HopDeliver { act });
        }
        pending
    }

    /// Network transfer time for `kb` from `src_node` to the node of
    /// `dst` (if it resolves), including injected delays.
    fn transfer_time(&mut self, kb: f64, src_node: NodeId, dst: InstanceId) -> SimDuration {
        let mut t = BASE_RTT;
        t += self.sample_node_delay(src_node);
        let dst_node = if dst != InstanceId(u32::MAX) {
            Some(self.instances[dst.index()].node)
        } else {
            None
        };
        if let Some(dn) = dst_node {
            if dn != src_node {
                t += self.sample_node_delay(dn);
            }
            let rate = self.net_rate_between(src_node, dn, dst);
            let mb = kb / 1024.0;
            t += SimDuration::from_micros((mb / rate * 1e6).max(0.0) as u64);
            // Account network bytes to the sender-side instance window.
            if let Some(&first) = self.nodes[src_node.index()].instances.first() {
                self.instances[first.index()].window.net_mb += mb;
            }
        }
        t
    }

    fn net_rate_between(&self, src: NodeId, dst: NodeId, dst_inst: InstanceId) -> f64 {
        if src == dst {
            // Loopback: far faster than the NIC.
            return 20_000.0;
        }
        let node = &self.nodes[dst.index()];
        let inst = &self.instances[dst_inst.index()];
        contention::effective_rate(node, &self.instances, inst, ResourceKind::NetBw).max(1.0)
    }

    fn complete_activity(&mut self, act_idx: usize, dropped: bool) {
        let (iid, trace_slot, parent, resp_kb) = {
            let a = &self.activities[act_idx];
            let resp = self
                .app
                .behavior(a.service, a.rt)
                .and_then(|b| b.demand)
                .map(|d| d.resp_kb)
                .unwrap_or(1.0);
            (a.instance, a.trace_slot, a.parent, resp)
        };

        if self.record_spans {
            self.emit_span(act_idx, dropped);
        }

        // Free the worker and admit queued work.
        if iid != InstanceId(u32::MAX) && !dropped {
            let span_latency = (self.now - self.activities[act_idx].arrived).as_micros();
            let next = self.mutate_instance(iid, |inst| {
                inst.window.completions += 1;
                inst.window.latency_sum_us += span_latency;
                inst.busy_workers = inst.busy_workers.saturating_sub(1);
                let next = inst.queue.pop_front();
                if next.is_some() {
                    inst.busy_workers += 1;
                }
                next
            });
            if let Some(next) = next {
                self.begin_work(next);
            }
            self.maybe_finish_draining(iid);
        }

        // Deliver the response.
        let is_background = self.activities[act_idx].background;
        if let Some((p_act, call_idx)) = parent {
            let src_node = if iid != InstanceId(u32::MAX) {
                self.instances[iid.index()].node
            } else {
                NodeId(0)
            };
            let p_inst = self.activities[p_act].instance;
            let transfer = if dropped {
                BASE_RTT
            } else {
                self.transfer_time(resp_kb, src_node, p_inst)
            };
            self.events.schedule(
                self.now + transfer,
                EventKind::ResponseDeliver {
                    parent_act: slot(p_act),
                    call_idx: slot(call_idx),
                },
            );
        } else if !is_background {
            // Root span: response to the client.
            let transfer = CLIENT_RTT;
            let trace_slot = slot(trace_slot);
            self.events
                .schedule(self.now + transfer, EventKind::RootResponse { trace_slot });
        }

        self.close_activity(act_idx);
    }

    fn drop_activity(&mut self, act_idx: usize) {
        self.traces[self.activities[act_idx].trace_slot].dropped = true;
        self.complete_activity(act_idx, true);
    }

    fn emit_span(&mut self, act_idx: usize, dropped: bool) {
        // The activity is finished: its call records *move* into the
        // span (the buffer travels on through the trace store) instead
        // of being cloned and dropped.
        let a = &mut self.activities[act_idx];
        let calls = std::mem::take(&mut a.calls);
        let span = SpanRecord {
            trace_id: self.traces[a.trace_slot].trace_id,
            span_id: a.span_id,
            parent: a.parent_span,
            service: a.service,
            instance: a.instance,
            request_type: a.rt,
            start: a.arrived,
            end: self.now,
            work_start: a.work_start,
            background: a.background,
            dropped,
            calls,
        };
        self.traces[a.trace_slot].spans.push(span);
    }

    fn close_activity(&mut self, act_idx: usize) {
        let trace_slot = self.activities[act_idx].trace_slot;
        self.traces[trace_slot].open_activities -= 1;
        self.free_activity(act_idx);
        self.try_finalize_trace(trace_slot);
    }

    fn on_response_deliver(&mut self, parent_act: usize, call_idx: usize) {
        if !self.activities[parent_act].live {
            return;
        }
        // `call_idx` indexes the parent's call records, which exist only
        // when spans are recorded.
        if self.record_spans {
            self.activities[parent_act].calls[call_idx].returned = Some(self.now);
        }
        let a = &mut self.activities[parent_act];
        a.pending_children = a.pending_children.saturating_sub(1);
        if a.pending_children == 0 {
            a.stage += 1;
            self.start_chunk(parent_act);
        }
    }

    fn on_root_response(&mut self, trace_slot: usize) {
        if !self.traces[trace_slot].live {
            return;
        }
        self.traces[trace_slot].root_response_at = Some(self.now);
        self.try_finalize_trace(trace_slot);
    }

    fn try_finalize_trace(&mut self, trace_slot: usize) {
        let buf = &mut self.traces[trace_slot];
        let Some(finished) = buf.root_response_at else {
            return;
        };
        if !buf.live || buf.open_activities > 0 {
            return;
        }
        let completed = CompletedRequest {
            trace_id: buf.trace_id,
            request_type: buf.rt,
            started: buf.started,
            finished,
            latency: finished - buf.started,
            dropped: buf.dropped,
            spans: std::mem::take(&mut buf.spans),
        };
        buf.live = false;
        self.free_traces.push(trace_slot);
        self.completed.push(completed);
    }

    // ----- anomalies ----------------------------------------------------

    /// Injects an anomaly now; returns its id. The anomaly ends after its
    /// duration.
    pub fn inject(&mut self, spec: AnomalySpec) -> AnomalyId {
        self.inject_at(spec, self.now)
    }

    /// Injects an anomaly at a future time.
    pub fn inject_at(&mut self, spec: AnomalySpec, at: SimTime) -> AnomalyId {
        let id = AnomalyId(self.next_anomaly);
        self.next_anomaly += 1;
        let at = at.max(self.now);
        // Container-level injections resolve their node now, so ground
        // truth and node spillover agree.
        let mut spec = spec;
        if let Some(target) = spec.target_instance {
            if target.index() < self.instances.len() {
                spec.node = self.instances[target.index()].node;
            } else {
                spec.target_instance = None;
            }
        }
        self.active_anomalies.push((id, spec, at));
        self.events.schedule(at, EventKind::AnomalyStart { id });
        self.events
            .schedule(at + spec.duration, EventKind::AnomalyEnd { id });
        id
    }

    fn on_anomaly_start(&mut self, id: AnomalyId) {
        let Some(&(_, spec, _)) = self.active_anomalies.iter().find(|(a, _, _)| *a == id) else {
            return;
        };
        let node_idx = spec.node.index().min(self.nodes.len() - 1);
        match spec.kind {
            AnomalyKind::WorkloadVariation => {
                self.load_multipliers.push((id, spec.workload_multiplier()));
            }
            AnomalyKind::NetworkDelay => {
                self.nodes[node_idx].delays.push(ActiveDelay {
                    anomaly: id,
                    mean: spec.network_delay_mean(),
                });
            }
            _ => {
                if let Some(resource) = spec.kind.contended_resource() {
                    match spec.target_instance {
                        // Container-level: direct stress on the target,
                        // half-intensity spillover onto the node pool.
                        Some(target) if target.index() < self.instances.len() => {
                            self.instances[target.index()].stress[resource.index()] +=
                                spec.intensity;
                            // An LLC stressor also saturates the victim's
                            // LLC *bandwidth*, which manifests on its
                            // memory path (Table 5 bundles both).
                            if spec.kind == AnomalyKind::LlcStress {
                                self.instances[target.index()].stress
                                    [ResourceKind::MemBw.index()] += spec.intensity * 0.7;
                            }
                            self.nodes[node_idx].add_contender(ActiveContender {
                                anomaly: id,
                                resource,
                                intensity: spec.intensity * 0.5,
                            });
                        }
                        _ => {
                            self.nodes[node_idx].add_contender(ActiveContender {
                                anomaly: id,
                                resource,
                                intensity: spec.intensity,
                            });
                        }
                    }
                }
            }
        }
    }

    fn on_anomaly_end(&mut self, id: AnomalyId) {
        // Undo direct container stress, if any.
        if let Some(&(_, spec, _)) = self.active_anomalies.iter().find(|(a, _, _)| *a == id) {
            if let (Some(target), Some(resource)) =
                (spec.target_instance, spec.kind.contended_resource())
            {
                if target.index() < self.instances.len() {
                    let s = &mut self.instances[target.index()].stress[resource.index()];
                    *s = (*s - spec.intensity).max(0.0);
                    if spec.kind == AnomalyKind::LlcStress {
                        let m =
                            &mut self.instances[target.index()].stress[ResourceKind::MemBw.index()];
                        *m = (*m - spec.intensity * 0.7).max(0.0);
                    }
                }
            }
        }
        self.load_multipliers.retain(|(a, _)| *a != id);
        for node in &mut self.nodes {
            node.remove_anomaly(id);
        }
        self.active_anomalies.retain(|(a, _, _)| *a != id);
    }

    // ----- actuation ------------------------------------------------------

    /// Applies a command after its Table 6 actuation latency; returns the
    /// sampled latency.
    pub fn apply(&mut self, cmd: Command) -> SimDuration {
        let latency = cmd.latency().sample(&mut self.rng);
        if let Command::ScaleOut { service, .. } = cmd {
            // The container starts now and becomes ready after the start
            // latency.
            let node = self.pick_node_for(service);
            let template = self.template_limits(service);
            let iid = self.spawn_instance(service, node, template, InstanceState::Starting);
            // Copy non-CPU partitions from an existing replica.
            if let Some(&src) = self.services[service.index()]
                .replicas
                .iter()
                .find(|id| self.instances[id.index()].state == InstanceState::Running)
            {
                let template = self.instances[src.index()].partitions;
                self.mutate_instance(iid, |inst| {
                    for kind in RESOURCE_KINDS {
                        if kind != ResourceKind::Cpu {
                            inst.set_partition(kind, template[kind.index()]);
                        }
                    }
                });
            }
        }
        let cmd = Box::new(cmd);
        self.events
            .schedule(self.now + latency, EventKind::ActuationDone { cmd });
        latency
    }

    fn template_limits(&self, service: ServiceId) -> f64 {
        self.services[service.index()]
            .replicas
            .iter()
            .filter(|id| self.instances[id.index()].state == InstanceState::Running)
            .map(|id| self.instances[id.index()].cpu_limit())
            .next()
            .unwrap_or(self.app.services[service.index()].initial_cpu)
    }

    /// The node with the most free (unallocated) CPU.
    fn pick_node_for(&self, _service: ServiceId) -> NodeId {
        let mut best = NodeId(0);
        let mut best_free = f64::MIN;
        for (ni, node) in self.nodes.iter().enumerate() {
            let allocated: f64 = node
                .instances
                .iter()
                .map(|id| &self.instances[id.index()])
                .filter(|i| i.state != InstanceState::Removed)
                .map(|i| i.cpu_limit())
                .sum();
            let free = node.capacity(ResourceKind::Cpu) - allocated;
            if free > best_free {
                best_free = free;
                best = NodeId(ni as u16);
            }
        }
        best
    }

    fn spawn_instance(
        &mut self,
        service: ServiceId,
        node: NodeId,
        cpu: f64,
        state: InstanceState,
    ) -> InstanceId {
        let spec = &self.app.services[service.index()];
        let inst = Instance::new(service, node, cpu, spec.max_threads, spec.queue_cap, state);
        let id = InstanceId(self.instances.len() as u32);
        let rt = &mut self.services[service.index()];
        self.replica_pos.push(rt.replicas.len());
        rt.replicas.push(id);
        rt.offers.push(offer(&inst));
        self.instances.push(inst);
        self.nodes[node.index()].instances.push(id);
        id
    }

    fn on_actuation_done(&mut self, cmd: Command) {
        match cmd {
            Command::SetPartition {
                instance,
                kind,
                amount,
            } => {
                if instance.index() >= self.instances.len() {
                    return;
                }
                let node = self.instances[instance.index()].node;
                let cap = self.nodes[node.index()].capacity(kind);
                let amount = amount.clamp(cap * 0.001, cap);
                self.mutate_instance(instance, |inst| inst.set_partition(kind, Some(amount)));
            }
            Command::ClearPartition { instance, kind } => {
                // The CPU quota is structural (it defines the worker pool);
                // it can be resized but not removed.
                if kind != ResourceKind::Cpu && instance.index() < self.instances.len() {
                    self.mutate_instance(instance, |inst| inst.set_partition(kind, None));
                }
            }
            Command::ScaleOut { service, .. } => {
                // Flip the newest starting replica to running.
                if let Some(&iid) = self.services[service.index()]
                    .replicas
                    .iter()
                    .rev()
                    .find(|id| self.instances[id.index()].state == InstanceState::Starting)
                {
                    self.mutate_instance(iid, |inst| inst.state = InstanceState::Running);
                }
            }
            Command::ScaleIn { service } => {
                let live = self.replicas(service);
                if live.len() <= 1 {
                    return;
                }
                // Drain the least-loaded replica.
                let victim = *live
                    .iter()
                    .min_by_key(|id| self.instances[id.index()].load())
                    .expect("non-empty");
                self.mutate_instance(victim, |inst| inst.state = InstanceState::Draining);
                self.maybe_finish_draining(victim);
            }
        }
    }

    fn maybe_finish_draining(&mut self, iid: InstanceId) {
        let inst = &self.instances[iid.index()];
        if inst.state == InstanceState::Draining && inst.busy_workers == 0 && inst.queue.is_empty()
        {
            self.mutate_instance(iid, |inst| inst.state = InstanceState::Removed);
        }
    }

    // ----- telemetry ------------------------------------------------------

    fn on_sample(&mut self) {
        self.events
            .schedule(self.now + SAMPLE_PERIOD, EventKind::Sample);
        for inst in &mut self.instances {
            if inst.state != InstanceState::Removed {
                inst.window.queue_len_sum += inst.queue.len() as u64;
                inst.window.queue_samples += 1;
            }
        }
    }

    /// Drains the telemetry window accumulated since the previous drain,
    /// resetting the accumulators.
    pub fn drain_telemetry(&mut self) -> TelemetryWindow {
        let window = self.now - self.window_started;
        let window_s = window.as_secs_f64().max(1e-9);
        let window_us = window.as_micros().max(1) as f64;

        let mut out = TelemetryWindow {
            instances: Vec::new(),
            arrival_rate: self.window_arrivals as f64 / window_s,
            request_mix: {
                let total: u64 = self.window_mix.iter().sum();
                self.window_mix
                    .iter()
                    .map(|&c| {
                        if total == 0 {
                            0.0
                        } else {
                            c as f64 / total as f64
                        }
                    })
                    .collect()
            },
        };

        for (ii, inst) in self.instances.iter_mut().enumerate() {
            if inst.state == InstanceState::Removed {
                inst.window.clear();
                continue;
            }
            let node_cap = self.nodes[inst.node.index()].spec.capacity;
            let rlt = inst.rlt(&node_cap);
            let usage = ResourceVec::new(
                inst.window.cpu_core_us / window_us,
                inst.window.mem_mb / window_s,
                inst.window.avg_llc_share(),
                inst.window.io_mb / window_s,
                inst.window.net_mb / window_s,
            );
            let mut utilization = ResourceVec::ZERO;
            for kind in RESOURCE_KINDS {
                let lim = rlt.get(kind).max(1e-9);
                utilization.set(kind, (usage.get(kind) / lim).clamp(0.0, 1.0));
            }

            let w = &inst.window;
            out.instances.push(InstanceSnapshot {
                window,
                instance: InstanceId(ii as u32),
                service: inst.service,
                state: inst.state,
                rlt,
                usage,
                utilization,
                workers: inst.workers(),
                avg_queue_len: w.avg_queue_len(),
                arrivals: w.arrivals,
                drops: w.drops,
                mean_latency_us: if w.completions == 0 {
                    0.0
                } else {
                    w.latency_sum_us as f64 / w.completions as f64
                },
                mem_inflation: w.avg_inflation(),
                per_core_dram_mbps: usage.get(ResourceKind::MemBw) / inst.cpu_limit().max(0.1),
            });
            inst.window.clear();
        }

        self.window_started = self.now;
        self.window_arrivals = 0;
        self.window_mix.iter_mut().for_each(|c| *c = 0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ConstantArrivals;
    use crate::spec::AppSpec;

    fn demo_sim(seed: u64) -> Simulation {
        Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), seed)
            .arrivals(Box::new(ConstantArrivals::new(200.0)))
            .build()
    }

    #[test]
    fn simulation_is_send() {
        // Fleet runtimes move whole simulations (and their builders)
        // onto worker threads; a regression here breaks `firm-fleet`.
        fn assert_send<T: Send>() {}
        assert_send::<Simulation>();
        assert_send::<SimulationBuilder>();
    }

    #[test]
    fn requests_flow_end_to_end() {
        let mut sim = demo_sim(1);
        sim.run_for(SimDuration::from_secs(2));
        let done = sim.drain_completed();
        assert!(done.len() > 300, "only {} completed", done.len());
        let dropped = done.iter().filter(|r| r.dropped).count();
        assert_eq!(dropped, 0, "unexpected drops in light load");
        for r in &done {
            assert!(r.latency > SimDuration::ZERO);
            assert!(r.root_span().is_some());
            // Three-tier demo: frontend + logic-a + logic-b + store + logger.
            assert_eq!(r.spans.len(), 5, "trace had {} spans", r.spans.len());
        }
    }

    #[test]
    fn trace_structure_is_consistent() {
        let mut sim = demo_sim(2);
        sim.run_for(SimDuration::from_secs(1));
        let done = sim.drain_completed();
        let r = &done[done.len() / 2];
        let root = r.root_span().unwrap();
        assert_eq!(root.calls.len(), 3);
        let background: Vec<_> = r.spans.iter().filter(|s| s.background).collect();
        assert_eq!(background.len(), 1);
        // Parent links resolve within the trace.
        for s in &r.spans {
            if let Some(p) = s.parent {
                assert!(r.spans.iter().any(|o| o.span_id == p));
            }
        }
        // Synchronous calls returned.
        for c in &root.calls {
            if !c.background {
                assert!(c.returned.is_some());
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed: u64| {
            let mut sim = demo_sim(seed);
            sim.run_for(SimDuration::from_secs(2));
            let done = sim.drain_completed();
            let lat: Vec<u64> = done.iter().map(|r| r.latency.as_micros()).collect();
            (sim.stats().arrivals, lat)
        };
        let (a1, l1) = run(7);
        let (a2, l2) = run(7);
        assert_eq!(a1, a2);
        assert_eq!(l1, l2);
        let (_, l3) = run(8);
        assert_ne!(l1, l3);
    }

    #[test]
    fn anomaly_inflates_latency_and_recovers() {
        let mut sim = demo_sim(3);
        sim.run_for(SimDuration::from_secs(2));
        let baseline: Vec<u64> = sim
            .drain_completed()
            .iter()
            .filter(|r| !r.dropped)
            .map(|r| r.latency.as_micros())
            .collect();

        // Memory-bandwidth stress on node 0 (frontend and friends).
        sim.inject(AnomalySpec::new(
            AnomalyKind::MemBwStress,
            NodeId(0),
            0.95,
            SimDuration::from_secs(2),
        ));
        sim.run_for(SimDuration::from_secs(2));
        let stressed: Vec<u64> = sim
            .drain_completed()
            .iter()
            .filter(|r| !r.dropped)
            .map(|r| r.latency.as_micros())
            .collect();

        sim.run_for(SimDuration::from_secs(2));
        let recovered: Vec<u64> = sim
            .drain_completed()
            .iter()
            .filter(|r| !r.dropped)
            .map(|r| r.latency.as_micros())
            .collect();

        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
        assert!(
            mean(&stressed) > mean(&baseline) * 1.3,
            "baseline {} stressed {}",
            mean(&baseline),
            mean(&stressed)
        );
        assert!(
            mean(&recovered) < mean(&stressed),
            "stressed {} recovered {}",
            mean(&stressed),
            mean(&recovered)
        );
    }

    #[test]
    fn workload_anomaly_scales_arrivals() {
        let mut sim = demo_sim(4);
        sim.run_for(SimDuration::from_secs(2));
        let before = sim.stats().arrivals;
        sim.inject(AnomalySpec::new(
            AnomalyKind::WorkloadVariation,
            NodeId(0),
            1.0,
            SimDuration::from_secs(2),
        ));
        sim.run_for(SimDuration::from_secs(2));
        let during = sim.stats().arrivals - before;
        assert!(
            during as f64 > before as f64 * 2.0,
            "before {before} during {during}"
        );
    }

    #[test]
    fn scale_out_becomes_ready_after_latency() {
        let mut sim = demo_sim(5);
        let svc = sim.app().service_by_name("logic-a").unwrap();
        assert_eq!(sim.replicas(svc).len(), 1);
        sim.apply(Command::ScaleOut {
            service: svc,
            warm: true,
        });
        // Before the warm-start latency the replica is not Running.
        let starting = sim
            .replicas(svc)
            .iter()
            .filter(|id| sim.instance(**id).state == InstanceState::Starting)
            .count();
        assert_eq!(starting, 1);
        sim.run_for(SimDuration::from_millis(200));
        let running = sim
            .replicas(svc)
            .iter()
            .filter(|id| sim.instance(**id).state == InstanceState::Running)
            .count();
        assert_eq!(running, 2);
    }

    #[test]
    fn scale_in_drains_to_removal() {
        let mut sim = demo_sim(6);
        let svc = sim.app().service_by_name("logic-a").unwrap();
        sim.apply(Command::ScaleOut {
            service: svc,
            warm: true,
        });
        sim.run_for(SimDuration::from_millis(500));
        assert_eq!(sim.replicas(svc).len(), 2);
        sim.apply(Command::ScaleIn { service: svc });
        sim.run_for(SimDuration::from_millis(500));
        assert_eq!(sim.replicas(svc).len(), 1);
    }

    #[test]
    fn scale_in_never_removes_last_replica() {
        let mut sim = demo_sim(7);
        let svc = sim.app().service_by_name("store").unwrap();
        sim.apply(Command::ScaleIn { service: svc });
        sim.run_for(SimDuration::from_millis(200));
        assert_eq!(sim.replicas(svc).len(), 1);
    }

    #[test]
    fn set_partition_takes_effect_after_latency() {
        let mut sim = demo_sim(8);
        let iid = InstanceId(0);
        sim.apply(Command::SetPartition {
            instance: iid,
            kind: ResourceKind::MemBw,
            amount: 4_000.0,
        });
        assert_eq!(sim.instance(iid).partition(ResourceKind::MemBw), None);
        sim.run_for(SimDuration::from_millis(200));
        assert_eq!(
            sim.instance(iid).partition(ResourceKind::MemBw),
            Some(4_000.0)
        );
        sim.apply(Command::ClearPartition {
            instance: iid,
            kind: ResourceKind::MemBw,
        });
        sim.run_for(SimDuration::from_millis(200));
        assert_eq!(sim.instance(iid).partition(ResourceKind::MemBw), None);
    }

    #[test]
    fn partition_amount_clamped_to_capacity() {
        let mut sim = demo_sim(9);
        let iid = InstanceId(0);
        sim.apply(Command::SetPartition {
            instance: iid,
            kind: ResourceKind::MemBw,
            amount: 1e9,
        });
        sim.run_for(SimDuration::from_millis(200));
        let p = sim.instance(iid).partition(ResourceKind::MemBw).unwrap();
        assert!(p <= 25_600.0 + 1e-9);
    }

    #[test]
    fn telemetry_windows_report_usage() {
        let mut sim = demo_sim(10);
        sim.run_for(SimDuration::from_secs(1));
        let t = sim.drain_telemetry();
        assert!(!t.instances.is_empty());
        assert!(
            (t.arrival_rate - 200.0).abs() < 30.0,
            "rate {}",
            t.arrival_rate
        );
        assert!((t.request_mix.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let frontend = &t.instances[0];
        assert!(frontend.arrivals > 0);
        assert!(frontend.usage.get(ResourceKind::Cpu) > 0.0);
        assert!(frontend.utilization.get(ResourceKind::Cpu) <= 1.0);
        // Second drain starts a fresh window.
        sim.run_for(SimDuration::from_secs(1));
        let t2 = sim.drain_telemetry();
        assert!(t2.instances[0].arrivals > 0);
    }

    #[test]
    fn llc_stress_raises_mem_inflation() {
        // logic-b (mem-bound, on node 0) is the victim: its synthetic
        // LLC-miss signal must rise between two drained windows.
        let victim = InstanceId(2);
        let inflation = |t: &TelemetryWindow| {
            let snap = t.instances.iter().find(|s| s.instance == victim);
            snap.expect("victim exists").mem_inflation
        };
        let mut sim = demo_sim(17);
        sim.run_for(SimDuration::from_secs(1));
        let before = inflation(&sim.drain_telemetry());
        sim.inject(AnomalySpec::new(
            AnomalyKind::LlcStress,
            NodeId(0),
            0.95,
            SimDuration::from_secs(2),
        ));
        sim.run_for(SimDuration::from_secs(2));
        let after = inflation(&sim.drain_telemetry());
        assert!(after > before, "before={before} after={after}");
    }

    #[test]
    fn cpu_quota_squeeze_causes_queueing() {
        let mut sim = demo_sim(11);
        sim.run_for(SimDuration::from_secs(1));
        sim.drain_completed();
        // Squeeze the frontend to a tiny quota: one worker at 0.05 cores
        // serves ~150 req/s of this workload, below the 200 req/s offered.
        sim.apply(Command::SetPartition {
            instance: InstanceId(0),
            kind: ResourceKind::Cpu,
            amount: 0.05,
        });
        sim.run_for(SimDuration::from_secs(4));
        let done = sim.drain_completed();
        let p99 = {
            let mut v: Vec<u64> = done
                .iter()
                .filter(|r| !r.dropped)
                .map(|r| r.latency.as_micros())
                .collect();
            v.sort_unstable();
            v[(v.len() as f64 * 0.99) as usize - 1]
        };
        assert!(p99 > 20_000, "p99 was {p99}us");
    }

    #[test]
    fn run_stats_accumulate() {
        let mut sim = demo_sim(12);
        sim.run_for(SimDuration::from_secs(2));
        assert!(sim.stats().arrivals > 300);
        assert!(sim.drain_completed().len() > 300);
    }

    #[test]
    fn total_requested_cpu_tracks_quotas() {
        let sim = demo_sim(13);
        let total = sim.total_requested_cpu();
        // 4.0 (frontend) + 2 + 2 + 2 + 2 from the demo defaults.
        assert!((total - 12.0).abs() < 1e-9, "total {total}");
    }

    #[test]
    fn arrival_log_records_every_arrival_when_enabled() {
        let mut sim = Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), 15)
            .arrivals(Box::new(ConstantArrivals::new(200.0)))
            .record_arrivals(true)
            .build();
        sim.run_for(SimDuration::from_secs(2));
        let log = sim.arrival_log();
        assert_eq!(log.len() as u64, sim.stats().arrivals);
        assert!(log.windows(2).all(|w| w[0].at <= w[1].at), "log unsorted");

        // Off by default.
        let mut quiet = demo_sim(15);
        quiet.run_for(SimDuration::from_secs(1));
        assert!(quiet.arrival_log().is_empty());
    }

    #[test]
    fn event_entry_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Reverse<EventEntry>>(), 32);
    }

    /// Schedules an event at `at` µs in both the queue and the plain
    /// reference heap; the event carries its expected `seq` as its slot.
    fn schedule_both(
        queue: &mut EventQueue,
        reference: &mut BinaryHeap<Reverse<(u64, u64)>>,
        next_seq: &mut u64,
        at: u64,
    ) {
        let act = *next_seq as u32;
        queue.schedule(SimTime::from_micros(at), EventKind::HopDeliver { act });
        reference.push(Reverse((at, *next_seq)));
        *next_seq += 1;
    }

    /// The event-order oracle: the queue dispatches in the order of a
    /// plain heap of `(time, seq)` pairs, under a seeded random walk.
    /// Each dispatch's handler schedules zero to two events at equal or
    /// nearby times (so the spent top is overwritten, or popped when
    /// nothing is scheduled), and events are also scheduled between
    /// deadlines, as `apply` and `inject` do.
    #[test]
    fn event_queue_matches_reference_heap() {
        let (mut dispatched, mut ties, mut popped) = (0u64, 0u64, 0u64);
        for seed in 0..4 {
            let mut rng = SimRng::new(seed ^ 0xE7E27);
            let mut queue = EventQueue::default();
            let mut reference = BinaryHeap::new();
            let mut next_seq = 0u64;
            let mut now = 0u64;
            for _ in 0..300 {
                for _ in 0..rng.index(4) {
                    let at = now + rng.index(50) as u64;
                    schedule_both(&mut queue, &mut reference, &mut next_seq, at);
                }
                let deadline = now + rng.index(200) as u64;
                while let Some((time, kind)) = queue.next_due(SimTime::from_micros(deadline)) {
                    let Reverse((at, seq)) = reference.pop().expect("the reference holds it");
                    let EventKind::HopDeliver { act } = kind else {
                        panic!("seed {seed}: unexpected {kind:?}");
                    };
                    assert_eq!(
                        (time.as_micros(), u64::from(act)),
                        (at, seq),
                        "seed {seed}: dispatch {dispatched}"
                    );
                    ties += u64::from(at == now && dispatched > 0);
                    now = at;
                    dispatched += 1;
                    // The handler: 0, 1 or 2 events, 0.95 on average.
                    let children = match rng.index(20) {
                        0..=6 => 0,
                        7..=13 => 1,
                        _ => 2,
                    };
                    popped += u64::from(children == 0);
                    for _ in 0..children {
                        let at = now + rng.index(20) as u64;
                        schedule_both(&mut queue, &mut reference, &mut next_seq, at);
                    }
                }
                assert!(
                    reference
                        .peek()
                        .is_none_or(|Reverse((at, _))| *at > deadline),
                    "seed {seed}: a due event was not dispatched"
                );
                now = deadline;
            }
        }
        assert!(
            dispatched > 10_000 && ties > 1_000 && popped > 1_000,
            "{dispatched} dispatched, {ties} at the previous time, {popped} popped"
        );
    }

    /// The least-loaded choice pinned pick by pick: five replicas with
    /// a `Draining` one between `Running` peers, load ties broken by the
    /// round-robin cursor, and the cursor wrapping past `usize::MAX`.
    /// The literals were captured from the earlier choice, which
    /// filtered the replicas into a copy and scanned that.
    #[test]
    fn replica_choice_is_pinned() {
        let mut sim = demo_sim(19);
        let svc = sim.app().service_by_name("logic-a").unwrap();
        for k in 0..4 {
            sim.spawn_instance(svc, NodeId(k % 2), 2.0, InstanceState::Running);
        }
        let replicas = sim.services[svc.index()].replicas.clone();
        assert_eq!(replicas.len(), 5);
        sim.mutate_instance(replicas[2], |inst| inst.state = InstanceState::Draining);

        let mut picks = Vec::new();
        for step in 0..20 {
            if step == 12 {
                sim.services[svc.index()].rr_cursor = usize::MAX - 2;
            }
            let iid = sim.pick_replica(svc).expect("a replica accepts load");
            picks.push(iid.0);
            // Each pick occupies a worker; every third frees one on the
            // first replica, so ties and strict minima alternate.
            sim.mutate_instance(iid, |inst| inst.busy_workers += 1);
            if step % 3 == 2 {
                sim.mutate_instance(replicas[0], |inst| {
                    inst.busy_workers = inst.busy_workers.saturating_sub(1)
                });
            }
        }
        assert_eq!(replicas, [1, 5, 6, 7, 8].map(InstanceId));
        assert_eq!(
            picks,
            [5, 7, 8, 1, 5, 7, 1, 1, 8, 1, 8, 1, 7, 1, 5, 1, 7, 8, 1, 5]
        );
    }

    /// Each node's maintained aggregates against a from-scratch
    /// recomputation, the weight total against the instances', and each
    /// service's replica offers against its instances.
    fn assert_aggregates_current(sim: &Simulation) {
        for rt in &sim.services {
            let offers: Vec<_> = rt
                .replicas
                .iter()
                .map(|id| offer(&sim.instances[id.index()]))
                .collect();
            assert_eq!(rt.offers, offers);
        }
        let mut total_weight = 0;
        for node in &sim.nodes {
            let (weight_sum, reserved) = contention::aggregates_from_scratch(node, &sim.instances);
            assert_eq!(node.weight_sum, weight_sum);
            assert_eq!(node.reserved, reserved);
            for kind in RESOURCE_KINDS {
                let folded: f64 = node
                    .contenders()
                    .iter()
                    .filter(|c| c.resource == kind)
                    .map(|c| c.intensity)
                    .sum();
                assert_eq!(
                    node.anomaly_fraction(kind).to_bits(),
                    folded.min(1.0).to_bits()
                );
            }
            total_weight += node.weight_sum;
        }
        let per_instance: u64 = sim
            .instances
            .iter()
            .map(|i| contention::footprint(i).0)
            .sum();
        assert_eq!(total_weight, per_instance);
    }

    /// No `Removed` instance is served: after every step it holds no
    /// busy worker and no queue, and its window has counted no arrival
    /// since the step it was first seen removed after (`at_removal`
    /// keeps that count per instance).
    fn assert_removed_unserved(sim: &Simulation, at_removal: &mut Vec<Option<u64>>) {
        at_removal.resize(sim.instances.len(), None);
        for (i, inst) in sim.instances.iter().enumerate() {
            if inst.state != InstanceState::Removed {
                continue;
            }
            assert_eq!(inst.busy_workers, 0, "removed instance {i} is busy");
            assert!(inst.queue.is_empty(), "removed instance {i} has a queue");
            let arrivals = *at_removal[i].get_or_insert(inst.window.arrivals);
            assert!(
                inst.window.arrivals <= arrivals,
                "removed instance {i} was served: {arrivals} -> {} arrivals",
                inst.window.arrivals
            );
        }
    }

    /// One random step of the actuation-and-anomaly walk: a command
    /// or an injection, then 1–120 ms of simulated time.
    fn random_step(sim: &mut Simulation, rng: &mut SimRng) {
        const STRESSORS: [AnomalyKind; 5] = [
            AnomalyKind::CpuStress,
            AnomalyKind::LlcStress,
            AnomalyKind::MemBwStress,
            AnomalyKind::IoStress,
            AnomalyKind::NetBwStress,
        ];
        let instance = InstanceId(rng.index(sim.instances.len()) as u32);
        let service = ServiceId(rng.index(sim.app.services.len()) as u16);
        let node = sim.instances[instance.index()].node;
        let kind = RESOURCE_KINDS[rng.index(RESOURCE_KINDS.len())];
        let stressor = STRESSORS[rng.index(STRESSORS.len())];
        let length = SimDuration::from_millis(50 + rng.index(400) as u64);
        match rng.index(9) {
            // Large shares, so reservations oversubscribe.
            0..=2 => {
                let capacity = sim.nodes[node.index()].capacity(kind);
                let amount = capacity * rng.uniform_range(0.05, 0.8);
                sim.apply(Command::SetPartition {
                    instance,
                    kind,
                    amount,
                });
            }
            3 => {
                sim.apply(Command::ClearPartition { instance, kind });
            }
            4 => {
                let warm = rng.chance(0.7);
                sim.apply(Command::ScaleOut { service, warm });
            }
            5 => {
                sim.apply(Command::ScaleIn { service });
            }
            6 => {
                sim.inject(AnomalySpec::new(stressor, node, rng.uniform(), length));
            }
            7 => {
                let spec = AnomalySpec::at_instance(stressor, instance, rng.uniform(), length);
                sim.inject(spec);
            }
            // A CPU quota below the busy count: the worker pool
            // shrinks under the work it is running.
            _ => {
                sim.apply(Command::SetPartition {
                    instance,
                    kind: ResourceKind::Cpu,
                    amount: 0.05,
                });
            }
        }
        sim.run_for(SimDuration::from_millis(1 + rng.index(120) as u64));
    }

    /// The random walk's simulation: the demo app at 1,200 req/s,
    /// enough to queue and drop under the walk's squeezes.
    fn busy_sim(seed: u64) -> Simulation {
        Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), seed)
            .arrivals(Box::new(ConstantArrivals::new(1_200.0)))
            .build()
    }

    #[test]
    fn node_aggregates_track_random_actuation_and_anomalies() {
        // What the walk must have reached for the run to mean much.
        let (mut removed, mut reserved_pair, mut over_busy) = (false, false, false);
        for seed in 0..4 {
            let mut sim = busy_sim(seed);
            let mut rng = SimRng::new(seed ^ 0xA66);
            for _ in 0..150 {
                random_step(&mut sim, &mut rng);
                assert_aggregates_current(&sim);

                removed |= sim
                    .instances
                    .iter()
                    .any(|i| i.state == InstanceState::Removed);
                reserved_pair |= sim.nodes.iter().any(|n| n.reserved.len() >= 2);
                over_busy |= sim.instances.iter().any(|i| i.busy_workers > i.workers());
            }
        }
        assert!(removed && reserved_pair && over_busy);
    }

    /// Conservation of requests: after every step, each arrival the
    /// simulator counted is either drained (served or dropped) or a
    /// trace still live, and no removed instance is served.
    #[test]
    fn arrivals_are_drained_or_still_live() {
        let (mut served, mut dropped, mut removed) = (0u64, 0u64, 0usize);
        for seed in 0..4 {
            let mut sim = busy_sim(seed);
            let mut rng = SimRng::new(seed ^ 0xC0175);
            let mut drained = 0u64;
            let mut at_removal = Vec::new();
            for step in 0..150 {
                random_step(&mut sim, &mut rng);
                assert_removed_unserved(&sim, &mut at_removal);
                for r in sim.drain_completed() {
                    drained += 1;
                    if r.dropped {
                        dropped += 1;
                    } else {
                        served += 1;
                    }
                }
                let live = sim.traces.iter().filter(|t| t.live).count() as u64;
                assert_eq!(
                    sim.stats().arrivals,
                    drained + live,
                    "seed {seed} step {step}: {drained} drained, {live} live"
                );
            }
            removed += at_removal.iter().flatten().count();
        }
        assert!(
            served > 0 && dropped > 0 && removed > 0,
            "{served} served, {dropped} dropped, {removed} removed"
        );
    }
}
