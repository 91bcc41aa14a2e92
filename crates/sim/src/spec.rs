//! Application and cluster specifications.
//!
//! A [`ClusterSpec`] describes the physical nodes; an [`AppSpec`] describes
//! a microservice application as a service graph with per-request-type
//! behaviours. The four benchmark topologies of the paper (Social Network,
//! Media Service, Hotel Reservation, Train-Ticket) are constructed as
//! `AppSpec`s by the `firm-workload` crate.

use crate::ids::{RequestTypeId, ServiceId};
use crate::resources::ResourceVec;

/// Instruction-set architecture of a node; the paper's cluster mixes Intel
/// x86 Xeons and IBM ppc64 Power8/9 machines (§4.1) and Fig. 9(b) compares
/// localization accuracy across the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsaArch {
    /// Intel Xeon (x86_64).
    X86,
    /// IBM Power (ppc64).
    Ppc64,
}

impl IsaArch {
    /// Human-readable label used in reports.
    pub const fn label(self) -> &'static str {
        match self {
            IsaArch::X86 => "Intel Xeon",
            IsaArch::Ppc64 => "IBM Power",
        }
    }
}

/// Specification of one physical node.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Node capacity on each resource dimension.
    pub capacity: ResourceVec,
    /// Processor architecture (affects nothing but reporting and a small
    /// deterministic speed factor, mirroring the paper's heterogeneity).
    pub arch: IsaArch,
    /// Relative per-core speed (1.0 = baseline x86 core).
    pub speed: f64,
}

impl NodeSpec {
    /// A mid-size x86 node: 48 cores, 25.6 GB/s memory bandwidth, 35 MB
    /// LLC, 2 GB/s disk, 1.25 GB/s (10 GbE) network.
    pub fn x86_default() -> Self {
        NodeSpec {
            capacity: ResourceVec::new(48.0, 25_600.0, 35.0, 2_000.0, 1_250.0),
            arch: IsaArch::X86,
            speed: 1.0,
        }
    }

    /// A POWER node: more cores and bandwidth, slightly slower single
    /// thread in our normalization.
    pub fn ppc64_default() -> Self {
        NodeSpec {
            capacity: ResourceVec::new(64.0, 38_400.0, 60.0, 2_400.0, 1_250.0),
            arch: IsaArch::Ppc64,
            speed: 0.92,
        }
    }
}

/// Specification of the whole cluster.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// The nodes, indexed by [`crate::ids::NodeId`].
    pub nodes: Vec<NodeSpec>,
}

impl ClusterSpec {
    /// The paper's evaluation cluster shape: 15 nodes, 9 x86 + 6 ppc64
    /// (§4.1).
    pub fn paper_cluster() -> Self {
        let mut nodes = Vec::with_capacity(15);
        for _ in 0..9 {
            nodes.push(NodeSpec::x86_default());
        }
        for _ in 0..6 {
            nodes.push(NodeSpec::ppc64_default());
        }
        ClusterSpec { nodes }
    }

    /// A small homogeneous x86 cluster for tests and examples.
    pub fn small(n: usize) -> Self {
        ClusterSpec {
            nodes: (0..n).map(|_| NodeSpec::x86_default()).collect(),
        }
    }
}

/// Per-request resource demand of one service for one request type.
///
/// Demands are *work amounts*; the simulator divides them by effective
/// resource rates (after contention) to obtain service-time components.
#[derive(Debug, Clone, Copy)]
pub struct DemandProfile {
    /// CPU work per request, in core-microseconds.
    pub cpu_us: f64,
    /// DRAM traffic per request, in MB (before LLC-miss inflation).
    pub mem_mb: f64,
    /// LLC working-set size, in MB; misses inflate DRAM traffic when the
    /// effective LLC share is smaller than this.
    pub llc_ws_mb: f64,
    /// Sensitivity of DRAM traffic to LLC shortfall (0 = insensitive;
    /// 1 = traffic doubles when the service gets no cache).
    pub llc_sensitivity: f64,
    /// Disk I/O per request, in MB.
    pub io_mb: f64,
    /// Response-message size sent back to the caller, in KB.
    pub resp_kb: f64,
    /// Coefficient of variation of the intrinsic service-time noise
    /// (log-normal), modelling per-request heterogeneity.
    pub cv: f64,
}

impl DemandProfile {
    /// A pure-CPU demand with mild variability.
    pub fn cpu_bound(cpu_us: f64) -> Self {
        DemandProfile {
            cpu_us,
            mem_mb: 0.05,
            llc_ws_mb: 0.5,
            llc_sensitivity: 0.2,
            io_mb: 0.0,
            resp_kb: 2.0,
            cv: 0.15,
        }
    }

    /// A memory-bandwidth-heavy demand (e.g. an in-memory store scan).
    pub fn mem_bound(cpu_us: f64, mem_mb: f64) -> Self {
        DemandProfile {
            cpu_us,
            mem_mb,
            llc_ws_mb: 4.0,
            llc_sensitivity: 0.8,
            io_mb: 0.0,
            resp_kb: 8.0,
            cv: 0.2,
        }
    }

    /// An I/O-heavy demand (e.g. a persistent store).
    pub fn io_bound(cpu_us: f64, io_mb: f64) -> Self {
        DemandProfile {
            cpu_us,
            mem_mb: 0.2,
            llc_ws_mb: 1.0,
            llc_sensitivity: 0.3,
            io_mb,
            resp_kb: 4.0,
            cv: 0.25,
        }
    }

    /// Scales every work component by `k` (used to model request-type
    /// weight differences).
    pub fn scaled(&self, k: f64) -> Self {
        DemandProfile {
            cpu_us: self.cpu_us * k,
            mem_mb: self.mem_mb * k,
            io_mb: self.io_mb * k,
            ..*self
        }
    }
}

impl Default for DemandProfile {
    fn default() -> Self {
        DemandProfile::cpu_bound(500.0)
    }
}

/// One downstream RPC issued by a service while handling a request.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// The callee service.
    pub target: ServiceId,
    /// Fire-and-forget: the caller does not wait for the response and the
    /// callee's span is excluded from critical paths (§3.2, background
    /// workflows such as `writeTimeline` in Fig. 2).
    pub background: bool,
    /// Request-message size, in KB (transferred over the network).
    pub req_kb: f64,
}

impl Call {
    /// A synchronous call with a small request message.
    pub fn sync(target: ServiceId) -> Self {
        Call {
            target,
            background: false,
            req_kb: 2.0,
        }
    }

    /// A background (fire-and-forget) call.
    pub fn background(target: ServiceId) -> Self {
        Call {
            target,
            background: true,
            req_kb: 2.0,
        }
    }
}

/// A stage of calls issued in parallel; stages run sequentially.
///
/// This encodes the paper's three workflow patterns (§3.2): calls within a
/// stage are *parallel*, consecutive stages are *sequential*, and calls
/// flagged background are *background* workflows.
#[derive(Debug, Clone, Default)]
pub struct Stage {
    /// The calls fired concurrently in this stage.
    pub calls: Vec<Call>,
}

impl Stage {
    /// A stage with a single synchronous call.
    pub fn single(target: ServiceId) -> Self {
        Stage {
            calls: vec![Call::sync(target)],
        }
    }

    /// A stage with several parallel synchronous calls.
    pub fn parallel(targets: &[ServiceId]) -> Self {
        Stage {
            calls: targets.iter().map(|&t| Call::sync(t)).collect(),
        }
    }
}

/// How one service behaves for one request type.
#[derive(Debug, Clone, Default)]
pub struct Behavior {
    /// Resource demand of the local compute phases.
    pub demand: Option<DemandProfile>,
    /// Downstream call stages.
    pub stages: Vec<Stage>,
}

impl Behavior {
    /// Leaf behaviour: compute only, no downstream calls.
    pub fn leaf(demand: DemandProfile) -> Self {
        Behavior {
            demand: Some(demand),
            stages: Vec::new(),
        }
    }

    /// Behaviour with compute plus call stages.
    pub fn with_stages(demand: DemandProfile, stages: Vec<Stage>) -> Self {
        Behavior {
            demand: Some(demand),
            stages,
        }
    }
}

/// A microservice (logical service) in the application graph.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Service name (e.g. `composePost`).
    pub name: String,
    /// Behaviour per request type; `None` entries mean the service does
    /// not participate in that request type.
    pub behaviors: Vec<Option<Behavior>>,
    /// Initial number of replicas.
    pub initial_replicas: u32,
    /// Initial CPU limit per replica (cores).
    pub initial_cpu: f64,
    /// Maximum worker threads per replica; the effective worker count is
    /// `ceil(cpu_limit)` capped by this (§3.4: CPU limit above the thread
    /// count yields no benefit).
    pub max_threads: u32,
    /// Bounded request-queue length per replica; overflow drops the
    /// request (Fig. 10(c) counts drops).
    pub queue_cap: usize,
}

impl ServiceSpec {
    /// Creates a service with no behaviours registered yet.
    pub fn new(name: impl Into<String>, request_types: usize) -> Self {
        ServiceSpec {
            name: name.into(),
            behaviors: vec![None; request_types],
            initial_replicas: 1,
            initial_cpu: 2.0,
            max_threads: 64,
            queue_cap: 512,
        }
    }
}

/// A request type with its workload-mix weight and entry service.
#[derive(Debug, Clone)]
pub struct RequestTypeSpec {
    /// Request-type name (e.g. `post-compose`).
    pub name: String,
    /// The entry (user-facing) service, e.g. Nginx.
    pub entry: ServiceId,
    /// Relative weight in the generated mix.
    pub weight: f64,
    /// End-to-end latency SLO for this request type.
    pub slo_latency_us: u64,
}

/// A complete microservice application.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// Application name.
    pub name: String,
    /// Services, indexed by [`ServiceId`].
    pub services: Vec<ServiceSpec>,
    /// Request types, indexed by [`RequestTypeId`].
    pub request_types: Vec<RequestTypeSpec>,
}

impl AppSpec {
    /// Number of services.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }

    /// Looks up a service by name.
    pub fn service_by_name(&self, name: &str) -> Option<ServiceId> {
        self.services
            .iter()
            .position(|s| s.name == name)
            .map(|i| ServiceId(i as u16))
    }

    /// The behaviour of `service` for `rt`, if it participates.
    pub fn behavior(&self, service: ServiceId, rt: RequestTypeId) -> Option<&Behavior> {
        self.services
            .get(service.index())?
            .behaviors
            .get(rt.index())?
            .as_ref()
    }

    /// Validates structural invariants: behaviours sized to the request
    /// types, call targets in range, at least one request type, no
    /// self-calls, and acyclic synchronous call graphs per request type.
    pub fn validate(&self) -> Result<(), String> {
        if self.request_types.is_empty() {
            return Err("no request types".into());
        }
        for (si, svc) in self.services.iter().enumerate() {
            if svc.behaviors.len() != self.request_types.len() {
                return Err(format!(
                    "service {} has {} behaviours for {} request types",
                    svc.name,
                    svc.behaviors.len(),
                    self.request_types.len()
                ));
            }
            for behavior in svc.behaviors.iter().flatten() {
                for stage in &behavior.stages {
                    for call in &stage.calls {
                        if call.target.index() >= self.services.len() {
                            return Err(format!(
                                "service {} calls out-of-range target {}",
                                svc.name, call.target
                            ));
                        }
                        if call.target.index() == si {
                            return Err(format!("service {} calls itself", svc.name));
                        }
                    }
                }
            }
        }
        for (ri, rt) in self.request_types.iter().enumerate() {
            if rt.entry.index() >= self.services.len() {
                return Err(format!("request type {} has invalid entry", rt.name));
            }
            if self.behavior(rt.entry, RequestTypeId(ri as u16)).is_none() {
                return Err(format!(
                    "entry service of request type {} has no behaviour for it",
                    rt.name
                ));
            }
            self.check_acyclic(rt.entry, RequestTypeId(ri as u16))?;
        }
        Ok(())
    }

    fn check_acyclic(&self, entry: ServiceId, rt: RequestTypeId) -> Result<(), String> {
        // Depth-first search with an explicit on-path marker.
        fn visit(
            app: &AppSpec,
            rt: RequestTypeId,
            s: ServiceId,
            on_path: &mut Vec<bool>,
            done: &mut Vec<bool>,
        ) -> Result<(), String> {
            if done[s.index()] {
                return Ok(());
            }
            if on_path[s.index()] {
                return Err(format!(
                    "cycle through service {} for request type {}",
                    app.services[s.index()].name,
                    rt
                ));
            }
            on_path[s.index()] = true;
            if let Some(b) = app.behavior(s, rt) {
                for stage in &b.stages {
                    for call in &stage.calls {
                        visit(app, rt, call.target, on_path, done)?;
                    }
                }
            }
            on_path[s.index()] = false;
            done[s.index()] = true;
            Ok(())
        }
        let mut on_path = vec![false; self.services.len()];
        let mut done = vec![false; self.services.len()];
        visit(self, rt, entry, &mut on_path, &mut done)
    }

    /// A single-service demo application used by doctests and unit tests.
    pub fn single_service_demo() -> AppSpec {
        let mut svc = ServiceSpec::new("frontend", 1);
        svc.behaviors[0] = Some(Behavior::leaf(DemandProfile::cpu_bound(800.0)));
        svc.initial_cpu = 4.0;
        AppSpec {
            name: "demo".into(),
            services: vec![svc],
            request_types: vec![RequestTypeSpec {
                name: "get".into(),
                entry: ServiceId(0),
                weight: 1.0,
                slo_latency_us: 50_000,
            }],
        }
    }

    /// A three-tier demo (frontend → logic → store) exercising sequential
    /// and parallel stages plus a background call; used by tests.
    pub fn three_tier_demo() -> AppSpec {
        let mut frontend = ServiceSpec::new("frontend", 1);
        let mut logic_a = ServiceSpec::new("logic-a", 1);
        let mut logic_b = ServiceSpec::new("logic-b", 1);
        let mut store = ServiceSpec::new("store", 1);
        let mut logger = ServiceSpec::new("logger", 1);

        store.behaviors[0] = Some(Behavior::leaf(DemandProfile::io_bound(200.0, 0.05)));
        logger.behaviors[0] = Some(Behavior::leaf(DemandProfile::cpu_bound(150.0)));
        logic_a.behaviors[0] = Some(Behavior::with_stages(
            DemandProfile::cpu_bound(600.0),
            vec![Stage::single(ServiceId(3))],
        ));
        logic_b.behaviors[0] = Some(Behavior::leaf(DemandProfile::mem_bound(300.0, 2.0)));
        frontend.behaviors[0] = Some(Behavior {
            demand: Some(DemandProfile::cpu_bound(250.0)),
            stages: vec![
                Stage::parallel(&[ServiceId(1), ServiceId(2)]),
                Stage {
                    calls: vec![Call::background(ServiceId(4))],
                },
            ],
        });
        frontend.initial_cpu = 4.0;

        AppSpec {
            name: "three-tier".into(),
            services: vec![frontend, logic_a, logic_b, store, logger],
            request_types: vec![RequestTypeSpec {
                name: "request".into(),
                entry: ServiceId(0),
                weight: 1.0,
                slo_latency_us: 100_000,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_specs_validate() {
        assert!(AppSpec::single_service_demo().validate().is_ok());
        assert!(AppSpec::three_tier_demo().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_entry() {
        let mut app = AppSpec::single_service_demo();
        app.request_types[0].entry = ServiceId(9);
        assert!(app.validate().is_err());
    }

    #[test]
    fn validate_rejects_out_of_range_call() {
        let mut app = AppSpec::single_service_demo();
        app.services[0].behaviors[0] = Some(Behavior::with_stages(
            DemandProfile::default(),
            vec![Stage::single(ServiceId(5))],
        ));
        assert!(app.validate().is_err());
    }

    #[test]
    fn validate_rejects_self_call() {
        let mut app = AppSpec::single_service_demo();
        app.services[0].behaviors[0] = Some(Behavior::with_stages(
            DemandProfile::default(),
            vec![Stage::single(ServiceId(0))],
        ));
        assert!(app.validate().is_err());
    }

    #[test]
    fn validate_rejects_cycle() {
        let mut a = ServiceSpec::new("a", 1);
        let mut b = ServiceSpec::new("b", 1);
        a.behaviors[0] = Some(Behavior::with_stages(
            DemandProfile::default(),
            vec![Stage::single(ServiceId(1))],
        ));
        b.behaviors[0] = Some(Behavior::with_stages(
            DemandProfile::default(),
            vec![Stage::single(ServiceId(0))],
        ));
        let app = AppSpec {
            name: "cyclic".into(),
            services: vec![a, b],
            request_types: vec![RequestTypeSpec {
                name: "r".into(),
                entry: ServiceId(0),
                weight: 1.0,
                slo_latency_us: 1_000,
            }],
        };
        assert!(app.validate().is_err());
    }

    #[test]
    fn validate_rejects_mismatched_behaviors() {
        let mut app = AppSpec::single_service_demo();
        app.services[0].behaviors.push(None);
        assert!(app.validate().is_err());
    }

    #[test]
    fn service_lookup_by_name() {
        let app = AppSpec::three_tier_demo();
        assert_eq!(app.service_by_name("store"), Some(ServiceId(3)));
        assert_eq!(app.service_by_name("nope"), None);
    }

    #[test]
    fn cluster_paper_shape() {
        let c = ClusterSpec::paper_cluster();
        assert_eq!(c.nodes.len(), 15);
        let x86 = c.nodes.iter().filter(|n| n.arch == IsaArch::X86).count();
        assert_eq!(x86, 9);
    }

    #[test]
    fn demand_profile_scaled() {
        let d = DemandProfile::cpu_bound(100.0).scaled(2.0);
        assert_eq!(d.cpu_us, 200.0);
        assert_eq!(d.mem_mb, 0.1);
    }
}
