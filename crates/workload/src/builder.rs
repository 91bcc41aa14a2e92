//! A small builder DSL for assembling application topologies.

use firm_sim::spec::{AppSpec, Behavior, Call, DemandProfile, RequestTypeSpec, ServiceSpec, Stage};
use firm_sim::ServiceId;

/// Service tier; determines the default resource-demand profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// User-facing reverse proxy / API gateway: light CPU, network-heavy.
    Frontend,
    /// Business-logic service: CPU-bound.
    Logic,
    /// In-memory cache (memcached/redis): memory-bandwidth-bound and
    /// LLC-sensitive.
    Cache,
    /// Persistent store (MongoDB/MySQL): disk-I/O-bound.
    Db,
    /// Media processing (video/image): CPU- and memory-heavy with large
    /// responses.
    Media,
}

impl Tier {
    /// The default per-request demand of this tier, scaled by `work`
    /// (1.0 = nominal).
    pub fn demand(self, work: f64) -> DemandProfile {
        match self {
            Tier::Frontend => DemandProfile {
                cpu_us: 120.0 * work,
                mem_mb: 0.02 * work,
                llc_ws_mb: 0.3,
                llc_sensitivity: 0.1,
                io_mb: 0.0,
                resp_kb: 4.0,
                cv: 0.1,
            },
            Tier::Logic => DemandProfile {
                cpu_us: 450.0 * work,
                mem_mb: 0.08 * work,
                llc_ws_mb: 1.0,
                llc_sensitivity: 0.3,
                io_mb: 0.0,
                resp_kb: 2.0,
                cv: 0.2,
            },
            Tier::Cache => DemandProfile {
                cpu_us: 60.0 * work,
                mem_mb: 2.5 * work,
                llc_ws_mb: 6.0,
                llc_sensitivity: 0.9,
                io_mb: 0.0,
                resp_kb: 8.0,
                cv: 0.15,
            },
            Tier::Db => DemandProfile {
                cpu_us: 150.0 * work,
                mem_mb: 0.3 * work,
                llc_ws_mb: 2.0,
                llc_sensitivity: 0.4,
                io_mb: 0.35 * work,
                resp_kb: 6.0,
                cv: 0.35,
            },
            Tier::Media => DemandProfile {
                cpu_us: 900.0 * work,
                mem_mb: 4.0 * work,
                llc_ws_mb: 8.0,
                llc_sensitivity: 0.7,
                io_mb: 0.1 * work,
                resp_kb: 64.0,
                cv: 0.3,
            },
        }
    }

    /// Default CPU quota (cores) for this tier's containers.
    pub fn default_cpu(self) -> f64 {
        match self {
            Tier::Frontend => 4.0,
            Tier::Logic => 2.0,
            Tier::Cache => 2.0,
            Tier::Db => 2.0,
            Tier::Media => 4.0,
        }
    }
}

/// Incremental builder for [`AppSpec`]s.
#[derive(Debug)]
pub struct AppBuilder {
    name: String,
    services: Vec<ServiceSpec>,
    tiers: Vec<Tier>,
    request_types: Vec<RequestTypeSpec>,
    n_request_types: usize,
}

impl AppBuilder {
    /// Starts an application with a fixed number of request types.
    pub fn new(name: impl Into<String>, n_request_types: usize) -> Self {
        AppBuilder {
            name: name.into(),
            services: Vec::new(),
            tiers: Vec::new(),
            request_types: Vec::new(),
            n_request_types,
        }
    }

    /// Registers a service of a tier; returns its id.
    pub fn service(&mut self, name: impl Into<String>, tier: Tier) -> ServiceId {
        let mut spec = ServiceSpec::new(name, self.n_request_types);
        spec.initial_cpu = tier.default_cpu();
        let id = ServiceId(self.services.len() as u16);
        self.services.push(spec);
        self.tiers.push(tier);
        id
    }

    /// Number of services registered so far.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }

    /// Registers a cache+database pair backing a logic service; returns
    /// `(cache, db)`.
    pub fn storage_pair(&mut self, base: &str) -> (ServiceId, ServiceId) {
        let cache = self.service(format!("{base}-memcached"), Tier::Cache);
        let db = self.service(format!("{base}-mongodb"), Tier::Db);
        (cache, db)
    }

    /// Sets a leaf behaviour (compute only) for `(service, rt)`, with the
    /// tier's default demand scaled by `work`.
    pub fn leaf(&mut self, service: ServiceId, rt: usize, work: f64) -> &mut Self {
        let demand = self.tiers[service.index()].demand(work);
        self.services[service.index()].behaviors[rt] = Some(Behavior::leaf(demand));
        self
    }

    /// Sets a behaviour with downstream call stages for `(service, rt)`.
    pub fn stages(
        &mut self,
        service: ServiceId,
        rt: usize,
        work: f64,
        stages: Vec<Stage>,
    ) -> &mut Self {
        let demand = self.tiers[service.index()].demand(work);
        self.services[service.index()].behaviors[rt] = Some(Behavior::with_stages(demand, stages));
        self
    }

    /// Convenience: a cache-then-db lookaside pattern — call the cache,
    /// then the database, sequentially (two stages).
    pub fn lookaside(
        &mut self,
        service: ServiceId,
        rt: usize,
        work: f64,
        cache: ServiceId,
        db: ServiceId,
    ) -> &mut Self {
        self.stages(
            service,
            rt,
            work,
            vec![Stage::single(cache), Stage::single(db)],
        )
    }

    /// Sets an explicit behaviour (custom demand profile) for
    /// `(service, rt)`.
    pub fn set_behavior(&mut self, service: ServiceId, rt: usize, behavior: Behavior) -> &mut Self {
        self.services[service.index()].behaviors[rt] = Some(behavior);
        self
    }

    /// Registers a request type; `idx` must be < `n_request_types`.
    pub fn request_type(
        &mut self,
        idx: usize,
        name: impl Into<String>,
        entry: ServiceId,
        weight: f64,
        slo_ms: u64,
    ) -> &mut Self {
        assert_eq!(
            idx,
            self.request_types.len(),
            "register request types in order"
        );
        assert!(
            idx < self.n_request_types,
            "request-type index out of range"
        );
        self.request_types.push(RequestTypeSpec {
            name: name.into(),
            entry,
            weight,
            slo_latency_us: slo_ms * 1_000,
        });
        self
    }

    /// Overrides the initial CPU quota of a service.
    pub fn with_cpu(&mut self, service: ServiceId, cpu: f64) -> &mut Self {
        self.services[service.index()].initial_cpu = cpu;
        self
    }

    /// Finalizes and validates the application.
    ///
    /// # Panics
    ///
    /// Panics if the topology is structurally invalid (the builders are
    /// static data; invalid topologies are programming errors).
    pub fn build(self) -> AppSpec {
        let app = AppSpec {
            name: self.name,
            services: self.services,
            request_types: self.request_types,
        };
        if let Err(e) = app.validate() {
            panic!("invalid topology {}: {e}", app.name);
        }
        app
    }
}

/// Multiplies every service's initial replica count by `factor` — the
/// replica-fan-out half of the catalog `scale_factor` knob. `factor`
/// is clamped to ≥ 1, so the result always satisfies the
/// replicas-≥-1 topology invariant.
pub fn scale_replicas(app: &mut AppSpec, factor: u32) {
    let factor = factor.max(1);
    for svc in &mut app.services {
        svc.initial_replicas = svc.initial_replicas.max(1).saturating_mul(factor);
    }
}

/// Shorthand for a parallel stage.
pub fn par(targets: &[ServiceId]) -> Stage {
    Stage::parallel(targets)
}

/// Shorthand for a single-call stage.
pub fn one(target: ServiceId) -> Stage {
    Stage::single(target)
}

/// Shorthand for a background-call stage.
pub fn bg(target: ServiceId) -> Stage {
    Stage {
        calls: vec![Call::background(target)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_valid_app() {
        let mut b = AppBuilder::new("mini", 1);
        let fe = b.service("frontend", Tier::Frontend);
        let logic = b.service("logic", Tier::Logic);
        let (cache, db) = b.storage_pair("logic");
        b.leaf(cache, 0, 1.0);
        b.leaf(db, 0, 1.0);
        b.lookaside(logic, 0, 1.0, cache, db);
        b.stages(fe, 0, 1.0, vec![one(logic)]);
        b.request_type(0, "get", fe, 1.0, 100);
        let app = b.build();
        assert_eq!(app.services.len(), 4);
        assert_eq!(app.request_types.len(), 1);
    }

    #[test]
    fn tier_demands_span_bottleneck_classes() {
        assert!(Tier::Logic.demand(1.0).cpu_us > Tier::Cache.demand(1.0).cpu_us);
        assert!(Tier::Cache.demand(1.0).mem_mb > Tier::Logic.demand(1.0).mem_mb);
        assert!(Tier::Db.demand(1.0).io_mb > 0.0);
        assert_eq!(Tier::Logic.demand(1.0).io_mb, 0.0);
        assert!(Tier::Media.demand(1.0).resp_kb > Tier::Frontend.demand(1.0).resp_kb);
        // Work scaling applies to CPU.
        assert_eq!(Tier::Logic.demand(2.0).cpu_us, 900.0);
    }

    #[test]
    #[should_panic(expected = "invalid topology")]
    fn build_rejects_missing_entry_behavior() {
        let mut b = AppBuilder::new("broken", 1);
        let fe = b.service("frontend", Tier::Frontend);
        b.request_type(0, "get", fe, 1.0, 100);
        b.build();
    }
}
