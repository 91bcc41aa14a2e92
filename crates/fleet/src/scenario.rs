//! The scenario catalog: declarative descriptions of complete cluster
//! simulations.
//!
//! A [`Scenario`] pins down everything a worker needs to reproduce a
//! run bit-for-bit — benchmark topology, cluster size, arrival shape,
//! anomaly campaign, and controller — without holding any live state.
//! The [`builtin_catalog`] spans all four §4.1 benchmark applications,
//! the three load regimes (steady Poisson, diurnal, flash crowd), the
//! seed's anomaly kinds, and all four controllers, so a fleet run
//! exercises the shared pipeline against genuinely heterogeneous
//! tenants (the paper's §4.3 generalization claim).

use std::str::FromStr;

use firm_core::baselines::{AimdConfig, K8sConfig};
use firm_core::injector::CampaignConfig;
use firm_sim::{AnomalyKind, SimDuration};
use firm_workload::apps::Benchmark;
use firm_workload::{LoadShape, ReplayTrace};

/// Which resource manager drives a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetController {
    /// No management (static allocation) — the fleet's control group.
    Unmanaged,
    /// FIRM in training mode; contributes experience to the shared
    /// trainer.
    Firm,
    /// Kubernetes horizontal pod autoscaling.
    K8sHpa,
    /// AIMD limit control.
    Aimd,
}

impl FleetController {
    /// Report label.
    pub const fn label(self) -> &'static str {
        match self {
            FleetController::Unmanaged => "none",
            FleetController::Firm => "FIRM",
            FleetController::K8sHpa => "K8S",
            FleetController::Aimd => "AIMD",
        }
    }

    /// Whether the controller consumes per-request spans. Only FIRM
    /// does (its Extractor builds execution-history graphs); the others
    /// act on end-to-end latency and telemetry, so their simulations
    /// are built span-free. The single place this is decided.
    pub const fn reads_spans(self) -> bool {
        matches!(self, FleetController::Firm)
    }

    /// Whether the controller runs a deployed [`PolicyCheckpoint`].
    /// Only FIRM does; the others never read one, so a round trip's
    /// deploy pass would reproduce their training rows bit for bit and
    /// runs them not at all. The single place this is decided: the
    /// deploy pass selects its scenarios with it, and the controller
    /// builder imports a policy only where it holds.
    ///
    /// [`PolicyCheckpoint`]: firm_core::controller::PolicyCheckpoint
    pub const fn reads_policy(self) -> bool {
        matches!(self, FleetController::Firm)
    }
}

impl FromStr for FleetController {
    type Err = String;

    /// Parses a report label (or common alias) back into the
    /// controller, case-insensitively — the inverse of
    /// [`FleetController::label`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "none" | "unmanaged" => Ok(FleetController::Unmanaged),
            "firm" => Ok(FleetController::Firm),
            "k8s" | "k8s-hpa" | "k8shpa" | "hpa" => Ok(FleetController::K8sHpa),
            "aimd" => Ok(FleetController::Aimd),
            other => Err(format!(
                "unknown controller {other:?} (expected none|FIRM|K8S|AIMD)"
            )),
        }
    }
}

/// A declarative, fully reproducible cluster-simulation recipe.
///
/// Everything is plain data; a worker thread turns it into a live
/// [`firm_sim::Simulation`] with [`crate::exec::run_one`]. Two runs of
/// the same `(Scenario, seed)` produce identical results on any thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Unique name within a catalog (used in reports).
    pub name: String,
    /// The benchmark application.
    pub benchmark: Benchmark,
    /// Cluster size in nodes.
    pub nodes: usize,
    /// Arrival shape.
    pub load: LoadShape,
    /// Anomaly campaign, if any.
    pub campaign: Option<CampaignConfig>,
    /// The resource manager under test.
    pub controller: FleetController,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Control-loop period.
    pub control_interval: SimDuration,
    /// Measurements start after this warmup.
    pub warmup: SimDuration,
    /// When set, calibrate each request type's SLO to `factor ×` its
    /// healthy p99 before the run (via [`firm_core::slo::calibrate_slos`]),
    /// so violation rates are comparable across benchmarks.
    pub slo_factor: Option<f64>,
    /// K8s HPA parameters (used when `controller` is `K8sHpa`).
    pub k8s: K8sConfig,
    /// AIMD parameters (used when `controller` is `Aimd`).
    pub aimd: AimdConfig,
    /// Multiplies every service's initial replica count — the
    /// replica-fan-out half of the catalog `scale_factor` knob.
    /// `1` (the default) leaves the benchmark topology untouched.
    pub replica_factor: u32,
    /// Use the SLO-penalized reward in FIRM scenarios (deep SLO
    /// violations earn negative rewards; see
    /// [`firm_core::estimator::reward_penalized`]). Defaults to
    /// `false`: the hand-written catalog keeps the legacy non-negative
    /// reward and its pinned digests.
    pub slo_penalty: bool,
}

impl Scenario {
    /// A scenario with catalog defaults: 30 simulated seconds, 1 s
    /// control interval, 5 s warmup, SLOs calibrated at 1.4× healthy
    /// p99.
    pub fn new(
        name: impl Into<String>,
        benchmark: Benchmark,
        nodes: usize,
        load: LoadShape,
        campaign: Option<CampaignConfig>,
        controller: FleetController,
    ) -> Self {
        Scenario {
            name: name.into(),
            benchmark,
            nodes,
            load,
            campaign,
            controller,
            duration: SimDuration::from_secs(30),
            control_interval: SimDuration::from_secs(1),
            warmup: SimDuration::from_secs(5),
            slo_factor: Some(1.4),
            k8s: K8sConfig::default(),
            aimd: AimdConfig::default(),
            replica_factor: 1,
            slo_penalty: false,
        }
    }

    /// Returns the scenario with a different simulated duration
    /// (warmup is clamped to stay shorter than the run).
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        if self.warmup >= duration {
            self.warmup = SimDuration::from_micros(duration.as_micros() / 4);
        }
        self
    }
}

/// A campaign over a restricted set of anomaly kinds at the default
/// rate/intensity.
fn campaign_of(kinds: &[AnomalyKind]) -> CampaignConfig {
    CampaignConfig {
        kinds: kinds.to_vec(),
        ..CampaignConfig::default()
    }
}

/// The built-in catalog: twelve scenarios spanning all four benchmark
/// topologies, the three synthetic load shapes, the seven anomaly
/// kinds, and all four controllers — plus a recorded flash-crowd
/// incident replayed under three different controllers (FIRM vs K8s
/// HPA vs unmanaged) so policies can be compared on *exactly* the same
/// load, arrival for arrival.
pub fn builtin_catalog() -> Vec<Scenario> {
    // The incident recording: a flash crowd captured once (synthesized
    // deterministically here; a production catalog would load it from a
    // fleet run's arrival log) and shared by all three replay tenants.
    let incident = ReplayTrace::synthesize(
        &LoadShape::FlashCrowd {
            base: 150.0,
            multiplier: 3.0,
            every_secs: 20,
            crest_secs: 5,
        },
        SimDuration::from_secs(30),
        0x14C1_DE47,
    );
    let replay = |name: &str, controller| {
        Scenario::new(
            name,
            Benchmark::SocialNetwork,
            3,
            LoadShape::Replay {
                trace: incident.clone(),
            },
            None,
            controller,
        )
    };
    vec![
        // Social Network: the paper's flagship app under steady load and
        // the full stressor set.
        Scenario::new(
            "social-steady-firm",
            Benchmark::SocialNetwork,
            4,
            LoadShape::Steady { rate: 250.0 },
            Some(CampaignConfig::stressors_only()),
            FleetController::Firm,
        ),
        // Diurnal swing with compute-side contention.
        Scenario::new(
            "social-diurnal-firm",
            Benchmark::SocialNetwork,
            4,
            LoadShape::Diurnal {
                base: 200.0,
                amplitude: 0.4,
                period_secs: 40,
            },
            Some(campaign_of(&[
                AnomalyKind::CpuStress,
                AnomalyKind::LlcStress,
            ])),
            FleetController::Firm,
        ),
        // Flash crowds without any injected contention: load itself is
        // the anomaly.
        Scenario::new(
            "social-flash-quiet",
            Benchmark::SocialNetwork,
            3,
            LoadShape::FlashCrowd {
                base: 180.0,
                multiplier: 3.0,
                every_secs: 25,
                crest_secs: 5,
            },
            None,
            FleetController::Firm,
        ),
        // Media Service under bursts and memory-path stress.
        Scenario::new(
            "media-flash-firm",
            Benchmark::MediaService,
            4,
            LoadShape::FlashCrowd {
                base: 150.0,
                multiplier: 3.0,
                every_secs: 20,
                crest_secs: 5,
            },
            Some(campaign_of(&[
                AnomalyKind::MemBwStress,
                AnomalyKind::LlcStress,
            ])),
            FleetController::Firm,
        ),
        // Unmanaged control group on the same app class.
        Scenario::new(
            "media-steady-none",
            Benchmark::MediaService,
            3,
            LoadShape::Steady { rate: 150.0 },
            Some(CampaignConfig::stressors_only()),
            FleetController::Unmanaged,
        ),
        // Hotel Reservation: storage-heavy tiers under IO/network stress.
        Scenario::new(
            "hotel-steady-firm",
            Benchmark::HotelReservation,
            3,
            LoadShape::Steady { rate: 300.0 },
            Some(campaign_of(&[
                AnomalyKind::IoStress,
                AnomalyKind::NetBwStress,
            ])),
            FleetController::Firm,
        ),
        // The K8s baseline against the full campaign, bursty load.
        Scenario::new(
            "hotel-flash-k8s",
            Benchmark::HotelReservation,
            3,
            LoadShape::FlashCrowd {
                base: 200.0,
                multiplier: 4.0,
                every_secs: 30,
                crest_secs: 6,
            },
            Some(CampaignConfig::default()),
            FleetController::K8sHpa,
        ),
        // Train-Ticket: the largest topology, diurnal load, network-side
        // anomalies.
        Scenario::new(
            "train-diurnal-firm",
            Benchmark::TrainTicket,
            4,
            LoadShape::Diurnal {
                base: 150.0,
                amplitude: 0.5,
                period_secs: 60,
            },
            Some(campaign_of(&[
                AnomalyKind::NetworkDelay,
                AnomalyKind::NetBwStress,
            ])),
            FleetController::Firm,
        ),
        // The AIMD baseline under workload-variation anomalies.
        Scenario::new(
            "train-steady-aimd",
            Benchmark::TrainTicket,
            4,
            LoadShape::Steady { rate: 120.0 },
            Some(campaign_of(&[AnomalyKind::WorkloadVariation])),
            FleetController::Aimd,
        ),
        // The recorded flash-crowd incident, re-run under three
        // controllers: many policies, one replayable load.
        replay("incident-replay-firm", FleetController::Firm),
        replay("incident-replay-k8s", FleetController::K8sHpa),
        replay("incident-replay-none", FleetController::Unmanaged),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use firm_workload::apps::ALL_BENCHMARKS;

    #[test]
    fn catalog_spans_the_required_axes() {
        let catalog = builtin_catalog();
        assert!(
            catalog.len() >= 8,
            "catalog has {} scenarios",
            catalog.len()
        );

        // Unique names.
        let mut names: Vec<&str> = catalog.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), catalog.len(), "duplicate scenario names");

        // All four benchmarks.
        for bench in ALL_BENCHMARKS {
            assert!(
                catalog.iter().any(|s| s.benchmark == bench),
                "{} missing from catalog",
                bench.name()
            );
        }

        // All three synthetic load shapes, plus trace replay.
        assert!(catalog
            .iter()
            .any(|s| matches!(s.load, LoadShape::Steady { .. })));
        assert!(catalog
            .iter()
            .any(|s| matches!(s.load, LoadShape::Diurnal { .. })));
        assert!(catalog
            .iter()
            .any(|s| matches!(s.load, LoadShape::FlashCrowd { .. })));
        let replays: Vec<_> = catalog
            .iter()
            .filter(|s| matches!(s.load, LoadShape::Replay { .. }))
            .collect();
        assert!(
            replays.len() >= 3,
            "only {} replay scenarios",
            replays.len()
        );
        // The replay trio re-runs the *same* recording under different
        // controllers.
        assert!(replays.windows(2).all(|w| w[0].load == w[1].load));
        let mut replay_ctls: Vec<_> = replays.iter().map(|s| s.controller).collect();
        replay_ctls.dedup();
        assert!(replay_ctls.len() >= 3, "replay trio shares a controller");

        // Every anomaly kind appears in some campaign.
        for kind in firm_sim::anomaly::ANOMALY_KINDS {
            assert!(
                catalog
                    .iter()
                    .filter_map(|s| s.campaign.as_ref())
                    .any(|c| c.kinds.contains(&kind)),
                "{:?} never injected",
                kind
            );
        }

        // All four controllers appear.
        for ctl in [
            FleetController::Unmanaged,
            FleetController::Firm,
            FleetController::K8sHpa,
            FleetController::Aimd,
        ] {
            assert!(catalog.iter().any(|s| s.controller == ctl));
        }
    }

    #[test]
    fn controller_labels_round_trip_through_from_str() {
        for ctl in [
            FleetController::Unmanaged,
            FleetController::Firm,
            FleetController::K8sHpa,
            FleetController::Aimd,
        ] {
            let parsed: FleetController = ctl.label().parse().expect("label parses");
            assert_eq!(parsed, ctl, "label {:?} did not round-trip", ctl.label());
            // Case-insensitive.
            let parsed: FleetController = ctl.label().to_ascii_lowercase().parse().expect("parses");
            assert_eq!(parsed, ctl);
        }
        assert!("nonesuch".parse::<FleetController>().is_err());
        assert!("".parse::<FleetController>().is_err());
    }

    #[test]
    fn with_duration_clamps_warmup() {
        let s = builtin_catalog()
            .remove(0)
            .with_duration(SimDuration::from_secs(4));
        assert_eq!(s.duration, SimDuration::from_secs(4));
        assert!(s.warmup < s.duration);
    }
}
