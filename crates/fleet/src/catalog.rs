//! Scale-factor catalog generation: a seeded sampler over the
//! topology × load-shape × anomaly-campaign × controller cross product.
//!
//! The hand-written [`crate::builtin_catalog`] is 12 scenarios with
//! unit-test-sized replica counts. [`generate_catalog`] replaces
//! hand-enumeration with a sampler driven by two numbers: a catalog
//! seed and a `scale_factor` (`sf`) knob in the spirit of the
//! clickgraph benchmark tables (`users = sf × 1000`). One knob jointly
//! scales:
//!
//! - **tenant count** — `8 + 4·⌊log₁₀ sf⌋` scenarios per catalog;
//! - **arrival rates** — every tenant's rate axis is multiplied by
//!   `√sf` (via [`firm_workload::LoadShape::scaled`]);
//! - **replica fan-out** — every service's initial replicas are
//!   multiplied by `√sf` (via [`firm_workload::scale_replicas`]), so
//!   offered load and serving capacity grow together;
//! - **cluster size** — each tenant's node count gets a `√sf − 1`
//!   bonus.
//!
//! # Determinism
//!
//! A generated catalog is a **pure function of `(seed, sf)`**: every
//! random draw for tenant `i` comes from a private
//! `Xoshiro256::new(mix64(seed, i))` stream, with a fixed draw order
//! and no ambient state (no clock, no environment, no global RNG).
//! Generated scenarios are plain data like hand-written ones, so they
//! inherit every standing fleet invariant — bit-identical reports,
//! pooled experience, and trained weights at any thread count, worker
//! count, transport, and under chaos
//! (`tests/scale_determinism.rs` pins this).
//!
//! Per-tenant draws deliberately never consult `sf`: only the tenant
//! *count* and the monotone multipliers (`√sf` rate/replica factors,
//! node bonus) depend on it. That makes population, rate, and tenant
//! totals structurally monotone nondecreasing in `sf` — tenant `i`
//! keeps its identity as the catalog grows around it.
//!
//! # Harsh tenants
//!
//! Every fifth tenant (including tenant 0, which is always FIRM) runs
//! a deliberately harsh configuration: a correlated all-stressor
//! campaign at near-maximal intensity, a tight 1.05× SLO, and the
//! SLO-penalized reward ([`firm_core::estimator::reward_penalized`]).
//! These pool genuinely negative rewards, which the generated-catalog
//! digest pins — the legacy catalog's reward is non-negative by
//! construction.

use firm_rng::{mix64, Xoshiro256};
use firm_sim::{AnomalyKind, SimDuration};
use firm_workload::apps::{Benchmark, ALL_BENCHMARKS};
use firm_workload::LoadShape;

use firm_core::injector::CampaignConfig;

use crate::scenario::{FleetController, Scenario};

/// ⌊log₁₀ n⌋ for n ≥ 1 (0 for n ∈ 1..=9, 1 for 10..=99, …).
fn decade(n: u64) -> u64 {
    let mut n = n.max(1);
    let mut d = 0;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

/// Integer square root: the largest `r` with `r·r ≤ n`.
fn isqrt(n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    // Float sqrt as a guess, corrected with overflow-checked integer
    // steps (an overflowing square is by definition > n).
    let mut r = (n as f64).sqrt() as u64;
    while r.checked_mul(r).is_none_or(|sq| sq > n) {
        r -= 1;
    }
    while (r + 1).checked_mul(r + 1).is_some_and(|sq| sq <= n) {
        r += 1;
    }
    r
}

/// Tenants at sf=1.
const BASE_TENANTS: usize = 8;
/// Extra tenants per decade of `scale_factor`.
const TENANTS_PER_DECADE: usize = 4;
/// Mean per-tenant arrival rate at sf=1 before jitter, req/s.
const BASE_RATE: f64 = 30.0;
/// Every generated scenario's control-loop period.
const CONTROL_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// The recipe for a generated catalog: a seed, the `scale_factor`
/// knob, and the scenario timing.
///
/// Two specs with equal fields generate byte-identical catalogs; there
/// is no other input.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogSpec {
    /// Catalog seed: the root of every per-tenant sampler stream.
    pub seed: u64,
    /// The scale knob (≥ 1). `users = scale_factor × 1000` in the
    /// clickgraph-table spirit: sf=1 is a dev-smoke catalog, sf=100 a
    /// hundred-fold-busier fleet.
    pub scale_factor: u64,
    /// Simulated duration per scenario.
    pub duration: SimDuration,
    /// Measurement warmup.
    pub warmup: SimDuration,
}

impl CatalogSpec {
    /// A spec for 8 s scenarios with a 2 s warmup. Every catalog has 8
    /// base tenants plus 4 per decade, ~30 req/s per tenant at sf=1, and
    /// a 1 s control interval.
    pub fn new(seed: u64, scale_factor: u64) -> Self {
        CatalogSpec {
            seed,
            scale_factor: scale_factor.max(1),
            duration: SimDuration::from_secs(8),
            warmup: SimDuration::from_secs(2),
        }
    }

    /// The simulated user population this catalog stands for
    /// (`sf × 1000`, the clickgraph convention). Reporting metadata
    /// only — the load the simulator sees is the rate axis.
    pub fn users(&self) -> u64 {
        self.scale_factor.saturating_mul(1000)
    }

    /// Number of tenants (scenarios) in the generated catalog:
    /// monotone nondecreasing in `scale_factor`.
    pub fn tenants(&self) -> usize {
        BASE_TENANTS + TENANTS_PER_DECADE * decade(self.scale_factor) as usize
    }

    /// The multiplier applied to every tenant's arrival-rate axis:
    /// `√sf`, so offered load tracks the replica fan-out below.
    pub fn rate_factor(&self) -> f64 {
        isqrt(self.scale_factor) as f64
    }

    /// The multiplier applied to every service's initial replica
    /// count: `√sf`.
    pub fn replica_factor(&self) -> u32 {
        isqrt(self.scale_factor).min(u32::MAX as u64) as u32
    }
}

/// The correlated multi-resource squeeze harsh tenants run: all five
/// stressors, near-maximal intensity, triple the default event rate,
/// long events.
fn harsh_campaign() -> CampaignConfig {
    CampaignConfig {
        lambda: 1.0,
        kinds: vec![
            AnomalyKind::CpuStress,
            AnomalyKind::LlcStress,
            AnomalyKind::MemBwStress,
            AnomalyKind::IoStress,
            AnomalyKind::NetBwStress,
        ],
        intensity: (0.85, 1.0),
        duration: (SimDuration::from_secs(4), SimDuration::from_secs(10)),
        ..CampaignConfig::default()
    }
}

/// Short report-name slug for a benchmark.
fn bench_slug(b: Benchmark) -> &'static str {
    match b {
        Benchmark::SocialNetwork => "social",
        Benchmark::MediaService => "media",
        Benchmark::HotelReservation => "hotel",
        Benchmark::TrainTicket => "train",
    }
}

/// Samples tenant `i` of the catalog. Every draw comes from the
/// tenant's private stream `mix64(spec.seed, i)` in a fixed order, and
/// none of the draws consults `scale_factor` — only the monotone
/// multipliers do (see the module docs for why).
fn sample_tenant(spec: &CatalogSpec, i: usize) -> Scenario {
    let mut rng = Xoshiro256::new(mix64(spec.seed, i as u64));

    // Draw 1: benchmark topology.
    let benchmark = ALL_BENCHMARKS[rng.next_below(ALL_BENCHMARKS.len() as u64) as usize];

    // Draw 2: controller. The first four tenants are pinned to the
    // four controllers (all-four coverage at any sf ≥ 1, since
    // BASE_TENANTS ≥ 4); later tenants draw FIRM-weighted so pooled
    // experience dominates the catalog.
    let controller = match i {
        0 => FleetController::Firm,
        1 => FleetController::K8sHpa,
        2 => FleetController::Aimd,
        3 => FleetController::Unmanaged,
        _ => match rng.next_below(8) {
            0..=4 => FleetController::Firm,
            5 => FleetController::K8sHpa,
            6 => FleetController::Aimd,
            _ => FleetController::Unmanaged,
        },
    };

    // Draws 3+: load shape. The base rate carries ±30% jitter; shape
    // parameters are relative, so `scaled` lifts the whole curve.
    let jitter = 0.7 + 0.6 * rng.uniform();
    let base = BASE_RATE * jitter;
    let shape = match rng.next_below(3) {
        0 => LoadShape::Steady { rate: base },
        1 => LoadShape::Diurnal {
            base,
            amplitude: 0.25 + 0.35 * rng.uniform(),
            period_secs: 30 + rng.next_below(31),
        },
        _ => LoadShape::FlashCrowd {
            base,
            multiplier: 2.0 + 2.0 * rng.uniform(),
            every_secs: 15 + rng.next_below(16),
            crest_secs: 3 + rng.next_below(4),
        },
    };
    let load = shape.scaled(spec.rate_factor());

    // Draw: cluster size — 3..=5 nodes plus the scale bonus.
    let nodes = (3 + rng.next_below(3)) as usize + (spec.replica_factor() as usize - 1);

    // Draws: anomaly campaign. Every fifth tenant (tenant 0 included,
    // and tenant 0 is always FIRM) is harsh: correlated all-stressor
    // squeeze, tight SLO, penalized reward.
    let harsh = i.is_multiple_of(5);
    let (campaign, slo_factor) = if harsh {
        (Some(harsh_campaign()), Some(1.05))
    } else {
        let campaign = match rng.next_below(4) {
            0 => None,
            1 => Some(CampaignConfig::stressors_only()),
            2 => {
                // A correlated pair of anomaly kinds.
                let kinds = firm_sim::anomaly::ANOMALY_KINDS;
                let a = kinds[rng.next_below(kinds.len() as u64) as usize];
                let b = kinds[rng.next_below(kinds.len() as u64) as usize];
                let mut pair = vec![a];
                if b != a {
                    pair.push(b);
                }
                Some(CampaignConfig {
                    kinds: pair,
                    ..CampaignConfig::default()
                })
            }
            _ => Some(CampaignConfig::default()),
        };
        (campaign, Some(1.4))
    };

    let shape_slug = match &load {
        LoadShape::Steady { .. } => "steady",
        LoadShape::Diurnal { .. } => "diurnal",
        LoadShape::FlashCrowd { .. } => "flash",
        LoadShape::Replay { .. } => "replay",
    };
    let name = format!(
        "sf{}-t{:03}-{}-{}-{}{}",
        spec.scale_factor,
        i,
        bench_slug(benchmark),
        shape_slug,
        controller.label().to_ascii_lowercase(),
        if harsh { "-harsh" } else { "" },
    );

    let mut scenario = Scenario::new(name, benchmark, nodes, load, campaign, controller);
    scenario.duration = spec.duration;
    scenario.control_interval = CONTROL_INTERVAL;
    scenario.warmup = spec.warmup;
    scenario.slo_factor = slo_factor;
    scenario.replica_factor = spec.replica_factor();
    // Generated catalogs uniformly use the penalized reward, so one
    // pooled log never mixes two reward scales.
    scenario.slo_penalty = true;
    scenario
}

/// Generates the catalog `spec` describes: [`CatalogSpec::tenants`]
/// scenarios, sampled as a pure function of `(spec.seed,
/// spec.scale_factor)` and the scenario timing.
pub fn generate_catalog(spec: &CatalogSpec) -> Vec<Scenario> {
    (0..spec.tenants())
        .map(|i| sample_tenant(spec, i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decade_and_isqrt_are_exact() {
        assert_eq!(decade(1), 0);
        assert_eq!(decade(9), 0);
        assert_eq!(decade(10), 1);
        assert_eq!(decade(99), 1);
        assert_eq!(decade(100), 2);
        assert_eq!(decade(10_000), 4);
        for n in 0..1_000u64 {
            let r = isqrt(n);
            assert!(r * r <= n && (r + 1) * (r + 1) > n, "isqrt({n}) = {r}");
        }
        assert_eq!(isqrt(u64::MAX), (1u64 << 32) - 1);
    }

    #[test]
    fn generation_is_a_pure_function_of_seed_and_sf() {
        let a = generate_catalog(&CatalogSpec::new(7, 10));
        let b = generate_catalog(&CatalogSpec::new(7, 10));
        assert_eq!(a, b);
        let c = generate_catalog(&CatalogSpec::new(8, 10));
        assert_ne!(a, c, "different seeds generated identical catalogs");
    }

    #[test]
    fn scale_factor_drives_tenants_rates_and_replicas() {
        let sf1 = CatalogSpec::new(7, 1);
        let sf100 = CatalogSpec::new(7, 100);
        assert_eq!(sf1.tenants(), 8);
        assert_eq!(sf100.tenants(), 16);
        assert_eq!(sf1.replica_factor(), 1);
        assert_eq!(sf100.replica_factor(), 10);
        assert_eq!(sf1.users(), 1_000);
        assert_eq!(sf100.users(), 100_000);
        let rate = |spec: &CatalogSpec| -> f64 {
            generate_catalog(spec)
                .iter()
                .map(|s| s.load.mean_rate())
                .sum()
        };
        assert!(rate(&sf100) > 10.0 * rate(&sf1));
    }

    #[test]
    fn every_fifth_tenant_is_harsh_and_tenant_zero_is_firm() {
        let catalog = generate_catalog(&CatalogSpec::new(7, 1));
        assert_eq!(catalog[0].controller, FleetController::Firm);
        for (i, s) in catalog.iter().enumerate() {
            assert!(s.slo_penalty, "generated tenant {i} lacks slo_penalty");
            if i.is_multiple_of(5) {
                assert!(
                    s.name.ends_with("-harsh"),
                    "tenant {i} not harsh: {}",
                    s.name
                );
                assert_eq!(s.slo_factor, Some(1.05));
                let c = s.campaign.as_ref().expect("harsh tenant has a campaign");
                assert_eq!(c.kinds.len(), 5, "harsh campaign is not all-stressor");
                assert!(c.intensity.0 >= 0.85);
                assert!(c.lambda >= 1.0);
            }
        }
    }

    /// Golden vectors for the sampler, mirroring the `scenario_seed`
    /// golden test: pinned (seed, sf, index) → (name, nodes,
    /// controller, load label, campaign kinds) tuples. If any of these
    /// move, the sampler's draw order changed and every pinned
    /// generated-catalog digest moves with it — bump deliberately.
    #[test]
    fn sampler_matches_golden_vectors() {
        // (seed, sf, index, name, nodes, controller, load label, campaign kinds)
        type Golden = (
            u64,
            u64,
            usize,
            &'static str,
            usize,
            &'static str,
            &'static str,
            usize,
        );
        let golden: [Golden; 10] = [
            (
                7,
                1,
                0,
                "sf1-t000-train-diurnal-firm-harsh",
                4,
                "FIRM",
                "diurnal@33\u{b1}51%",
                5,
            ),
            (
                7,
                1,
                1,
                "sf1-t001-media-steady-k8s",
                5,
                "K8S",
                "steady@37",
                2,
            ),
            (
                7,
                1,
                2,
                "sf1-t002-hotel-diurnal-aimd",
                3,
                "AIMD",
                "diurnal@38\u{b1}33%",
                5,
            ),
            (
                7,
                1,
                3,
                "sf1-t003-hotel-diurnal-none",
                4,
                "none",
                "diurnal@26\u{b1}56%",
                0,
            ),
            (
                7,
                1,
                7,
                "sf1-t007-social-diurnal-aimd",
                3,
                "AIMD",
                "diurnal@26\u{b1}47%",
                0,
            ),
            (
                7,
                10,
                0,
                "sf10-t000-train-diurnal-firm-harsh",
                6,
                "FIRM",
                "diurnal@100\u{b1}51%",
                5,
            ),
            (
                7,
                10,
                10,
                "sf10-t010-hotel-flash-aimd-harsh",
                5,
                "AIMD",
                "flash@106x3",
                5,
            ),
            (
                7,
                100,
                15,
                "sf100-t015-train-diurnal-firm-harsh",
                14,
                "FIRM",
                "diurnal@375\u{b1}44%",
                5,
            ),
            (
                11,
                1,
                0,
                "sf1-t000-media-flash-firm-harsh",
                5,
                "FIRM",
                "flash@23x2",
                5,
            ),
            (
                11,
                100,
                15,
                "sf100-t015-social-flash-firm-harsh",
                13,
                "FIRM",
                "flash@235x2",
                5,
            ),
        ];
        for (seed, sf, idx, name, nodes, ctl, load, kinds) in golden {
            let catalog = generate_catalog(&CatalogSpec::new(seed, sf));
            let s = &catalog[idx];
            let got_kinds = s.campaign.as_ref().map_or(0, |c| c.kinds.len());
            assert_eq!(
                (
                    s.name.as_str(),
                    s.nodes,
                    s.controller.label(),
                    s.load.label().as_str(),
                    got_kinds
                ),
                (name, nodes, ctl, load, kinds),
                "sampler drifted at (seed {seed}, sf {sf}, index {idx})"
            );
        }
    }
}
