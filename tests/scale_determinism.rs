//! Generated catalogs pinned exactly as hard as the hand-written one.
//!
//! `generate_catalog` is a pure function of `(catalog seed,
//! scale_factor)`, and generated scenarios are plain data like
//! hand-written ones — so every standing fleet invariant must hold for
//! them unchanged. This suite pins the (catalog seed 7, sf=1)
//! generated catalog the way `tests/fleet_determinism.rs` pins the
//! seed-7 builtin catalog: one golden digest, bit-identical at 1/2/4
//! threads, across 2 subprocess workers, and under seeded chaos fault
//! plans.
//!
//! It also checks what generated harsh tenants (correlated
//! all-stressor squeezes under a tight SLO with the penalized reward)
//! are for: they pool genuinely *negative* rewards, which the legacy
//! catalog's non-negative reward never produces, and the generated
//! digest pins the runs that produce them.

use std::collections::BTreeSet;
use std::io::BufReader;
use std::net::TcpListener;
use std::sync::atomic::Ordering;

use firm::chaos::{ChaosTransport, FaultPlan};
use firm::fleet::transport::{TcpTransport, Transport};
use firm::fleet::worker::{serve_session, ServeOptions};
use firm::fleet::{generate_catalog, CatalogSpec, FleetConfig, FleetResult, FleetRunner, Scenario};
use firm::sim::SimDuration;

/// The golden digest for `generate_catalog(CatalogSpec::new(7, 1))`
/// run with fleet seed 7 (the catalog's own default durations). Moving
/// it means the sampler, the scenario wire shape, or the execution
/// path changed behavior — bump deliberately, re-pinning the sf=10 and
/// sf=100 digests in `benchmark/expected.json` in the same change.
const SF1_SEED7_DIGEST: &str = "6a71ecd96f3fbc64";

fn sf1_catalog() -> Vec<Scenario> {
    generate_catalog(&CatalogSpec::new(7, 1))
}

fn config(threads: usize) -> FleetConfig {
    FleetConfig {
        threads,
        seed: 7,
        train_steps: 64,
        ..FleetConfig::default()
    }
}

/// Spawns an in-process TCP worker (accept loop + one serve_session
/// per connection) and returns its `host:port` — the chaos-soak
/// pattern, reused so the chaos rung is self-contained.
fn spawn_tcp_worker() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind worker listener");
    let addr = listener.local_addr().expect("worker addr").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            std::thread::spawn(move || {
                stream.set_nodelay(true).ok();
                let Ok(read_half) = stream.try_clone() else {
                    return;
                };
                let _ = serve_session(BufReader::new(read_half), stream, &ServeOptions::default());
            });
        }
    });
    addr
}

/// The headline golden: the (catalog seed 7, sf=1) generated catalog
/// produces one pinned digest — bit-identical report bytes, pooled
/// experience, and trained weights at 1, 2, and 4 threads and across
/// two subprocess workers. The sf=10 catalog
/// (shortened to 2 simulated seconds) runs the same ladder unpinned:
/// sf=1 tenants all have `replica_factor` 1, so it is the input that
/// sends scaled-out applications through the pipe transport.
#[test]
fn generated_sf1_seed7_digest_is_pinned_across_threads_workers_and_shards() {
    let sf10_short: Vec<Scenario> = generate_catalog(&CatalogSpec::new(7, 10))
        .into_iter()
        .map(|s| s.with_duration(SimDuration::from_secs(2)))
        .collect();
    assert!(sf10_short.iter().any(|s| s.replica_factor > 1));

    for (label, catalog, pinned) in [
        ("sf=1", sf1_catalog(), Some(SF1_SEED7_DIGEST)),
        ("sf=10", sf10_short, None),
    ] {
        let base = FleetRunner::new(config(1)).run(&catalog);
        if let Some(pinned) = pinned {
            assert_eq!(
                format!("{:016x}", base.report.digest()),
                pinned,
                "the generated {label} catalog digest moved — sampler or execution drifted"
            );
        }
        let assert_matches_base = |r: &FleetResult, what: &str| {
            assert_eq!(
                base.report.to_json(),
                r.report.to_json(),
                "generated {label} report bytes diverged {what}"
            );
            assert_eq!(
                firm::wire::encode_string(&base.pooled),
                firm::wire::encode_string(&r.pooled),
                "generated {label} pooled experience diverged {what}"
            );
            assert_eq!(
                base.estimator.shared_agent().export_weights(),
                r.estimator.shared_agent().export_weights(),
                "generated {label} weights diverged {what}"
            );
        };

        for threads in [2usize, 4] {
            let r = FleetRunner::new(config(threads)).run(&catalog);
            assert_matches_base(&r, &format!("at {threads} threads"));
        }

        // Across the process boundary: two supervised subprocess workers
        // exercise the v6 scenario wire codec (replica_factor, slo_penalty)
        // end to end.
        let workers = FleetRunner::new(config(1).workers(2)).run(&catalog);
        assert_matches_base(&workers, "across the subprocess boundary");
    }
}

/// The same golden under seeded chaos: fault plans over TCP workers
/// (crashes, drops, truncation, corruption, blackholes) may cost
/// retries and reconnects but can never move a generated-catalog byte.
#[test]
fn generated_catalog_survives_chaos_bit_identically() {
    let catalog = sf1_catalog();
    let config = |timeout_ms: u64| FleetConfig {
        threads: 2,
        seed: 7,
        train_steps: 64,
        request_timeout_ms: timeout_ms,
        ..FleetConfig::default()
    };
    let baseline = FleetRunner::new(config(0)).run(&catalog);

    let addrs: Vec<String> = (0..2).map(|_| spawn_tcp_worker()).collect();
    let mut covered = BTreeSet::new();
    let mut total_injected = 0u64;
    for chaos_seed in 1..=4u64 {
        let mut transports: Vec<Box<dyn Transport>> = Vec::new();
        let mut counters = Vec::new();
        for (slot, addr) in addrs.iter().enumerate() {
            let plan = FaultPlan::derive(chaos_seed, slot);
            covered.extend(plan.scheduled().map(|f| f.name()));
            let chaos = ChaosTransport::new(Box::new(TcpTransport::new(addr.clone())), plan);
            counters.push(chaos.injection_counter());
            transports.push(Box::new(chaos));
        }
        // A short request timeout turns planned blackholes into quick
        // reaps; timeouts are recovery machinery, never output.
        let chaotic = FleetRunner::new(config(2_000)).run_with_transports(&catalog, transports);
        total_injected += counters
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum::<u64>();

        assert_eq!(
            baseline.report.to_json(),
            chaotic.report.to_json(),
            "generated-catalog report bytes moved under chaos seed {chaos_seed}"
        );
        assert_eq!(
            format!("{:016x}", chaotic.report.digest()),
            SF1_SEED7_DIGEST,
            "generated-catalog digest moved under chaos seed {chaos_seed}"
        );
        assert_eq!(
            baseline.pooled, chaotic.pooled,
            "generated-catalog pooled experience moved under chaos seed {chaos_seed}"
        );
        assert_eq!(
            baseline.estimator.shared_agent().export_weights(),
            chaotic.estimator.shared_agent().export_weights(),
            "generated-catalog weights moved under chaos seed {chaos_seed}"
        );
    }
    assert!(
        total_injected >= 1,
        "four chaos seeds never injected a fault — the chaos rung exercised nothing"
    );
}

/// A generated catalog at training length: 16 simulated seconds pools
/// more transitions than one minibatch (batch 64), so the central
/// trainer genuinely updates and weight assertions are non-vacuous.
fn training_catalog() -> Vec<Scenario> {
    sf1_catalog()
        .into_iter()
        .map(|s| s.with_duration(SimDuration::from_secs(16)))
        .collect()
}

/// Negative-reward regression: the generated harsh tenants (tight
/// 1.05× SLO, correlated all-stressor campaigns, penalized reward)
/// must put genuinely negative rewards into the pooled experience log
/// — the signal the legacy catalog structurally cannot produce.
#[test]
fn generated_harsh_scenarios_pool_negative_rewards() {
    let catalog = training_catalog();
    assert!(
        catalog.iter().any(|s| s.name.ends_with("-harsh")),
        "generated catalog lost its harsh tenants"
    );
    let result = FleetRunner::new(FleetConfig {
        threads: 4,
        seed: 7,
        train_steps: 16,
        ..FleetConfig::default()
    })
    .run(&catalog);

    let negative = result
        .pooled
        .transitions
        .iter()
        .filter(|(_, t)| t.reward < 0.0)
        .count();
    assert!(
        negative > 0,
        "no negative-reward transitions in {} pooled — harsh tenants are toothless",
        result.pooled.transitions.len()
    );
    let min_reward = result
        .pooled
        .transitions
        .iter()
        .map(|(_, t)| t.reward)
        .fold(f64::INFINITY, f64::min);
    assert!(
        min_reward < -0.1,
        "worst pooled reward is {min_reward:.3} — the squeeze never went deep"
    );
    // The violations driving those rewards show up in the report too.
    let harsh_violations: u64 = result
        .report
        .scenarios
        .iter()
        .filter(|s| s.name.ends_with("-harsh") && s.controller == "FIRM")
        .map(|s| s.slo_violations)
        .sum();
    assert!(
        harsh_violations > 0,
        "harsh FIRM tenants reported zero SLO violations"
    );
}
