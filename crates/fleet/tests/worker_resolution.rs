//! Pins the `firm-fleet-worker` binary resolution order:
//! `FleetConfig::worker_bin` beats the `FIRM_FLEET_WORKER` environment
//! variable, which beats the executable-sibling search. The env-var
//! fallback is how deployment scripts point a runner at an installed
//! worker without recompiling, so its precedence is a contract (also
//! documented in the README's multi-node section).
//!
//! Lives in its own integration-test binary because it mutates the
//! ambient environment, which would race with other tests spawning
//! workers in the same process.

mod util;

use std::path::PathBuf;

use firm_fleet::{FleetConfig, FleetRunner};
use firm_sim::SimDuration;

#[test]
fn worker_bin_resolution_prefers_config_then_env_var() {
    let real = util::worker_bin();

    // 1. Explicit config wins over everything, even a set env var.
    std::env::set_var("FIRM_FLEET_WORKER", "/nonexistent/from-env");
    let explicit = FleetConfig {
        worker_bin: Some(real.clone()),
        ..FleetConfig::default()
    };
    assert_eq!(explicit.resolve_worker_bin().unwrap(), real);

    // 2. With no config path, the env var is taken verbatim — even a
    // path that does not exist (it may be valid only on the remote
    // side of a wrapper script), so it must not fall through to the
    // sibling search.
    let from_env = FleetConfig::default();
    assert_eq!(
        from_env.resolve_worker_bin().unwrap(),
        PathBuf::from("/nonexistent/from-env")
    );

    // 3. And the env var alone is enough to run a real sharded fleet.
    std::env::set_var("FIRM_FLEET_WORKER", &real);
    let scenarios: Vec<_> = firm_fleet::builtin_catalog()
        .into_iter()
        .take(2)
        .map(|s| s.with_duration(SimDuration::from_secs(4)))
        .collect();
    let config = |workers| FleetConfig {
        threads: 2,
        workers,
        seed: 6,
        train_steps: 8,
        ..FleetConfig::default()
    };
    let sharded = FleetRunner::new(config(2)).run(&scenarios);
    std::env::remove_var("FIRM_FLEET_WORKER");
    let in_process = FleetRunner::new(config(0)).run(&scenarios);
    assert_eq!(in_process.report.to_json(), sharded.report.to_json());
}
