//! Run the built-in scenario catalog round trip: train the shared
//! agent across all tenants, freeze it, deploy it back into the same
//! catalog's FIRM scenarios in inference mode (the other controllers
//! never read it, so their training rows stand), and print the
//! per-scenario train-vs-deploy deltas (Fig. 11b at fleet scale).
//!
//! ```sh
//! cargo run --release --example fleet_catalog
//! ```

use firm::fleet::{builtin_catalog, FleetConfig, FleetRunner, RoundTripReport, Scenario};
use firm::sim::SimDuration;
use firm::wire;

fn main() {
    // Half-length scenarios keep the round trip short: a training pass
    // over every scenario, then a deploy pass over the FIRM ones.
    let scenarios: Vec<Scenario> = builtin_catalog()
        .into_iter()
        .map(|s| s.with_duration(SimDuration::from_secs(15)))
        .collect();
    let config = FleetConfig {
        threads: 0, // one worker per core
        seed: 7,
        train_steps: 256,
        ..FleetConfig::default()
    };
    let threads = config.effective_threads();
    let runner = FleetRunner::new(config);

    println!(
        "fleet round trip: {} scenarios on {} worker thread(s)\n",
        scenarios.len(),
        threads
    );
    let start = std::time::Instant::now();
    let rt = runner.run_round_trip(&scenarios);
    let wall = start.elapsed();
    let report = rt.report();

    println!(
        "{:<22} {:<18} {:>5} {:>10} {:>12} {:>13} {:>9}",
        "scenario", "benchmark", "ctl", "completed", "train viol%", "deploy viol%", "Δ p99 ms"
    );
    for (s, d) in report.train.scenarios.iter().zip(&report.deltas) {
        println!(
            "{:<22} {:<18} {:>5} {:>10} {:>11.2}% {:>12.2}% {:>+9.1}",
            d.name,
            s.benchmark,
            d.controller,
            s.completions,
            d.train_violation_rate * 100.0,
            d.deploy_violation_rate * 100.0,
            (d.deploy_p99_us as f64 - d.train_p99_us as f64) / 1e3,
        );
    }

    let train = &report.train.totals;
    let deploy = &report.deploy.totals;
    println!(
        "\ntrain pass:  {} requests, {:.2}% SLO violations, worst p99 {:.1} ms",
        train.completions,
        train.violation_rate() * 100.0,
        train.worst_p99_us as f64 / 1e3
    );
    println!(
        "deploy pass: {} requests, {:.2}% SLO violations, worst p99 {:.1} ms",
        deploy.completions,
        deploy.violation_rate() * 100.0,
        deploy.worst_p99_us as f64 / 1e3
    );
    println!(
        "shared trainer: {} transitions pooled ({} SVM labels counted), {} DDPG updates",
        train.transitions, train.svm_examples, rt.train.trained_updates
    );
    println!(
        "frozen policy digest: {:016x}; round-trip digest: {:016x}",
        rt.policy.digest(),
        report.digest()
    );
    println!("(both bit-identical at any thread or subprocess-worker count)");

    // The report is wire-symmetric: its JSON decodes back to the exact
    // same report, so it can cross a process boundary and return.
    let bytes = report.to_json();
    let back: RoundTripReport = wire::decode_string(&bytes).expect("report round-trips");
    assert_eq!(back.digest(), report.digest());
    println!(
        "wire round trip: {} bytes decode back to digest {:016x}",
        bytes.len(),
        back.digest()
    );
    println!("wall clock: {:.2} s", wall.as_secs_f64());
}
