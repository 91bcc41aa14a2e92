//! Tour of the performance-anomaly injector (§3.6): all seven anomaly
//! types and their observable effect on the Media Service benchmark.
//!
//! ```sh
//! cargo run --release --example anomaly_injection
//! ```

use firm::sim::anomaly::ANOMALY_KINDS;
use firm::sim::{spec::ClusterSpec, AnomalySpec, NodeId, PoissonArrivals, SimDuration, Simulation};
use firm::workload::apps::Benchmark;

fn p99(lats: &mut [f64]) -> f64 {
    lats.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    firm::sim::stats::sample_quantile(lats, 0.99) / 1e3
}

fn main() {
    let app = Benchmark::MediaService.build();
    let mut sim = Simulation::builder(ClusterSpec::small(4), app, 21)
        .arrivals(Box::new(PoissonArrivals::new(250.0)))
        .build();

    // Baseline.
    sim.run_for(SimDuration::from_secs(5));
    let mut base: Vec<f64> = sim
        .drain_completed()
        .iter()
        .filter(|r| !r.dropped)
        .map(|r| r.latency.as_micros() as f64)
        .collect();
    println!("baseline p99 = {:.2} ms\n", p99(&mut base));
    println!(
        "{:<28} {:<22} {:>10} {:>8}",
        "anomaly (Table 5)", "paper tools", "p99 (ms)", "drops"
    );

    // One at a time: inject into a container on the browse path (or the
    // node/cluster for workload and delay anomalies).
    let victim_svc = sim.app().service_by_name("movie-info").unwrap();
    for kind in ANOMALY_KINDS {
        let victim = sim.replicas(victim_svc)[0];
        let spec = if kind.contended_resource().is_some() {
            AnomalySpec::at_instance(kind, victim, 0.9, SimDuration::from_secs(5))
        } else {
            AnomalySpec::new(kind, NodeId(0), 0.9, SimDuration::from_secs(5))
        };
        sim.inject(spec);
        sim.run_for(SimDuration::from_secs(5));
        let done = sim.drain_completed();
        let mut lats: Vec<f64> = done
            .iter()
            .filter(|r| !r.dropped)
            .map(|r| r.latency.as_micros() as f64)
            .collect();
        println!(
            "{:<28} {:<22} {:>10.2} {:>8}",
            kind.label(),
            kind.paper_tools(),
            p99(&mut lats),
            done.len() - lats.len()
        );
        // Cool down between injections.
        sim.run_for(SimDuration::from_secs(4));
        sim.drain_completed();
    }
}
