//! Fig. 3: distributions of end-to-end latency grouped by critical path
//! — the min-latency CP vs the max-latency CP for each benchmark.
//!
//! The paper reports up to 1.6× difference in median and 2.5× in p99
//! across CPs of the same application under anomaly injection.

use std::collections::BTreeMap;

use firm_core::injector::{AnomalyInjector, CampaignConfig};
use firm_sim::spec::ClusterSpec;
use firm_sim::{SimDuration, SimTime};
use firm_trace::TracingCoordinator;
use firm_workload::apps::{Benchmark, ALL_BENCHMARKS};

use crate::{banner, factor, paper_note, poisson_sim, quantiles, section, Args};

fn run_benchmark(bench: Benchmark, seconds: u64, rate: f64, seed: u64) {
    let app = bench.build();
    let mut sim = poisson_sim(ClusterSpec::paper_cluster(), app, rate, seed);
    let mut coord = TracingCoordinator::new(400_000);
    // Resource stressors only: workload surges congest every CP at once
    // and blur the per-CP comparison the figure is after.
    let mut injector = AnomalyInjector::new(CampaignConfig::stressors_only(), seed ^ 0xF1D);

    let step = SimDuration::from_millis(500);
    let end = sim.now() + SimDuration::from_secs(seconds);
    while sim.now() < end {
        injector.tick(&mut sim);
        sim.run_for(step);
        coord.ingest(sim.drain_completed());
    }

    // Group end-to-end latencies by CP signature (per request type so
    // routes are comparable); pick the request type with the most
    // distinct signatures.
    let mut groups: BTreeMap<(u16, Vec<u16>), Vec<f64>> = BTreeMap::new();
    for t in coord.traces_since(SimTime::ZERO) {
        if t.dropped {
            continue;
        }
        let sig: Vec<u16> = t.cp.signature().iter().map(|s| s.raw()).collect();
        groups
            .entry((t.request_type.raw(), sig))
            .or_default()
            .push(t.latency.as_micros() as f64);
    }
    // Span count, median and p99 (us) and sample count of every CP with
    // enough samples to compare; Min/Max-CP are the first of the lowest
    // and of the highest median.
    let mut cps: Vec<(usize, f64, f64, usize)> = Vec::new();
    for ((_, sig), lats) in &groups {
        if lats.len() < 50 {
            continue;
        }
        let [median, p99] = quantiles(lats.clone(), [0.5, 0.99]);
        cps.push((sig.len(), median, p99, lats.len()));
    }
    let min = cps.iter().min_by(|a, b| a.1.total_cmp(&b.1));
    let max = cps.iter().rev().max_by(|a, b| a.1.total_cmp(&b.1));
    let (Some(min), Some(max)) = (min, max) else {
        println!("  (not enough CP diversity at this load)");
        return;
    };
    for (name, (spans, med, p99, n)) in [("Min", min), ("Max", max)] {
        println!(
            "  {name}-CP: median={:>8.2}ms p99={:>8.2}ms (n={n}, {spans} spans)",
            med / 1e3,
            p99 / 1e3
        );
    }
    println!(
        "  spread: median {}  p99 {}  ({} distinct CPs observed)",
        factor(max.1 / 1e3, min.1 / 1e3),
        factor(max.2 / 1e3, min.2 / 1e3),
        groups.len()
    );
}

pub fn run(args: &Args) {
    let seconds = args.u64("seconds", 60);
    let rate = args.f64("rate", 150.0);
    let seed = args.u64("seed", 23);
    banner(
        "Fig. 3",
        "End-to-end latency distributions of min- vs max-latency critical paths",
    );
    for (i, bench) in ALL_BENCHMARKS.iter().enumerate() {
        section(bench.name());
        run_benchmark(*bench, seconds, rate, seed + i as u64);
    }
    println!();
    paper_note("across CPs: up to 1.6x difference in median and 2.5x in p99 (Fig. 3a–d)");
}
