//! Fig. 9(b): localization accuracy under multi-anomaly injection, per
//! benchmark and per processor architecture (x86 vs ppc64 clusters).
//!
//! The extractor trains online on single/multi-anomaly rounds, then its
//! accuracy is evaluated on windows with two simultaneous container-level
//! anomalies of random types — the paper reports 92.8–94.6% (overall
//! 93.8%) with no difference between ISAs.

use firm_core::extractor::CriticalComponentExtractor;
use firm_sim::instance::InstanceState;
use firm_sim::spec::{ClusterSpec, NodeSpec};
use firm_sim::{anomaly::ANOMALY_KINDS, AnomalySpec, InstanceId, SimDuration, SimRng};
use firm_trace::TracingCoordinator;
use firm_workload::apps::{Benchmark, ALL_BENCHMARKS};

use crate::{banner, calibrated_app, paper_note, poisson_sim, Args};

/// Trains on `train_rounds` violating rounds, evaluates on `eval_rounds`
/// multi-anomaly rounds on six `node`s; returns accuracy.
fn trial(bench: Benchmark, node: &NodeSpec, rounds: (usize, usize), rate: f64, seed: u64) -> f64 {
    let (train_rounds, eval_rounds) = rounds;
    let cluster = ClusterSpec {
        nodes: vec![node.clone(); 6],
    };
    let app = calibrated_app(bench, &cluster, rate, seed);
    let mut sim = poisson_sim(cluster, app, rate, seed);
    let mut coord = TracingCoordinator::new(300_000);
    let mut extractor = CriticalComponentExtractor::new(seed ^ 0x9B);
    let mut rng = SimRng::new(seed ^ 0xB00);
    let stressors: Vec<_> = ANOMALY_KINDS
        .iter()
        .copied()
        .filter(|k| k.contended_resource().is_some())
        .collect();

    sim.run_for(SimDuration::from_secs(4));
    coord.ingest(sim.drain_completed());
    let mut targets: Vec<InstanceId> = Vec::new();
    for cp in coord.critical_paths_since(firm_sim::SimTime::ZERO) {
        for e in &cp.entries {
            if !targets.contains(&e.instance) {
                targets.push(e.instance);
            }
        }
    }

    let mut correct = 0u64;
    let mut total = 0u64;
    for round in 0..train_rounds + eval_rounds {
        // One or two simultaneous anomalies (training mixes both so the
        // SVM sees the multi-anomaly regime too).
        let n_anoms = if round % 2 == 0 { 2 } else { 1 };
        let mut victims = Vec::new();
        for _ in 0..n_anoms {
            let kind = stressors[rng.index(stressors.len())];
            let target = targets[rng.index(targets.len())];
            let running = sim.instance(target).state == InstanceState::Running;
            if !running || victims.contains(&target) {
                continue;
            }
            sim.inject(AnomalySpec::at_instance(
                kind,
                target,
                rng.uniform_range(0.7, 1.0),
                SimDuration::from_secs(3),
            ));
            victims.push(target);
        }

        let window_start = sim.now();
        sim.run_for(SimDuration::from_secs(5));
        coord.ingest(sim.drain_completed());
        let features = extractor.features(coord.traces_since(window_start));
        for f in &features {
            let label = victims.contains(&f.instance);
            if round < train_rounds {
                extractor.train(f, label);
            } else {
                if extractor.classify(f) == label {
                    correct += 1;
                }
                total += 1;
            }
        }
        sim.run_for(SimDuration::from_secs(2));
        coord.ingest(sim.drain_completed());
        coord.evict_before(sim.now());
    }
    if total == 0 {
        return f64::NAN;
    }
    correct as f64 / total as f64
}

pub fn run(args: &Args) {
    let train_rounds = args.u64("train-rounds", 40) as usize;
    let eval_rounds = args.u64("rounds", 20) as usize;
    let rounds = (train_rounds, eval_rounds);
    let seed = args.u64("seed", 41);

    banner(
        "Fig. 9(b)",
        "Multi-anomaly localization accuracy across benchmarks and ISAs",
    );
    println!(
        "  {:<20} {:>12} {:>12}",
        "benchmark", "Intel Xeon", "IBM Power"
    );
    let isas = [
        (NodeSpec::x86_default(), 0),
        (NodeSpec::ppc64_default(), 100),
    ];
    let mut all = Vec::new();
    for (i, bench) in ALL_BENCHMARKS.iter().enumerate() {
        // Loads chosen so each app sits at moderate utilization.
        let rate = match bench {
            Benchmark::HotelReservation => 500.0,
            Benchmark::TrainTicket => 250.0,
            _ => 350.0,
        };
        let [x86, ppc] = isas
            .each_ref()
            .map(|(node, offset)| trial(*bench, node, rounds, rate, seed + offset + i as u64));
        println!(
            "  {:<20} {:>11.1}% {:>11.1}%",
            bench.name(),
            x86 * 100.0,
            ppc * 100.0
        );
        all.push(x86);
        all.push(ppc);
    }
    let overall = all.iter().sum::<f64>() / all.len() as f64;
    println!("\n  overall average accuracy: {:.1}%", overall * 100.0);
    paper_note("92.8–94.6% per benchmark, 93.8% overall; no difference between the two ISAs");
}
