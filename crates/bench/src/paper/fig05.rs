//! Fig. 5 (Insight 3): the scale-up vs scale-out trade-off moves with
//! user load, with the contended resource, and across applications.
//!
//! For a sweep of loads, a hot service's node suffers CPU- or memory-
//! bandwidth contention; mitigation is either *scale-up* (double the
//! quota / reserve bandwidth on the same node) or *scale-out* (add a
//! replica on a clean node). Median end-to-end latency is reported per
//! (load, resource, strategy).

use firm_sim::spec::ClusterSpec;
use firm_sim::{AnomalyKind, AnomalySpec, Command, ResourceKind, SimDuration};
use firm_workload::apps::Benchmark;

use crate::{banner, paper_note, poisson_sim, section, summarize_us, Args};

#[derive(Clone, Copy, PartialEq)]
enum Strategy {
    ScaleUp,
    ScaleOut,
}

/// The four points measured at each load, in column order.
const POINTS: [(AnomalyKind, Strategy); 4] = [
    (AnomalyKind::CpuStress, Strategy::ScaleUp),
    (AnomalyKind::CpuStress, Strategy::ScaleOut),
    (AnomalyKind::MemBwStress, Strategy::ScaleUp),
    (AnomalyKind::MemBwStress, Strategy::ScaleOut),
];

fn run_point(
    bench: Benchmark,
    hot_service: &str,
    load: f64,
    resource: AnomalyKind,
    strategy: Strategy,
    seconds: u64,
    seed: u64,
) -> f64 {
    let app = bench.build();
    let mut sim = poisson_sim(ClusterSpec::paper_cluster(), app, load, seed);
    let svc = sim
        .app()
        .service_by_name(hot_service)
        .expect("service exists");
    let inst = sim.replicas(svc)[0];
    let node = sim.instance(inst).node;

    // Contend the hot node for the whole run.
    sim.inject(AnomalySpec::new(
        resource,
        node,
        0.85,
        SimDuration::from_secs(seconds + 10),
    ));

    match strategy {
        Strategy::ScaleUp => {
            let current = sim.instance(inst).cpu_limit();
            sim.apply(Command::SetPartition {
                instance: inst,
                kind: ResourceKind::Cpu,
                amount: current * 2.0,
            });
            if resource == AnomalyKind::MemBwStress {
                // The MBA move: reserve bandwidth for the victim.
                sim.apply(Command::SetPartition {
                    instance: inst,
                    kind: ResourceKind::MemBw,
                    amount: 6_000.0,
                });
            }
        }
        Strategy::ScaleOut => {
            sim.apply(Command::ScaleOut {
                service: svc,
                warm: true,
            });
        }
    }

    sim.run_for(SimDuration::from_secs(5));
    sim.drain_completed();
    sim.run_for(SimDuration::from_secs(seconds));
    let lats: Vec<f64> = sim
        .drain_completed()
        .into_iter()
        .filter(|r| !r.dropped)
        .map(|r| r.latency.as_micros() as f64)
        .collect();
    summarize_us(lats).p50_ms
}

fn sweep(bench: Benchmark, hot: &str, loads: &[f64], seconds: u64, seed: u64) {
    println!(
        "  {:<10} | {:>9} {:>9} | {:>9} {:>9}   (median end-to-end, ms)",
        "load r/s", "up/CPU", "out/CPU", "up/Mem", "out/Mem"
    );
    for (i, &load) in loads.iter().enumerate() {
        let s = seed + i as u64 * 10;
        let [up_cpu, out_cpu, up_mem, out_mem] = std::array::from_fn(|j| {
            let (resource, strategy) = POINTS[j];
            run_point(bench, hot, load, resource, strategy, seconds, s + j as u64)
        });
        let mark = |a: f64, b: f64| if a <= b { "*" } else { " " };
        println!(
            "  {:<10} | {:>8.2}{} {:>8.2}{} | {:>8.2}{} {:>8.2}{}",
            load,
            up_cpu,
            mark(up_cpu, out_cpu),
            out_cpu,
            mark(out_cpu, up_cpu),
            up_mem,
            mark(up_mem, out_mem),
            out_mem,
            mark(out_mem, up_mem),
        );
    }
}

pub fn run(args: &Args) {
    let seconds = args.u64("seconds", 20);
    let seed = args.u64("seed", 31);
    let loads = args.list("loads", &[50.0, 100.0, 200.0, 300.0, 450.0, 600.0]);

    banner(
        "Fig. 5",
        "Scale-up vs scale-out across load, per contended resource (* = winner)",
    );
    section("Social Network (upper)");
    sweep(
        Benchmark::SocialNetwork,
        "compose-post",
        &loads,
        seconds,
        seed,
    );
    section("Train-Ticket Booking (lower)");
    sweep(
        Benchmark::TrainTicket,
        "ts-travel",
        &loads,
        seconds,
        seed + 100,
    );
    println!();
    paper_note("at low load scale-up wins for both resources; at high load scale-out takes over for CPU while scale-up holds for memory; inflection points differ across applications");
}
