//! §3.1 overhead claim: distributed tracing and telemetry collection
//! cost <0.2% throughput and <0.11% latency in the paper's deployment.
//!
//! Inside the simulator, tracing is free *in simulated time* by
//! construction; the honest reproduction of the claim is the harness-side
//! cost: the wall-clock overhead of span collection, graph construction
//! and CP extraction relative to the simulation itself (both arms drain
//! the telemetry window, which consumers read in place).

use std::time::Instant;

use firm_sim::spec::ClusterSpec;
use firm_sim::SimDuration;
use firm_trace::TracingCoordinator;
use firm_workload::apps::Benchmark;

use crate::{banner, paper_note, poisson_sim, section, Args};

fn wall_clock(seconds: u64, rate: f64, seed: u64, with_tracing: bool) -> (f64, u64) {
    let app = Benchmark::SocialNetwork.build();
    let mut sim = poisson_sim(ClusterSpec::small(6), app, rate, seed);
    let mut coord = TracingCoordinator::new(1_000_000);
    let t0 = Instant::now();
    let mut traces = 0u64;
    for _ in 0..seconds {
        sim.run_for(SimDuration::from_secs(1));
        let completed = sim.drain_completed();
        sim.drain_telemetry();
        traces += completed.len() as u64;
        if with_tracing {
            coord.ingest(completed);
            // The coordinator pre-extracts CPs at ingestion; touch the
            // query path too.
            let _ = coord
                .critical_paths_since(firm_sim::SimTime::from_secs(
                    sim.now().as_micros() / 1_000_000 - 1,
                ))
                .len();
            coord.evict_before(firm_sim::SimTime::from_micros(
                sim.now().as_micros().saturating_sub(30_000_000),
            ));
        }
    }
    (t0.elapsed().as_secs_f64(), traces)
}

pub fn run(args: &Args) {
    let seconds = args.u64("seconds", 30);
    let rate = args.f64("rate", 300.0);
    let seed = args.u64("seed", 61);

    banner(
        "§3.1 overhead",
        "Trace ingest + critical-path extraction overhead (harness wall-clock)",
    );

    // Interleave repetitions to damp machine noise.
    let mut with = 0.0;
    let mut without = 0.0;
    let mut traces = 0;
    for rep in 0..3 {
        let (w, t) = wall_clock(seconds, rate, seed + rep, true);
        let (wo, _) = wall_clock(seconds, rate, seed + rep, false);
        with += w;
        without += wo;
        traces += t;
    }

    section("results");
    println!("  simulated load: {rate} req/s x {seconds}s x 3 reps = {traces} traces");
    println!("  wall clock without tracing: {without:.3}s");
    println!("  wall clock with  tracing:   {with:.3}s");
    let overhead = (with - without) / without * 100.0;
    println!("  harness overhead: {overhead:.2}%");
    println!(
        "  per-trace cost: {:.1} us (ingest + graph build + CP extraction)",
        (with - without) * 1e6 / traces as f64
    );
    println!("\n  in-simulation overhead: 0 by construction (spans are recorded out of band,");
    println!("  as the paper's agents do off the request path)");
    paper_note("<0.2% throughput loss and <0.11% latency loss from tracing (§3.1)");
}
