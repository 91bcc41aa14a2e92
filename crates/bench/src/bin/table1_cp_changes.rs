//! Table 1: critical-path changes in the Fig. 2(b) compose-post subgraph
//! under performance-anomaly injection.
//!
//! Each case ⟨service, CP⟩ stresses the node hosting one service and
//! reports the mean individual (exclusive) latency of every service on
//! the dominant critical path, plus the end-to-end total — the same rows
//! the paper's Table 1 lists.

use std::collections::BTreeMap;

use firm_bench::{banner, paper_note, section, Args};
use firm_sim::spec::ClusterSpec;
use firm_sim::{AnomalyKind, AnomalySpec, NodeId, PoissonArrivals, SimDuration, Simulation};
use firm_trace::TracingCoordinator;
use firm_workload::fig2_compose_post;

const SERVICES: [&str; 6] = ["N", "V", "U", "I", "T", "C"];

fn run_case(label: &str, anomalies: &[AnomalySpec], seconds: u64, seed: u64) {
    let app = fig2_compose_post();
    // Seven services on seven nodes: one service per node, so stressing
    // a node stresses exactly one service.
    let mut sim = Simulation::builder(ClusterSpec::small(7), app, seed)
        .arrivals(Box::new(PoissonArrivals::new(8.0)))
        .build();
    let mut coord = TracingCoordinator::new(100_000);

    // Warm up, then inject.
    sim.run_for(SimDuration::from_secs(5));
    sim.drain_completed();
    for a in anomalies {
        sim.inject(*a);
    }
    let measure_from = sim.now();
    sim.run_for(SimDuration::from_secs(seconds));
    coord.ingest(sim.drain_completed());

    // Mean exclusive latency per service across dominant-CP entries, and
    // the dominant CP signature.
    let mut per_service: BTreeMap<u16, (f64, u64)> = BTreeMap::new();
    let mut signatures: BTreeMap<Vec<u16>, u64> = BTreeMap::new();
    let mut total = 0.0;
    let mut n = 0u64;
    for cp in coord.critical_paths_since(measure_from) {
        let sig: Vec<u16> = cp.signature().iter().map(|s| s.raw()).collect();
        *signatures.entry(sig).or_insert(0) += 1;
        for e in &cp.entries {
            let slot = per_service.entry(e.service.raw()).or_insert((0.0, 0));
            slot.0 += e.exclusive.as_millis_f64();
            slot.1 += 1;
        }
        total += cp.total.as_millis_f64();
        n += 1;
    }
    let dominant = signatures
        .iter()
        .max_by_key(|(_, c)| **c)
        .map(|(sig, c)| {
            let names: Vec<&str> = sig
                .iter()
                .map(|s| SERVICES.get(*s as usize).copied().unwrap_or("W"))
                .collect();
            format!("{} ({}% of traces)", names.join("->"), 100 * c / n.max(1))
        })
        .unwrap_or_else(|| "none".into());

    print!("  {label:<14}");
    for (idx, name) in SERVICES.iter().enumerate() {
        let (sum, cnt) = per_service.get(&(idx as u16)).copied().unwrap_or((0.0, 0));
        let mean = if cnt == 0 { 0.0 } else { sum / cnt as f64 };
        print!(" {name}={mean:>6.1}");
    }
    println!("  total={:>6.1}  CP: {dominant}", total / n.max(1) as f64);
}

fn main() {
    let args = Args::from_env();
    let seconds = args.u64("seconds", 40);
    let seed = args.u64("seed", 17);
    banner(
        "Table 1",
        "CP changes under performance-anomaly injection (per-service individual ms)",
    );
    section("cases (stressed service -> expected dominant CP)");

    // Placement is round-robin: service i lives on node i.
    let dur = SimDuration::from_secs(seconds + 5);
    run_case("baseline", &[], seconds, seed);
    run_case(
        "<V,CP1>",
        &[
            AnomalySpec::new(AnomalyKind::MemBwStress, NodeId(1), 1.0, dur),
            AnomalySpec::new(AnomalyKind::LlcStress, NodeId(1), 1.0, dur),
        ],
        seconds,
        seed + 1,
    );
    run_case(
        "<U,CP2>",
        &[AnomalySpec::new(
            AnomalyKind::CpuStress,
            NodeId(2),
            1.0,
            dur,
        )],
        seconds,
        seed + 2,
    );
    run_case(
        "<T,CP3>",
        &[AnomalySpec::new(
            AnomalyKind::CpuStress,
            NodeId(4),
            1.0,
            dur,
        )],
        seconds,
        seed + 3,
    );

    println!();
    paper_note("<V,CP1>: N=3.2 V=231.6 total=234.8 | <U,CP2>: N=2.3 U=344.6 I=28.9 total=375.8");
    paper_note("<T,CP3>: N=1.9 T=193.1 C=54.0 total=249.0 — the stressed service dominates its CP");
}
