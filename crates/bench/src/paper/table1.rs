//! Table 1: critical-path changes in the Fig. 2(b) compose-post subgraph
//! under performance-anomaly injection.
//!
//! Each case ⟨service, CP⟩ stresses the node hosting one service and
//! reports the mean individual (exclusive) latency of every service on
//! the dominant critical path, plus the end-to-end total — the same rows
//! the paper's Table 1 lists.

use std::collections::BTreeMap;

use firm_sim::spec::ClusterSpec;
use firm_sim::{AnomalyKind, AnomalySpec, NodeId, SimDuration};
use firm_trace::TracingCoordinator;
use firm_workload::fig2_compose_post;

use crate::{banner, paper_note, poisson_sim, section, Args};

/// The services of the Fig. 2(b) subgraph, in service-id order.
const SERVICES: [&str; 6] = ["N", "V", "U", "I", "T", "C"];

/// The stressed cases: label, the stressed service's index in
/// [`SERVICES`] (placement is round-robin, so service `i` lives on node
/// `i`), and the anomalies that stress its node.
const CASES: [(&str, usize, &[AnomalyKind]); 3] = [
    (
        "<V,CP1>",
        1,
        &[AnomalyKind::MemBwStress, AnomalyKind::LlcStress],
    ),
    ("<U,CP2>", 2, &[AnomalyKind::CpuStress]),
    ("<T,CP3>", 4, &[AnomalyKind::CpuStress]),
];

/// One row of Table 1: a case measured over its critical paths.
#[derive(Debug, Clone)]
pub(crate) struct Row {
    /// `baseline` or `<service,CP>`.
    pub label: &'static str,
    /// Mean exclusive latency of each service in [`SERVICES`] over its
    /// critical-path entries, ms (0 when it is on none).
    pub mean_ms: [f64; 6],
    /// Mean end-to-end critical-path latency, ms.
    pub total_ms: f64,
    /// The most frequent critical path as service names, and the share
    /// of traces that took it, whole percent; `None` with no traces.
    pub dominant: Option<(Vec<&'static str>, u64)>,
}

/// Measures one case: `anomalies` stress their nodes after a 5 s warmup
/// and the next `seconds` are measured.
fn run_case(label: &'static str, anomalies: &[AnomalySpec], seconds: u64, seed: u64) -> Row {
    let app = fig2_compose_post();
    // Seven services on seven nodes: one service per node, so stressing
    // a node stresses exactly one service.
    let mut sim = poisson_sim(ClusterSpec::small(7), app, 8.0, seed);
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
    let dominant = signatures.iter().max_by_key(|(_, c)| **c).map(|(sig, c)| {
        let names = sig
            .iter()
            .map(|s| SERVICES.get(*s as usize).copied().unwrap_or("W"))
            .collect();
        (names, 100 * c / n.max(1))
    });
    let mut mean_ms = [0.0; 6];
    for (idx, mean) in mean_ms.iter_mut().enumerate() {
        let (sum, cnt) = per_service.get(&(idx as u16)).copied().unwrap_or((0.0, 0));
        *mean = if cnt == 0 { 0.0 } else { sum / cnt as f64 };
    }
    Row {
        label,
        mean_ms,
        total_ms: total / n.max(1) as f64,
        dominant,
    }
}

/// The baseline row, then one row per stressed case, each case
/// measured for `seconds` on its own seed.
pub(crate) fn rows(seconds: u64, seed: u64) -> Vec<Row> {
    let dur = SimDuration::from_secs(seconds + 5);
    let mut rows = vec![run_case("baseline", &[], seconds, seed)];
    for (i, (label, service, kinds)) in CASES.into_iter().enumerate() {
        let node = NodeId(service as u16);
        let anomalies: Vec<AnomalySpec> = kinds
            .iter()
            .map(|kind| AnomalySpec::new(*kind, node, 1.0, dur))
            .collect();
        rows.push(run_case(label, &anomalies, seconds, seed + 1 + i as u64));
    }
    rows
}

pub fn run(args: &Args) {
    let seconds = args.u64("seconds", 40);
    let seed = args.u64("seed", 17);
    banner(
        "Table 1",
        "CP changes under performance-anomaly injection (per-service individual ms)",
    );
    section("cases (stressed service -> expected dominant CP)");
    for row in rows(seconds, seed) {
        print!("  {:<14}", row.label);
        for (name, mean) in SERVICES.iter().zip(row.mean_ms) {
            print!(" {name}={mean:>6.1}");
        }
        let dominant = match &row.dominant {
            Some((names, pct)) => format!("{} ({pct}% of traces)", names.join("->")),
            None => "none".into(),
        };
        println!("  total={:>6.1}  CP: {dominant}", row.total_ms);
    }

    println!();
    paper_note("<V,CP1>: N=3.2 V=231.6 total=234.8 | <U,CP2>: N=2.3 U=344.6 I=28.9 total=375.8");
    paper_note("<T,CP3>: N=1.9 T=193.1 C=54.0 total=249.0 — the stressed service dominates its CP");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table 1 claim: stressing a service makes it the
    /// slowest hop of a critical path that runs through it, and for V
    /// and T that path is not the baseline's N->U->I.
    fn assert_stressed_service_takes_over_its_cp(seed: u64) {
        let rows = rows(10, seed);
        let (baseline, _) = rows[0].dominant.clone().expect("baseline traces");
        assert_eq!(baseline, ["N", "U", "I"], "seed {seed}: {:?}", rows[0]);
        for (row, (_, service, _)) in rows[1..].iter().zip(CASES) {
            let stressed = SERVICES[service];
            let (cp, _) = row.dominant.as_ref().expect("case traces");
            assert!(cp.contains(&stressed), "seed {seed}: {row:?}");
            let slowest = SERVICES
                .iter()
                .zip(row.mean_ms)
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(name, _)| *name);
            assert_eq!(slowest, Some(stressed), "seed {seed}: {row:?}");
            if stressed != "U" {
                assert_ne!(*cp, baseline, "seed {seed}: {row:?}");
            }
        }
    }

    #[test]
    fn stressed_service_dominates_its_critical_path_at_seed_17() {
        assert_stressed_service_takes_over_its_cp(17);
    }

    #[test]
    fn stressed_service_dominates_its_critical_path_at_seed_3() {
        assert_stressed_service_takes_over_its_cp(3);
    }
}
