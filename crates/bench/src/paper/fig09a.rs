//! Fig. 9(a): ROC curves of single-anomaly SLO-violation localization.
//!
//! Following §4.2's protocol: for each anomaly type, a critical-path
//! container is injected with an intensity drawn from the range that
//! *triggers SLO violations*; rounds whose injection fails to break the
//! SLO are discarded. The first phase trains the incremental SVM online
//! from the injector's ground truth; the second phase collects decision
//! scores and labels, from which the per-type ROC and AUC are computed.

use std::collections::{BTreeMap, BTreeSet};

use firm_core::extractor::CriticalComponentExtractor;
use firm_ml::metrics::{auc, roc_curve};
use firm_sim::spec::ClusterSpec;
use firm_sim::{
    AnomalyKind, AnomalySpec, CompletedRequest, InstanceId, SimDuration, SimRng, SimTime,
};
use firm_trace::{ExecutionHistoryGraph, TracingCoordinator};
use firm_workload::apps::Benchmark;

use crate::{banner, calibrated_app, paper_note, poisson_sim, quantiles, section, Args};

/// Whether `TracingCoordinator::ingest` keeps `r`: it keeps a trace
/// exactly when `ExecutionHistoryGraph::from_spans` builds its graph.
fn stored(r: &CompletedRequest) -> bool {
    ExecutionHistoryGraph::from_spans(r.spans.clone()).is_some()
}

/// Mean span latency per instance (raw id), us, over the drained
/// requests `traces_since(since)` would return once they are ingested:
/// those the store accepts that finished at or after `since`. The store
/// keeps critical paths, not spans, so the means are taken before
/// ingest.
fn mean_span_us<'a>(
    requests: impl IntoIterator<Item = &'a CompletedRequest>,
    since: SimTime,
) -> BTreeMap<u32, f64> {
    let mut sums: BTreeMap<u32, (f64, u64)> = BTreeMap::new();
    for r in requests {
        if r.finished < since || !stored(r) {
            continue;
        }
        for s in &r.spans {
            let e = sums.entry(s.instance.raw()).or_insert((0.0, 0));
            e.0 += s.duration().as_micros() as f64;
            e.1 += 1;
        }
    }
    sums.into_iter()
        .map(|(i, (s, n))| (i, s / n as f64))
        .collect()
}

/// One localization experiment for one anomaly kind; returns
/// (scores, labels) from the evaluation phase.
fn run_kind(
    kind: AnomalyKind,
    eval_rounds: usize,
    train_rounds: usize,
    rate: f64,
    seed: u64,
) -> (Vec<f64>, Vec<bool>) {
    let cluster = ClusterSpec::small(6);
    // A tight tail SLO (1.4x healthy p99): a single stressed container
    // on the CP is enough to breach it, as in the paper's setup.
    let app = calibrated_app(Benchmark::SocialNetwork, &cluster, rate, seed);
    let slos: Vec<u64> = app.request_types.iter().map(|r| r.slo_latency_us).collect();
    let mut sim = poisson_sim(cluster, app, rate, seed);
    let mut coord = TracingCoordinator::new(200_000);
    let mut extractor = CriticalComponentExtractor::new(seed ^ 0x90C);
    let mut rng = SimRng::new(seed ^ 0xABC);

    // Warmup: learn which instances appear on critical paths — those
    // are the Extractor's candidates and the injection targets — and
    // capture per-instance baseline span latencies.
    sim.run_for(SimDuration::from_secs(4));
    let warmup = sim.drain_completed();
    let baseline = mean_span_us(&warmup, SimTime::ZERO);
    coord.ingest(warmup);
    let mut cp_instances: BTreeSet<u32> = BTreeSet::new();
    for cp in coord.critical_paths_since(SimTime::ZERO) {
        for e in &cp.entries {
            cp_instances.insert(e.instance.raw());
        }
    }
    let targets: Vec<InstanceId> = cp_instances.into_iter().map(InstanceId).collect();

    let mut scores = Vec::new();
    let mut labels = Vec::new();
    let mut done_train = 0usize;
    let mut done_eval = 0usize;
    let budget = (train_rounds + eval_rounds) * 6;
    // Rolling reference: the previous cool-down window's p99 per request
    // type, so violations are attributed to the injection rather than to
    // background-load noise.
    let mut reference_p99: Vec<f64> = slos.iter().map(|s| *s as f64 / 1.4).collect();

    for _ in 0..budget {
        if done_eval >= eval_rounds {
            break;
        }
        let target = targets[rng.index(targets.len())];
        let intensity = rng.uniform_range(0.7, 1.0);
        let is_workload = kind == AnomalyKind::WorkloadVariation;
        if is_workload {
            sim.inject(AnomalySpec::new(
                kind,
                firm_sim::NodeId(0),
                intensity,
                SimDuration::from_secs(3),
            ));
        } else {
            sim.inject(AnomalySpec::at_instance(
                kind,
                target,
                intensity,
                SimDuration::from_secs(3),
            ));
        }

        // The measurement window runs past the anomaly so that requests
        // stalled by it still complete inside the window.
        let window_start = sim.now();
        sim.run_for(SimDuration::from_secs(5));
        let drained = sim.drain_completed();
        // For workload surges the culprits are the instances that
        // actually degraded (≥1.5x their baseline span latency).
        let window = mean_span_us(&drained, window_start);
        coord.ingest(drained);
        sim.drain_telemetry();

        // §4.2: only rounds whose injection triggers an SLO violation
        // enter the study — and the violation must stand out against the
        // preceding quiet window (1.4x), not just against the SLO.
        let mut violated = false;
        for (rt, slo) in slos.iter().enumerate() {
            let lats = coord.latencies_since(window_start, firm_sim::RequestTypeId(rt as u16));
            if lats.is_empty() {
                continue;
            }
            let [p99] = quantiles(lats, [0.99]);
            if p99 > *slo as f64 && p99 > reference_p99[rt] * 1.4 {
                violated = true;
            }
        }

        if violated {
            let traces: Vec<_> = coord.traces_since(window_start).cloned().collect();
            let degraded = |i: InstanceId| match (baseline.get(&i.raw()), window.get(&i.raw())) {
                (Some(base), Some(mean)) => *mean > base * 1.5,
                _ => false,
            };
            let features = extractor.features(traces.iter());
            for f in &features {
                let label = if is_workload {
                    degraded(f.instance)
                } else {
                    f.instance == target
                };
                if done_train < train_rounds {
                    extractor.train(f, label);
                } else {
                    scores.push(extractor.decision_value(f));
                    labels.push(label);
                }
            }
            if done_train < train_rounds {
                done_train += 1;
            } else {
                done_eval += 1;
            }
        }

        // Cool-down so windows do not bleed into each other: a flush
        // phase drains residual congestion, then a quiet window
        // refreshes the p99 reference.
        sim.run_for(SimDuration::from_secs(1));
        sim.drain_completed();
        let cool_start = sim.now();
        sim.run_for(SimDuration::from_secs(3));
        coord.ingest(sim.drain_completed());
        for (rt, reference) in reference_p99.iter_mut().enumerate() {
            let lats = coord.latencies_since(cool_start, firm_sim::RequestTypeId(rt as u16));
            if lats.len() >= 20 {
                [*reference] = quantiles(lats, [0.99]);
            }
        }
        coord.evict_before(sim.now());
    }
    (scores, labels)
}

pub fn run(args: &Args) {
    let eval_rounds = args.u64("rounds", 25) as usize;
    let train_rounds = args.u64("train-rounds", 30) as usize;
    let rate = args.f64("rate", 120.0);
    let seed = args.u64("seed", 37);

    banner(
        "Fig. 9(a)",
        "ROC of single-anomaly SLO-violation localization (Social Network)",
    );

    let kinds = [
        ("Workload", AnomalyKind::WorkloadVariation),
        ("CPU", AnomalyKind::CpuStress),
        ("Memory", AnomalyKind::MemBwStress),
        ("LLC", AnomalyKind::LlcStress),
        ("Disk I/O", AnomalyKind::IoStress),
        ("Network", AnomalyKind::NetBwStress),
    ];
    section("per-anomaly-type AUC (TPR at FPR in [0.10, 0.15, 0.25])");
    let mut aucs = Vec::new();
    for (i, (name, kind)) in kinds.iter().enumerate() {
        let (scores, labels) = run_kind(*kind, eval_rounds, train_rounds, rate, seed + i as u64);
        let curve = roc_curve(&scores, &labels);
        let a = if curve.is_empty() {
            f64::NAN
        } else {
            auc(&curve)
        };
        let tpr_at = |fpr: f64| {
            curve
                .iter()
                .filter(|p| p.fpr <= fpr)
                .map(|p| p.tpr)
                .fold(0.0, f64::max)
        };
        println!(
            "  {:<10} AUC={:.3}  TPR@10%={:.2} TPR@15%={:.2} TPR@25%={:.2}  ({} samples, {} positive)",
            name,
            a,
            tpr_at(0.10),
            tpr_at(0.15),
            tpr_at(0.25),
            labels.len(),
            labels.iter().filter(|l| **l).count()
        );
        if a.is_finite() {
            aucs.push(a);
        }
    }
    let avg = aucs.iter().sum::<f64>() / aucs.len().max(1) as f64;
    println!("\n  Average AUC = {avg:.3}");
    paper_note("Avg AUC = 0.978; near-100% TPR at FPR in [0.12, 0.15]");
}
