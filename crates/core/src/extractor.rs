//! Critical-component extraction — Algorithm 2 of the paper (§3.3).
//!
//! For every instance on a critical path in the control window, the
//! extractor computes two variability features:
//!
//! * **Relative importance (RI)** — the Pearson correlation between the
//!   instance's per-request latency `Ti` and the end-to-end CP latency
//!   `TCP` ("variance explained"): how much of the tail is *this*
//!   instance's doing.
//! * **Congestion intensity (CI)** — the instance's `T99/T50` latency
//!   ratio: how congested its request queue is, and therefore how much
//!   scaling can help.
//!
//! An incremental SVM over `(RI, ln CI)` produces the binary
//! candidate decision. During online training the injector's ground
//! truth labels each instance, mirroring §3.6; before the SVM has seen
//! enough examples, a conservative threshold heuristic stands in.

use firm_ml::svm::IncrementalSvm;
use firm_sim::stats::{pearson, sample_quantile};
use firm_sim::{InstanceId, ServiceId, SimTime};
use firm_trace::store::StoredTrace;

/// Per-instance Algorithm 2 features over one control window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceFeatures {
    /// The instance.
    pub instance: InstanceId,
    /// Its service.
    pub service: ServiceId,
    /// Relative importance: `PCC(Ti, TCP)` ∈ [−1, 1].
    pub ri: f64,
    /// Congestion intensity: `T99 / T50` ≥ 1.
    pub ci: f64,
    /// Number of CP appearances backing the features.
    pub samples: usize,
}

impl InstanceFeatures {
    /// The SVM input vector: `(RI, ln CI clamped to [0, 3])`.
    pub fn svm_input(&self) -> [f64; 2] {
        [self.ri, self.ci.max(1.0).ln().min(3.0)]
    }
}

/// Reusable per-instance accumulator for one feature window. The
/// sample vectors keep their capacity across windows, so a steady-state
/// extractor performs no allocation per window.
#[derive(Debug, Default)]
struct InstanceAcc {
    service: u16,
    /// `Ti` samples in trace order (the order [`pearson`] sums in).
    tis: Vec<f64>,
    /// `TCP` samples aligned with `tis`.
    tcps: Vec<f64>,
    /// `tis` maintained in ascending order by incremental sorted
    /// insertion — the quantile view, kept current instead of re-sorted
    /// from scratch every window.
    sorted: Vec<f64>,
}

/// Window-scoped scratch state for [`CriticalComponentExtractor::features`].
#[derive(Debug, Default)]
struct FeatureScratch {
    /// `instance raw id → slot index + 1` (0 = no slot yet).
    slot_of: Vec<u32>,
    /// Accumulator slots, allocated once per distinct instance ever seen.
    slots: Vec<InstanceAcc>,
    /// Instance ids touched this window (each exactly once).
    touched: Vec<u32>,
    /// Per-trace `(instance, max exclusive time)` pairs.
    per_trace: Vec<(u32, f64)>,
}

/// The Algorithm 2 extractor: features + incremental SVM.
#[derive(Debug)]
pub struct CriticalComponentExtractor {
    svm: IncrementalSvm,
    /// Examples the SVM must see before its decisions are trusted.
    bootstrap: u64,
    /// Minimum CP appearances for an instance to be classified.
    min_samples: usize,
    /// Heuristic thresholds used during bootstrap.
    heuristic_ci: f64,
    heuristic_ri: f64,
    /// Reused across windows; cleared (capacity retained) after each
    /// [`CriticalComponentExtractor::features`] call.
    scratch: FeatureScratch,
}

impl CriticalComponentExtractor {
    /// Creates an extractor with an untrained SVM.
    pub fn new(seed: u64) -> Self {
        CriticalComponentExtractor {
            svm: IncrementalSvm::firm_default(seed),
            bootstrap: 200,
            min_samples: 5,
            heuristic_ci: 2.0,
            heuristic_ri: 0.7,
            scratch: FeatureScratch::default(),
        }
    }

    /// Labelled examples consumed so far.
    pub fn trained_examples(&self) -> u64 {
        self.svm.seen()
    }

    /// True once the SVM is past its bootstrap phase.
    pub fn svm_active(&self) -> bool {
        self.svm.seen() >= self.bootstrap
    }

    /// Computes Algorithm 2's features for every instance appearing on a
    /// critical path among `traces`.
    ///
    /// For each trace, an instance contributes its longest CP-span
    /// duration as one `Ti` sample aligned with the trace's end-to-end
    /// latency `TCP`.
    ///
    /// Accumulation runs on index-addressed scratch slots reused across
    /// windows (no per-window maps), and the per-instance latency
    /// vector for the `T99/T50` quantiles is maintained by incremental
    /// sorted insertion instead of a from-scratch sort. The output is
    /// bit-identical to the original map-and-sort formulation — per
    /// instance, samples arrive in the same trace order (so the Pearson
    /// sums fold identically) and the sorted view holds the same
    /// ascending values.
    pub fn features<'a>(
        &mut self,
        traces: impl IntoIterator<Item = &'a StoredTrace>,
    ) -> Vec<InstanceFeatures> {
        let scratch = &mut self.scratch;
        debug_assert!(scratch.touched.is_empty(), "scratch not cleared");
        for trace in traces {
            if trace.dropped {
                continue;
            }
            let tcp = trace.latency.as_micros() as f64;
            // Largest *exclusive* time per instance on this trace's CP:
            // a parent span's duration contains its children's latency,
            // so full durations would make every ancestor of a culprit
            // correlate perfectly with TCP; exclusive time isolates each
            // instance's own contribution.
            scratch.per_trace.clear();
            for entry in &trace.cp.entries {
                let iid = entry.instance.raw();
                let d = entry.exclusive.as_micros() as f64;
                // A CP visits only a handful of instances; linear scan
                // beats any map here.
                match scratch.per_trace.iter_mut().find(|(i, _)| *i == iid) {
                    Some((_, max)) => {
                        if d > *max {
                            *max = d;
                        }
                    }
                    None => {
                        scratch.per_trace.push((iid, d));
                        let idx = iid as usize;
                        if scratch.slot_of.len() <= idx {
                            scratch.slot_of.resize(idx + 1, 0);
                        }
                        if scratch.slot_of[idx] == 0 {
                            scratch.slots.push(InstanceAcc::default());
                            scratch.slot_of[idx] = scratch.slots.len() as u32;
                        }
                        let slot = &mut scratch.slots[scratch.slot_of[idx] as usize - 1];
                        if slot.tis.is_empty() {
                            slot.service = entry.service.raw();
                            scratch.touched.push(iid);
                        }
                    }
                }
            }
            for &(iid, ti) in &scratch.per_trace {
                let slot = &mut scratch.slots[scratch.slot_of[iid as usize] as usize - 1];
                slot.tis.push(ti);
                slot.tcps.push(tcp);
                let at = slot
                    .sorted
                    .partition_point(|x| x.total_cmp(&ti) == std::cmp::Ordering::Less);
                slot.sorted.insert(at, ti);
            }
        }
        Self::emit(scratch)
    }

    /// Turns accumulated slots into [`InstanceFeatures`] in ascending
    /// instance order (matching the ordered-map iteration of the
    /// original implementation), and clears the slots for the next
    /// window.
    fn emit(scratch: &mut FeatureScratch) -> Vec<InstanceFeatures> {
        scratch.touched.sort_unstable();
        let mut out = Vec::with_capacity(scratch.touched.len());
        for &iid in &scratch.touched {
            let slot = &mut scratch.slots[scratch.slot_of[iid as usize] as usize - 1];
            let ri = pearson(&slot.tis, &slot.tcps);
            let p99 = sample_quantile(&slot.sorted, 0.99);
            let p50 = sample_quantile(&slot.sorted, 0.50);
            let ci = if p50 <= 0.0 {
                1.0
            } else {
                (p99 / p50).max(1.0)
            };
            out.push(InstanceFeatures {
                instance: InstanceId(iid),
                service: ServiceId(slot.service),
                ri,
                ci,
                samples: slot.tis.len(),
            });
            slot.tis.clear();
            slot.tcps.clear();
            slot.sorted.clear();
        }
        scratch.touched.clear();
        out
    }

    /// Classifies features into SLO-violation candidates (Algorithm 2's
    /// `SVM.classify`), ordered by decreasing congestion intensity.
    pub fn candidates(&self, features: &[InstanceFeatures]) -> Vec<InstanceFeatures> {
        let mut out: Vec<InstanceFeatures> = features
            .iter()
            .filter(|f| f.samples >= self.min_samples)
            .filter(|f| self.classify(f))
            .copied()
            .collect();
        out.sort_by(|a, b| b.ci.total_cmp(&a.ci));
        out
    }

    /// Binary decision for one instance.
    pub fn classify(&self, f: &InstanceFeatures) -> bool {
        if self.svm_active() {
            self.svm.predict(&f.svm_input())
        } else {
            f.ci >= self.heuristic_ci || f.ri >= self.heuristic_ri
        }
    }

    /// Raw SVM decision value (for ROC sweeps, Fig. 9a).
    pub fn decision_value(&self, f: &InstanceFeatures) -> f64 {
        self.svm.decision(&f.svm_input())
    }

    /// Online training step from injector ground truth (§3.6).
    pub fn train(&mut self, f: &InstanceFeatures, is_culprit: bool) {
        self.svm.partial_fit(&f.svm_input(), is_culprit);
    }
}

/// Ground-truth labelling for online training (§3.6): an instance is a
/// culprit if a container-level anomaly targets *it*, if a node-level
/// resource/delay anomaly hits its node, or if a workload surge is
/// active and the instance's CPU is saturated.
pub fn ground_truth_label(
    sim: &firm_sim::Simulation,
    instance: InstanceId,
    cpu_utilization: f64,
    now: SimTime,
) -> bool {
    let node = sim.instance(instance).node;
    for (_, spec, started) in sim.active_anomalies() {
        if *started > now {
            continue;
        }
        match (spec.kind, spec.target_instance) {
            (firm_sim::AnomalyKind::WorkloadVariation, _) => {
                if cpu_utilization > 0.85 {
                    return true;
                }
            }
            // Container-level: only the targeted container is guilty.
            (_, Some(target)) => {
                if target == instance {
                    return true;
                }
            }
            // Node-level: every container on the node is a victim.
            (_, None) => {
                if spec.node == node {
                    return true;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use firm_sim::spec::{AppSpec, ClusterSpec};
    use firm_sim::{AnomalyKind, AnomalySpec, NodeId, SimDuration, Simulation};
    use firm_trace::TracingCoordinator;

    fn window(sim: &mut Simulation, coord: &mut TracingCoordinator, secs: u64) -> Vec<StoredTrace> {
        let since = sim.now();
        sim.run_for(SimDuration::from_secs(secs));
        coord.ingest(sim.drain_completed());
        coord.traces_since(since).cloned().collect()
    }

    /// The original (pre-scratch) Algorithm 2 accumulation: ordered
    /// maps rebuilt per window, a from-scratch `partial_cmp` sort per
    /// instance. Kept as the reference for the golden equivalence test
    /// below — the optimized `features` must reproduce it bit for bit.
    fn reference_features<'a>(
        traces: impl IntoIterator<Item = &'a StoredTrace>,
    ) -> Vec<InstanceFeatures> {
        use std::collections::BTreeMap;
        let mut acc: BTreeMap<u32, (ServiceId, Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for trace in traces {
            if trace.dropped {
                continue;
            }
            let tcp = trace.latency.as_micros() as f64;
            let mut per_instance: BTreeMap<u32, f64> = BTreeMap::new();
            for entry in &trace.cp.entries {
                let d = entry.exclusive.as_micros() as f64;
                let slot = per_instance.entry(entry.instance.raw()).or_insert(0.0);
                if d > *slot {
                    *slot = d;
                }
                acc.entry(entry.instance.raw())
                    .or_insert_with(|| (entry.service, Vec::new(), Vec::new()));
            }
            for (iid, ti) in per_instance {
                let (_, tis, tcps) = acc.get_mut(&iid).expect("inserted above");
                tis.push(ti);
                tcps.push(tcp);
            }
        }
        acc.into_iter()
            .filter(|(_, (_, tis, _))| !tis.is_empty())
            .map(|(iid, (service, mut tis, tcps))| {
                let ri = firm_sim::stats::pearson(&tis, &tcps);
                tis.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
                let p99 = firm_sim::stats::sample_quantile(&tis, 0.99);
                let p50 = firm_sim::stats::sample_quantile(&tis, 0.50);
                let ci = if p50 <= 0.0 {
                    1.0
                } else {
                    (p99 / p50).max(1.0)
                };
                InstanceFeatures {
                    instance: InstanceId(iid),
                    service,
                    ri,
                    ci,
                    samples: tis.len(),
                }
            })
            .collect()
    }

    /// Golden-vector equivalence: on a recorded multi-window stream the
    /// scratch-based extractor must reproduce the original map-and-sort
    /// implementation exactly — same instances, same order, and
    /// bit-identical `RI`/`CI` floats. This is the contract that lets
    /// the fleet digest stay pinned across the perf refactor.
    #[test]
    fn features_match_reference_implementation_bit_for_bit() {
        let mut sim =
            Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), 77).build();
        // Congest one instance so CI/RI cover a non-trivial range.
        sim.apply(firm_sim::Command::SetPartition {
            instance: InstanceId(1),
            kind: firm_sim::ResourceKind::Cpu,
            amount: 0.2,
        });
        let mut coord = TracingCoordinator::new(100_000);
        let mut ex = CriticalComponentExtractor::new(9);
        // Several windows through the *same* extractor: cross-window
        // scratch reuse must not leak samples between windows.
        for w in 0..4 {
            let traces = window(&mut sim, &mut coord, 1 + w % 2);
            let got = ex.features(traces.iter());
            let want = reference_features(traces.iter());
            assert_eq!(got.len(), want.len(), "window {w}: instance set differs");
            for (g, r) in got.iter().zip(&want) {
                assert_eq!(g.instance, r.instance, "window {w}: order differs");
                assert_eq!(g.service, r.service, "window {w}");
                assert_eq!(g.samples, r.samples, "window {w}");
                assert_eq!(
                    g.ri.to_bits(),
                    r.ri.to_bits(),
                    "window {w}: RI drifted for {:?} ({} vs {})",
                    g.instance,
                    g.ri,
                    r.ri
                );
                assert_eq!(
                    g.ci.to_bits(),
                    r.ci.to_bits(),
                    "window {w}: CI drifted for {:?} ({} vs {})",
                    g.instance,
                    g.ci,
                    r.ci
                );
            }
        }
    }

    #[test]
    fn features_cover_cp_instances() {
        let mut sim =
            Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), 31).build();
        let mut coord = TracingCoordinator::new(100_000);
        let traces = window(&mut sim, &mut coord, 2);
        let mut ex = CriticalComponentExtractor::new(1);
        let feats = ex.features(traces.iter());
        assert!(feats.len() >= 3, "features for {} instances", feats.len());
        for f in &feats {
            assert!((-1.0..=1.0).contains(&f.ri), "ri {}", f.ri);
            assert!(f.ci >= 1.0, "ci {}", f.ci);
            assert!(f.samples > 0);
        }
        // The frontend (instance 0) is on every CP.
        assert!(feats.iter().any(|f| f.instance == InstanceId(0)));
    }

    #[test]
    fn congested_instance_has_higher_ci() {
        let mut sim =
            Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), 32).build();
        let mut coord = TracingCoordinator::new(100_000);
        // Squeeze logic-a (instance 1) into *intermittent* congestion
        // (utilization ≈ 0.5): bursts queue up, the median stays low —
        // exactly the p99/p50 signature CI is built to expose. (Full
        // saturation would flatten the distribution instead.)
        sim.apply(firm_sim::Command::SetPartition {
            instance: InstanceId(1),
            kind: firm_sim::ResourceKind::Cpu,
            amount: 0.2,
        });
        sim.run_for(SimDuration::from_secs(1));
        sim.drain_completed();
        let traces = window(&mut sim, &mut coord, 3);
        let mut ex = CriticalComponentExtractor::new(1);
        let feats = ex.features(traces.iter());
        let victim = feats.iter().find(|f| f.instance == InstanceId(1));
        let victim = victim.expect("victim on CP");
        let others_max_ci = feats
            .iter()
            .filter(|f| f.instance != InstanceId(1))
            .map(|f| f.ci)
            .fold(1.0, f64::max);
        assert!(
            victim.ci > others_max_ci,
            "victim ci {} vs others {}",
            victim.ci,
            others_max_ci
        );
        assert!(victim.ri > 0.5, "victim ri {}", victim.ri);
    }

    #[test]
    fn bootstrap_heuristic_then_svm() {
        let mut ex = CriticalComponentExtractor::new(2);
        assert!(!ex.svm_active());
        let congested = InstanceFeatures {
            instance: InstanceId(1),
            service: ServiceId(1),
            ri: 0.9,
            ci: 5.0,
            samples: 50,
        };
        let calm = InstanceFeatures {
            instance: InstanceId(2),
            service: ServiceId(2),
            ri: 0.1,
            ci: 1.1,
            samples: 50,
        };
        // Heuristic phase.
        assert!(ex.classify(&congested));
        assert!(!ex.classify(&calm));
        // Train the SVM to the same decision boundary.
        for _ in 0..150 {
            ex.train(&congested, true);
            ex.train(&calm, false);
        }
        assert!(ex.svm_active());
        assert!(ex.classify(&congested));
        assert!(!ex.classify(&calm));
        let cands = ex.candidates(&[congested, calm]);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].instance, InstanceId(1));
    }

    #[test]
    fn min_samples_filters_noise() {
        let ex = CriticalComponentExtractor::new(3);
        let noisy = InstanceFeatures {
            instance: InstanceId(9),
            service: ServiceId(9),
            ri: 0.99,
            ci: 9.0,
            samples: 1,
        };
        assert!(ex.candidates(&[noisy]).is_empty());
    }

    #[test]
    fn ground_truth_labels_anomalous_node() {
        let mut sim =
            Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), 33).build();
        sim.inject(AnomalySpec::new(
            AnomalyKind::MemBwStress,
            NodeId(0),
            0.9,
            SimDuration::from_secs(10),
        ));
        sim.run_for(SimDuration::from_millis(100));
        // Instance 0 (frontend) is on node 0; logic-a (instance 1) on node 1.
        assert!(ground_truth_label(&sim, InstanceId(0), 0.2, sim.now()));
        assert!(!ground_truth_label(&sim, InstanceId(1), 0.2, sim.now()));
    }
}
