//! The fleet's runtime self-metrics report — alongside, never inside,
//! the digest-covered [`crate::report::FleetReport`].
//!
//! An [`OpsReport`] answers "how did the run go *operationally*":
//! dispatch latency percentiles, queue depth, heartbeat gaps, retries,
//! reconnects, bytes on the wire, per-scenario wall time. All of it is
//! timing-dependent and varies run to run, which is exactly why it
//! lives in its own structure: the [`crate::report::FleetReport`]
//! digest covers only deterministic measurements, and nothing in this
//! module feeds back into them. The out-of-band invariant is pinned by
//! `tests/obs_determinism.rs` at the workspace root.
//!
//! Worker snapshots arrive as session-end
//! [`crate::protocol::WorkerMessage::Metrics`] frames and are ordered
//! by slot label; metric keys inside each snapshot are sorted — so the
//! report renders in deterministic (worker, key) order no matter when
//! the frames landed.

use firm_obs::MetricsSnapshot;
use firm_wire::wire_struct;

/// Sets the gauge `ml.kernel_avx2` to [`firm_ml::linalg::kernel_avx2`]
/// (1 or 0). Fleet processes call it at start; snapshots carry it.
pub fn record_kernel_isa() {
    let avx2 = firm_ml::linalg::kernel_avx2();
    firm_obs::metrics().gauge("ml.kernel_avx2").set(avx2.into());
}

/// One worker's session-end metrics, labeled by its slot and transport
/// (`"slot0:pipe:firm-fleet-worker"`, `"slot2:tcp:10.0.0.7:7401"`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkerOps {
    /// `slot<N>:<transport label>` — stable across retries, unique per
    /// pool slot.
    pub label: String,
    /// The worker process's cumulative metrics registry at session end.
    pub metrics: MetricsSnapshot,
}

wire_struct!(WorkerOps tagged "worker_ops" { label, metrics });

/// Runtime observability for one fleet run: the coordinator's own
/// metrics plus every worker's session-end snapshot, in deterministic
/// (worker, key) order.
///
/// Snapshots are process-cumulative: a process that runs several fleets
/// (tests, a resident server) reports its running totals, not per-run
/// deltas.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OpsReport {
    /// The coordinator process's registry (dispatch, supervision, and —
    /// for in-process worker slots — scenario and stage metrics).
    pub coordinator: MetricsSnapshot,
    /// Per-worker snapshots, sorted by label. Empty for in-process
    /// slots (no worker processes) and missing any worker that died before
    /// its graceful session end.
    pub workers: Vec<WorkerOps>,
}

impl OpsReport {
    /// Assembles a report, sorting workers into label order.
    pub fn new(coordinator: MetricsSnapshot, mut workers: Vec<WorkerOps>) -> Self {
        workers.sort_by(|a, b| a.label.cmp(&b.label));
        OpsReport {
            coordinator,
            workers,
        }
    }

    /// One fleet-wide view: every worker snapshot folded into the
    /// coordinator's (counters add, histograms merge bucket-wise).
    pub fn merged(&self) -> MetricsSnapshot {
        let mut all = self.coordinator.clone();
        for w in &self.workers {
            all.merge(&w.metrics);
        }
        all
    }

    /// The report as wire JSON (what `--obs-out` files carry).
    pub fn to_json(&self) -> String {
        firm_wire::encode_string(self)
    }
}

wire_struct!(OpsReport tagged "ops_report" { coordinator, workers });

#[cfg(test)]
mod tests {
    use super::*;
    use firm_obs::{MetricValue, Registry};

    fn snapshot(prefix: &str, count: u64) -> MetricsSnapshot {
        let reg = Registry::new();
        reg.counter(&format!("{prefix}.requests")).add(count);
        reg.histogram(&format!("{prefix}.latency_us"))
            .record(count * 10);
        reg.snapshot()
    }

    #[test]
    fn workers_sort_by_label_and_merge_folds_everything() {
        let report = OpsReport::new(
            snapshot("fleet", 3),
            vec![
                WorkerOps {
                    label: "slot1:pipe:firm-fleet-worker".into(),
                    metrics: snapshot("worker", 2),
                },
                WorkerOps {
                    label: "slot0:pipe:firm-fleet-worker".into(),
                    metrics: snapshot("worker", 5),
                },
            ],
        );
        assert!(report.workers[0].label < report.workers[1].label);
        let merged = report.merged();
        assert_eq!(merged.get("fleet.requests"), Some(&MetricValue::Counter(3)));
        assert_eq!(
            merged.get("worker.requests"),
            Some(&MetricValue::Counter(7)),
            "worker counters did not add"
        );
        let Some(MetricValue::Histogram(h)) = merged.get("worker.latency_us") else {
            panic!("merged histogram missing");
        };
        assert_eq!(h.count, 2);
    }

    #[test]
    fn ops_reports_round_trip_through_the_wire() {
        firm_wire::assert_round_trip(&OpsReport::default());
        let ops = WorkerOps {
            label: "slot0:tcp:127.0.0.1:7401".into(),
            metrics: MetricsSnapshot::default(),
        };
        assert_eq!(
            firm_wire::encode_string(&ops),
            r#"{"type":"worker_ops","label":"slot0:tcp:127.0.0.1:7401","metrics":{"type":"metrics","entries":[]}}"#
        );
        assert_eq!(
            OpsReport::new(MetricsSnapshot::default(), vec![ops]).to_json(),
            r#"{"type":"ops_report","coordinator":{"type":"metrics","entries":[]},"workers":[{"type":"worker_ops","label":"slot0:tcp:127.0.0.1:7401","metrics":{"type":"metrics","entries":[]}}]}"#
        );
        firm_wire::assert_round_trip(&OpsReport::new(
            snapshot("fleet", 1),
            vec![WorkerOps {
                label: "slot0:tcp:127.0.0.1:7401".into(),
                metrics: snapshot("worker", 9),
            }],
        ));
    }
}
