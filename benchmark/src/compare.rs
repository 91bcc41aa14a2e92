//! Result files and the `compare` subcommand: apply each end-to-end
//! metric's bound, per workload, to two sets of runs.

use std::collections::BTreeMap;

use firm_wire::{JsonValue, Obj};

use crate::spec::{valid_name, Better, Metric, END_TO_END, WORKLOADS};
use crate::stats::{median, quartile_spread};

/// One run of one workload, as stored in a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The `--seed` the run used.
    pub seed: u64,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed or failed a check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Every run of every workload from one invocation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultFile {
    /// Smoke-mode results: not comparable.
    pub quick: bool,
    /// Per-layer (traced) rather than end-to-end metrics.
    pub traced: bool,
    /// Free-form host facts (`nproc`, `rustc`, `commit`).
    pub host: Vec<(String, String)>,
    /// Runs by workload name.
    pub workloads: BTreeMap<String, Vec<RunRecord>>,
}

fn number(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::F64(x) => Some(*x),
        JsonValue::U64(x) => Some(*x as f64),
        JsonValue::I64(x) => Some(*x as f64),
        _ => None,
    }
}

impl RunRecord {
    /// Reads the JSON object a single-workload run prints as its last
    /// line (`correct, attempted, failed, metrics: {name: {value,
    /// unit}}`).
    pub fn from_result_line(seed: u64, line: &str) -> Option<RunRecord> {
        let doc = firm_wire::parse(line).ok()?;
        let Some(JsonValue::Object(entries)) = doc.get("metrics") else {
            return None;
        };
        let metrics = entries
            .iter()
            .filter_map(|(name, entry)| Some((name.clone(), number(entry.get("value")?)?)))
            .collect();
        Some(RunRecord {
            seed,
            attempted: doc.field("attempted").ok()?,
            failed: doc.field("failed").ok()?,
            metrics,
        })
    }
}

impl ResultFile {
    /// Renders the file as JSON.
    pub fn render(&self) -> String {
        let runs_of = |runs: &Vec<RunRecord>| {
            JsonValue::Array(
                runs.iter()
                    .map(|r| {
                        let metrics = r
                            .metrics
                            .iter()
                            .map(|(k, v)| (k.clone(), JsonValue::F64(*v)))
                            .collect();
                        Obj::new()
                            .field("seed", r.seed)
                            .field("attempted", r.attempted)
                            .field("failed", r.failed)
                            .field("metrics", JsonValue::Object(metrics))
                            .build()
                    })
                    .collect(),
            )
        };
        Obj::new()
            .field("schema", 1u64)
            .field("quick", self.quick)
            .field("traced", self.traced)
            .field(
                "host",
                JsonValue::Object(
                    self.host
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::Str(v.clone())))
                        .collect(),
                ),
            )
            .field(
                "workloads",
                JsonValue::Object(
                    self.workloads
                        .iter()
                        .map(|(w, runs)| (w.clone(), runs_of(runs)))
                        .collect(),
                ),
            )
            .build()
            .render()
    }

    /// Parses a result file, rejecting names outside the grammar.
    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let doc = firm_wire::parse(text).map_err(|e| format!("not JSON: {e}"))?;
        let flag = |key: &str| matches!(doc.get(key), Some(JsonValue::Bool(true)));
        let mut file = ResultFile {
            quick: flag("quick"),
            traced: flag("traced"),
            ..ResultFile::default()
        };
        if let Some(JsonValue::Object(host)) = doc.get("host") {
            file.host = host
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_str().ok()?.to_string())))
                .collect();
        }
        let Some(JsonValue::Object(workloads)) = doc.get("workloads") else {
            return Err("no `workloads` object".to_string());
        };
        for (workload, runs) in workloads {
            if !valid_name(workload) {
                return Err(format!("bad workload name {workload:?}"));
            }
            let runs = runs.as_array().map_err(|e| format!("{workload}: {e}"))?;
            let mut records = Vec::new();
            for run in runs {
                let count = |key: &str| {
                    run.field::<u64>(key)
                        .map_err(|e| format!("{workload}: {e}"))
                };
                let Some(JsonValue::Object(metrics)) = run.get("metrics") else {
                    return Err(format!("{workload}: a run has no `metrics` object"));
                };
                let mut values = BTreeMap::new();
                for (name, value) in metrics {
                    if !valid_name(name) {
                        return Err(format!("{workload}: bad metric name {name:?}"));
                    }
                    let value = number(value)
                        .ok_or_else(|| format!("{workload}: {name} is not a number"))?;
                    values.insert(name.clone(), value);
                }
                records.push(RunRecord {
                    seed: count("seed")?,
                    attempted: count("attempted")?,
                    failed: count("failed")?,
                    metrics: values,
                });
            }
            file.workloads.insert(workload.clone(), records);
        }
        Ok(file)
    }
}

/// What `compare` concludes about one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is not worse than the baseline's by more than
    /// the bound, and the runs are steady enough to say so.
    Unchanged,
    /// Within the bound, but the run-to-run spread is wider than the
    /// bound, so "no regression" cannot be claimed.
    Unresolved,
    /// Worse than the baseline by more than the bound.
    Regressed,
}

impl Verdict {
    /// The word printed in the table.
    pub const fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved (spread wider than bound)",
            Verdict::Regressed => "regressed",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The workload.
    pub workload: String,
    /// The metric (or `failed_share`).
    pub metric: String,
    /// Median of the baseline's runs.
    pub base: f64,
    /// Median of the new runs.
    pub new: f64,
    /// How much worse the new median is, as a share of the baseline's
    /// (negative when better).
    pub worse_by: f64,
    /// The wider of the two sets' quartile spreads (0 with < 4 runs).
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one metric on one workload from the two sets of runs.
pub fn judge(metric: &Metric, base: &[f64], new: &[f64]) -> (f64, f64, Verdict) {
    let (b, n) = (median(base), median(new));
    let worse_by = match metric.better {
        Better::Lower => (n - b) / b,
        Better::Higher => (b - n) / b,
    };
    let spread_of = |runs: &[f64]| {
        if runs.len() >= 4 {
            quartile_spread(runs)
        } else {
            0.0
        }
    };
    let spread = spread_of(base).max(spread_of(new));
    // With a spread wider than the bound, only a clean separation —
    // every new run better than every baseline run — still counts.
    let every_new_run_better = match metric.better {
        Better::Lower => new.iter().all(|n| base.iter().all(|b| n < b)),
        Better::Higher => new.iter().all(|n| base.iter().all(|b| n > b)),
    };
    let verdict = if worse_by > metric.bound {
        Verdict::Regressed
    } else if spread > metric.bound && !every_new_run_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    (worse_by, spread, verdict)
}

/// Compares two result files: one row per workload × end-to-end
/// metric, plus one `failed_share` row per workload.
pub fn compare(base: &ResultFile, new: &ResultFile) -> Result<Vec<Row>, String> {
    for (which, file) in [("baseline", base), ("new", new)] {
        if file.quick {
            return Err(format!(
                "the {which} file holds --quick results, which are not comparable"
            ));
        }
        if file.traced {
            return Err(format!(
                "the {which} file holds traced results; bounds apply to untraced runs"
            ));
        }
    }
    let mut rows = Vec::new();
    for (workload, _) in WORKLOADS {
        let runs = |file: &ResultFile, which: &str| match file.workloads.get(workload) {
            Some(runs) if !runs.is_empty() => Ok(runs.clone()),
            _ => Err(format!("the {which} file has no runs of {workload}")),
        };
        let (base_runs, new_runs) = (runs(base, "baseline")?, runs(new, "new")?);
        for metric in END_TO_END {
            let values = |runs: &[RunRecord], which: &str| {
                runs.iter()
                    .map(|r| r.metrics.get(metric.name).copied())
                    .collect::<Option<Vec<f64>>>()
                    .ok_or_else(|| format!("a {which} run of {workload} lacks {}", metric.name))
            };
            let (b, n) = (values(&base_runs, "baseline")?, values(&new_runs, "new")?);
            let (worse_by, spread, verdict) = judge(&metric, &b, &n);
            rows.push(Row {
                workload: workload.to_string(),
                metric: metric.name.to_string(),
                base: median(&b),
                new: median(&n),
                worse_by,
                spread,
                verdict,
            });
        }
        let failed_share = |runs: &[RunRecord]| {
            let (failed, attempted) = runs
                .iter()
                .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted));
            failed as f64 / attempted.max(1) as f64
        };
        let (b, n) = (failed_share(&base_runs), failed_share(&new_runs));
        rows.push(Row {
            workload: workload.to_string(),
            metric: "failed_share".to_string(),
            base: b,
            new: n,
            worse_by: n - b,
            spread: 0.0,
            verdict: if n > b {
                Verdict::Regressed
            } else {
                Verdict::Unchanged
            },
        });
    }
    Ok(rows)
}

/// Renders the comparison as an aligned table.
pub fn render_rows(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>8}  verdict\n",
        "workload", "metric", "baseline", "new", "worse by", "spread"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:<20} {:>14.4} {:>14.4} {:>8.1}% {:>7.1}%  {}\n",
            r.workload,
            r.metric,
            r.base,
            r.new,
            100.0 * r.worse_by,
            100.0 * r.spread,
            r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: Metric = Metric {
        name: "submit_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.08,
    };
    const THROUGHPUT: Metric = Metric {
        name: "sim_requests_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.08,
    };

    #[test]
    fn bounds_respect_the_direction_of_each_metric() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scale = |k: f64| steady.map(|v| v * k);
        assert_eq!(judge(&LATENCY, &steady, &scale(1.05)).2, Verdict::Unchanged);
        assert_eq!(judge(&LATENCY, &steady, &scale(1.20)).2, Verdict::Regressed);
        assert_eq!(judge(&LATENCY, &steady, &scale(0.50)).2, Verdict::Unchanged);
        assert_eq!(
            judge(&THROUGHPUT, &steady, &scale(0.95)).2,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&THROUGHPUT, &steady, &scale(0.80)).2,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&THROUGHPUT, &steady, &scale(1.50)).2,
            Verdict::Unchanged
        );
        let (worse_by, _, _) = judge(&THROUGHPUT, &steady, &scale(0.80));
        assert!((worse_by - 0.20).abs() < 1e-9);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_runs_separate() {
        let noisy = [80.0, 95.0, 100.0, 105.0, 125.0];
        assert_eq!(judge(&LATENCY, &noisy, &noisy).2, Verdict::Unresolved);
        // Every new run beats every baseline run: resolved after all.
        let faster = noisy.map(|v| v * 0.5);
        assert_eq!(judge(&LATENCY, &noisy, &faster).2, Verdict::Unchanged);
        // A regression stays a regression however noisy the runs are.
        let slower = noisy.map(|v| v * 1.3);
        assert_eq!(judge(&LATENCY, &noisy, &slower).2, Verdict::Regressed);
    }

    fn synthetic(slowdown: f64, failed: u64) -> ResultFile {
        let mut file = ResultFile::default();
        for (workload, _) in WORKLOADS {
            let runs = (0..5u64)
                .map(|r| {
                    let wobble = 1.0 + 0.004 * r as f64;
                    let metrics = END_TO_END
                        .iter()
                        .map(|m| {
                            let base = 100.0 * wobble;
                            let value = match m.better {
                                Better::Lower => base * slowdown,
                                Better::Higher => base / slowdown,
                            };
                            (m.name.to_string(), value)
                        })
                        .collect();
                    RunRecord {
                        seed: 7 + r,
                        attempted: 10,
                        failed,
                        metrics,
                    }
                })
                .collect();
            file.workloads.insert(workload.to_string(), runs);
        }
        file
    }

    #[test]
    fn a_slowed_result_trips_exactly_the_bounds_it_exceeds() {
        let base = synthetic(1.0, 0);
        let same = compare(&base, &base).expect("comparable");
        assert_eq!(same.len(), WORKLOADS.len() * (END_TO_END.len() + 1));
        assert!(same.iter().all(|r| r.verdict == Verdict::Unchanged));

        // Slowed by 20%: times grow by 0.2, rates shrink by 1 - 1/1.2.
        // Slowed by 50%: beyond every bound the contract allows.
        for slowdown in [1.2, 1.5] {
            let rows = compare(&base, &synthetic(slowdown, 0)).expect("comparable");
            let bounded = rows.iter().filter(|r| r.metric != "failed_share");
            for row in bounded {
                let metric = END_TO_END
                    .iter()
                    .find(|m| m.name == row.metric)
                    .expect("known metric");
                let worse_by = match metric.better {
                    Better::Lower => slowdown - 1.0,
                    Better::Higher => 1.0 - 1.0 / slowdown,
                };
                assert!((row.worse_by - worse_by).abs() < 1e-9);
                let expect = if worse_by > metric.bound {
                    Verdict::Regressed
                } else {
                    Verdict::Unchanged
                };
                assert_eq!(row.verdict, expect, "{} on {}", row.metric, row.workload);
            }
            // The other way round is a speed-up: nothing regresses.
            let sped_up = compare(&synthetic(slowdown, 0), &base).expect("comparable");
            assert!(sped_up.iter().all(|r| r.verdict == Verdict::Unchanged));
        }
        let halved = compare(&base, &synthetic(1.5, 0)).expect("comparable");
        let regressed = halved.iter().filter(|r| r.verdict == Verdict::Regressed);
        assert_eq!(regressed.count(), WORKLOADS.len() * END_TO_END.len());
    }

    #[test]
    fn any_rise_in_failed_share_regresses_and_quick_results_are_refused() {
        let rows = compare(&synthetic(1.0, 0), &synthetic(1.0, 1)).expect("comparable");
        let failed: Vec<_> = rows.iter().filter(|r| r.metric == "failed_share").collect();
        assert_eq!(failed.len(), WORKLOADS.len());
        assert!(failed.iter().all(|r| r.verdict == Verdict::Regressed));

        let mut quick = synthetic(1.0, 0);
        quick.quick = true;
        assert!(compare(&quick, &synthetic(1.0, 0)).is_err());
        assert!(compare(&synthetic(1.0, 0), &quick).is_err());
    }

    #[test]
    fn result_files_round_trip_and_reject_bad_names() {
        let mut file = synthetic(1.0, 0);
        file.host = vec![("nproc".to_string(), "2".to_string())];
        assert_eq!(ResultFile::parse(&file.render()).expect("parses"), file);
        let bad = file.render().replace("setup_s", "setup s");
        assert!(ResultFile::parse(&bad).is_err());
    }
}
