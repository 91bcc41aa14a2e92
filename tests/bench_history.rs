//! `BENCH_history.jsonl` is the committed performance trajectory: one
//! line per performance PR, with the medians of its alternating
//! parent/change runs of the benchmark for each workload and end-to-end
//! metric. Every line must decode, name only what `BENCHMARK.json`
//! declares, and no PR may appear twice.

use firm_wire::{wire_struct, JsonValue};

/// One PR's measurement: `pairs` alternating parent/change runs of each
/// workload at fleet seed `seed` on an `nproc`-core host. `commit` is
/// `null` only on the newest line — a file cannot name the commit that
/// adds it; the next line's PR fills it in.
struct Entry {
    pr: u64,
    commit: Option<String>,
    parent: String,
    nproc: u64,
    seed: u64,
    pairs: u64,
    results: Vec<Row>,
}

wire_struct!(Entry {
    pr,
    commit,
    parent,
    nproc,
    seed,
    pairs,
    results
});

/// One workload × end-to-end metric; `null` where the PR recorded no
/// spread or count.
struct Row {
    workload: String,
    metric: String,
    parent_median: f64,
    change_median: f64,
    parent_iqr: Option<f64>,
    change_better: Option<u64>,
}

wire_struct!(Row {
    workload,
    metric,
    parent_median,
    change_median,
    parent_iqr,
    change_better
});

#[test]
fn every_line_decodes_and_names_only_declared_workloads_and_metrics() {
    let spec = firm_wire::parse(include_str!("../BENCHMARK.json")).expect("BENCHMARK.json");
    let names = |key: &str| -> Vec<String> {
        let list: Vec<JsonValue> = spec.field(key).expect(key);
        list.iter()
            .map(|v| v.field("name").expect("name"))
            .collect()
    };
    let (workloads, metrics) = (names("workloads"), names("end_to_end"));
    let lines: Vec<&str> = include_str!("../BENCH_history.jsonl").lines().collect();
    let mut prs = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let e: Entry = firm_wire::decode_line(line).unwrap_or_else(|e| panic!("line {i}: {e}"));
        assert!(!prs.contains(&e.pr), "PR {} appears twice", e.pr);
        prs.push(e.pr);
        let newest = i + 1 == lines.len();
        assert!(e.commit.is_some() || newest, "PR {}: commit missing", e.pr);
        assert!(!e.parent.is_empty() && e.nproc > 0 && e.seed > 0 && !e.results.is_empty());
        for r in &e.results {
            let what = format!("PR {}: {} / {}", e.pr, r.workload, r.metric);
            assert!(workloads.contains(&r.workload), "{what}: unknown workload");
            assert!(metrics.contains(&r.metric), "{what}: unknown metric");
            assert!(r.parent_median > 0.0 && r.change_median > 0.0, "{what}");
            assert!(r.parent_iqr.is_none_or(|q| q >= 0.0), "{what}");
            assert!(r.change_better.is_none_or(|n| n <= e.pairs), "{what}");
        }
    }
}
