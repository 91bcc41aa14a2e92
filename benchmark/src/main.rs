//! `firm-benchmark` — the repo's benchmark.
//!
//! ```sh
//! # one workload, as the driver runs it (last stdout line is JSON):
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve-small --seed 7 --seconds 20 --trace 0
//! # every workload, end-to-end metrics, results written to benchmark/out/:
//! cargo run --release --manifest-path benchmark/Cargo.toml
//! # every workload once more under spans, per-layer metrics:
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --trace
//! # did anything regress between two result files?
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare old.json new.json
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metrics, and which
//! layer is expected to move which metric where.

mod compare;
mod layers;
mod procs;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use firm_wire::{JsonValue, Obj};

use compare::{ResultFile, RunRecord, Verdict};
use spec::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use workloads::{Expected, Options, RunResult, Workload};

/// `--quick` measures this long per workload.
const QUICK_SECONDS: f64 = 1.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: u64,
    out: Option<PathBuf>,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "firm-benchmark: {problem}\n\
         usage: firm-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]\n\
         \x20                     [--quick] [--runs N] [--out PATH]\n\
         \x20      firm-benchmark compare BASELINE.json NEW.json\n\
         workloads: {}",
        WORKLOADS.map(|(name, _)| name).join(", ")
    );
    ExitCode::from(64)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: workloads::PINNED_SEED,
        seconds: None,
        trace: false,
        quick: false,
        runs: 1,
        out: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if Workload::named(&name).is_none() {
                    return Err(format!("unknown workload `{name}`"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|_| "--runs needs a whole number")?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            "--out" => args.out = Some(value("--out")?.into()),
            "--quick" => args.quick = true,
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs one workload in this process.
fn run_workload(name: &str, opts: &Options, trace: bool) -> Result<RunResult, String> {
    let expected = Expected::load();
    let workload = Workload::named(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    match (workload, trace) {
        (Workload::InProcess(w), false) => Ok(workloads::run_in_process(&w, opts, &expected)),
        (Workload::InProcess(w), true) => layers::trace_in_process(&w, opts, &expected, &out_dir()),
        (Workload::Serve(kind), false) => {
            let run = workloads::run_serve(kind, opts, &expected, None)?;
            eprintln!(
                "  build_s {:.3} (cargo build of firm-fleet and firm-fleet-worker)",
                run.build_s
            );
            Ok(run.result)
        }
        (Workload::Serve(kind), true) => layers::trace_serve(kind, opts, &expected, &out_dir()),
    }
}

/// The single-workload mode the driver uses: metrics by name and unit
/// on stderr, one JSON object as the last line of stdout.
fn single(name: &str, opts: &Options, trace: bool) -> ExitCode {
    // Product log lines at info level would interleave with the report.
    firm_obs::set_stderr_level(None);
    let result = match run_workload(name, opts, trace) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("firm-benchmark: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
    eprintln!(
        "{name} seed {} ({}, {} attempted, {} failed)",
        opts.seed,
        if trace { "traced" } else { "untraced" },
        result.attempted,
        result.failed
    );
    let mut metrics = Vec::new();
    for m in table {
        let value = result
            .metric(m.name)
            .unwrap_or_else(|| panic!("{name} reported no {}", m.name));
        eprintln!("  {:<30} {value:>16.4} {}", m.name, m.unit);
        let entry = Obj::new()
            .field("value", JsonValue::F64(value))
            .field("unit", m.unit)
            .build();
        metrics.push((m.name.to_string(), entry));
    }
    if !result.digests.is_empty() {
        eprintln!("  digests: {}", result.digests.join(" "));
    }
    for failure in &result.failures {
        eprintln!("  FAILED: {failure}");
    }
    let line = Obj::new()
        .field("correct", result.correct())
        .field("attempted", result.attempted)
        .field("failed", result.failed)
        .field("metrics", JsonValue::Object(metrics))
        .build();
    println!("{}", line.render());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One run of one workload in a fresh process of this same binary, so
/// that peak memory and allocator state never leak from one workload
/// into the next — exactly what the driver's one-command-per-run does.
/// Returns the run's record and whether the child exited 0.
fn run_in_child(
    args: &Args,
    workload: &str,
    seed: u64,
    seconds: f64,
) -> Result<(RunRecord, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("re-run self for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let record = stdout
        .lines()
        .last()
        .and_then(|line| RunRecord::from_result_line(seed, line))
        .ok_or_else(|| format!("{workload} printed no result ({})", output.status))?;
    Ok((record, output.status.success()))
}

/// The table the all-workloads mode prints: each metric's median over
/// the runs and, from four runs on, its quartile spread.
fn print_table(file: &ResultFile, table: &[Metric]) {
    println!(
        "{:<16} {:<30} {:>16} {:<8} {:>8}",
        "workload", "metric", "median", "unit", "spread"
    );
    for (workload, runs) in &file.workloads {
        for m in table {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(m.name).copied())
                .collect();
            if values.is_empty() {
                continue;
            }
            let spread = if values.len() >= 4 {
                format!("{:.1}%", 100.0 * stats::quartile_spread(&values))
            } else {
                "-".to_string()
            };
            println!(
                "{workload:<16} {:<30} {:>16.4} {:<8} {spread:>8}",
                m.name,
                stats::median(&values),
                m.unit
            );
        }
        let (failed, attempted) = runs
            .iter()
            .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted));
        println!(
            "{workload:<16} {:<30} {:>16} {:<8}",
            "failed / attempted",
            format!("{failed} / {attempted}"),
            "count"
        );
    }
}

/// Every workload, `--runs` times over, then the table and the result
/// file.
fn all(args: &Args, seconds: f64) -> Result<bool, String> {
    let mut file = ResultFile {
        quick: args.quick,
        traced: args.trace,
        host: vec![
            (
                "nproc".to_string(),
                std::thread::available_parallelism()
                    .map_or(1, |n| n.get())
                    .to_string(),
            ),
            ("rustc".to_string(), command_line("rustc", &["--version"])),
            (
                "commit".to_string(),
                command_line("git", &["-C", procs::REPO_ROOT, "rev-parse", "HEAD"]),
            ),
        ],
        workloads: BTreeMap::new(),
    };
    let mut all_correct = true;
    for run in 0..args.runs {
        for (workload, _) in WORKLOADS {
            let seed = args.seed.wrapping_add(run);
            let (record, correct) = run_in_child(args, workload, seed, seconds)?;
            all_correct &= correct;
            file.workloads
                .entry(workload.to_string())
                .or_default()
                .push(record);
        }
    }
    print_table(&file, if args.trace { &PER_LAYER } else { &END_TO_END });

    let path = args.out.clone().unwrap_or_else(|| {
        out_dir().join(match (args.quick, args.trace) {
            (true, _) => "results.quick.json",
            (false, true) => "results.trace.json",
            (false, false) => "results.json",
        })
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file.render() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(all_correct)
}

fn compare_files(base: &str, new: &str) -> ExitCode {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        ResultFile::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = match load(base).and_then(|b| load(new).and_then(|n| compare::compare(&b, &n))) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("firm-benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", compare::render_rows(&rows));
    let regressed = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{regressed} regressed, {unresolved} unresolved, {} rows",
        rows.len()
    );
    if regressed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "compare") {
        return match &argv[1..] {
            [base, new] => compare_files(base, new),
            _ => usage("compare takes two result files"),
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => return usage(&e),
    };
    let seconds = args.seconds.unwrap_or(if args.quick {
        QUICK_SECONDS
    } else {
        RUN_SECONDS as f64
    });
    match &args.workload {
        Some(name) => {
            let opts = Options {
                seed: args.seed,
                seconds,
                quick: args.quick,
                started,
            };
            single(name, &opts, args.trace)
        }
        None => match all(&args, seconds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("firm-benchmark: {e}");
                ExitCode::FAILURE
            }
        },
    }
}
