//! Micro-benchmarks for the FIRM reproduction's hot paths:
//!
//! * `critical_path` — Algorithm 1 extraction vs graph size;
//! * `svm` — incremental SVM `partial_fit` / `predict` (§3.3);
//! * `ddpg` — actor inference and one training update (§3.4 reports
//!   0.21 ± 0.1 ms per update and 40.5 ± 4 ms per inference step, the
//!   latter dominated by data collection in their deployment);
//! * `kernel` — one train step's linear-algebra primitives at the exact
//!   shapes the paper's networks hit (batch 64, hidden 40×40, critic in
//!   23, actor in 8): forward `x·Wᵀ`, input gradients `dz·W`,
//!   weight/bias gradient accumulation, activation maps, and
//!   Algorithm 3's target-network soft update (the train step and the
//!   products rerun as `<name>_portable` on the portable kernel);
//! * `simulator` — discrete-event throughput on Social Network, with
//!   spans recorded and span-free;
//! * `slo` — `calibrate_slos` at replica fan-out ×10;
//! * `extractor` — Algorithm 2 feature computation over a window;
//! * `wire` — one sf=10 FIRM scenario's `WorkerResponse` frame, encoded
//!   and decoded.
//!
//! The container image carries no external crates, so this is a plain
//! `harness = false` bench: each case is timed over a fixed iteration
//! budget with `std::time::Instant` and reported as ns/iter. Run with
//! `cargo bench -p firm-bench`; name prefixes after `--` select cases,
//! e.g. `cargo bench -p firm-bench -- simulator slo wire`.

use std::sync::OnceLock;
use std::time::Instant;

use firm_core::estimator::{ACTION_DIM, ACTOR_STATE_DIM, STATE_DIM};
use firm_core::extractor::CriticalComponentExtractor;
use firm_fleet::{
    generate_catalog, run_one, scenario_seed, CatalogSpec, FleetController, WorkerResponse,
};
use firm_ml::ddpg::{DdpgAgent, DdpgConfig, Transition, BATCH_SIZE, HIDDEN, TAU};
use firm_ml::linalg::{kernel_isa, with_portable_kernel};
use firm_ml::nn::{Activation, Mlp};
use firm_ml::svm::IncrementalSvm;
use firm_ml::Matrix;
use firm_sim::spec::ClusterSpec;
use firm_sim::{PoissonArrivals, SimDuration, SimRng, Simulation};
use firm_trace::critical_path::critical_path;
use firm_trace::graph::ExecutionHistoryGraph;
use firm_trace::TracingCoordinator;
use firm_workload::apps::Benchmark;

/// The name-prefix filters given on the command line; none selects
/// every case. Flags (cargo passes `--bench`) are not filters.
static FILTERS: OnceLock<Vec<String>> = OnceLock::new();

fn filters() -> &'static [String] {
    FILTERS.get().map_or(&[], Vec::as_slice)
}

/// Whether a filter selects the case `name`.
fn selected(name: &str) -> bool {
    filters().is_empty() || filters().iter().any(|f| name.starts_with(f.as_str()))
}

/// Whether a filter may select a case of the group whose names start
/// with `group` (the group's setup is skipped otherwise).
fn group_selected(group: &str) -> bool {
    filters().is_empty()
        || filters()
            .iter()
            .any(|f| f.starts_with(group) || group.starts_with(f.as_str()))
}

/// Times `f` over `iters` iterations and prints a ns/iter line, if a
/// filter selects `name`. The closure returns a value that is folded
/// into a black-box accumulator so the optimizer cannot elide the work.
fn bench<T>(name: &str, iters: u64, mut f: impl FnMut() -> T) {
    if !selected(name) {
        return;
    }
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let elapsed = start.elapsed();
    let per_iter = elapsed.as_nanos() as f64 / iters as f64;
    println!("{name:<44} {per_iter:>14.1} ns/iter   ({iters} iters)");
}

/// [`bench`] on the dispatched product kernel, then again as
/// `<name>_portable` on the portable instantiation.
fn bench_both_kernels<T>(name: &str, iters: u64, mut f: impl FnMut() -> T) {
    bench(name, iters, &mut f);
    with_portable_kernel(|| bench(&format!("{name}_portable"), iters, f));
}

fn social_traces(seconds: u64) -> Vec<firm_sim::CompletedRequest> {
    let app = Benchmark::SocialNetwork.build();
    let mut sim = Simulation::builder(ClusterSpec::small(4), app, 3)
        .arrivals(Box::new(PoissonArrivals::new(200.0)))
        .build();
    sim.run_for(SimDuration::from_secs(seconds));
    sim.drain_completed()
}

fn bench_critical_path() {
    let traces = social_traces(2);
    // Pick traces of distinct span counts (one per size bucket).
    let mut seen = std::collections::BTreeSet::new();
    for &target in &[5usize, 10, 15] {
        let Some(t) = traces
            .iter()
            .filter(|t| t.spans.len() >= target)
            .min_by_key(|t| t.spans.len())
        else {
            continue;
        };
        if !seen.insert(t.spans.len()) {
            continue;
        }
        let graph = ExecutionHistoryGraph::build(t.clone()).expect("valid trace");
        bench(
            &format!("critical_path/alg1_extract/{}", graph.len()),
            10_000,
            || critical_path(&graph),
        );
    }
}

fn bench_svm() {
    let mut svm = IncrementalSvm::firm_default(1);
    for i in 0..500 {
        svm.partial_fit(&[0.5, (i % 7) as f64 / 7.0], i % 5 == 0);
    }
    bench("svm/partial_fit", 100_000, || {
        svm.partial_fit(&[0.62, 0.8], true)
    });
    bench("svm/predict", 100_000, || svm.predict(&[0.62, 0.8]));
}

fn bench_ddpg() {
    let mut agent = DdpgAgent::new(DdpgConfig::paper(STATE_DIM, ACTOR_STATE_DIM, ACTION_DIM), 7);
    // Seeded, varied transitions: with one repeated state every
    // minibatch row is the same and the ReLU masks never change, which
    // flatters every branch the train step takes on them.
    let rng = &mut SimRng::new(7);
    let mut vector =
        |dim: usize| -> Vec<f64> { (0..dim).map(|_| rng.uniform_range(-1.0, 1.0)).collect() };
    for i in 0..256 {
        agent.observe(Transition {
            state: vector(STATE_DIM),
            action: vector(ACTION_DIM),
            reward: (i % 10) as f64 / 10.0,
            next_state: vector(STATE_DIM),
            done: i % 50 == 0,
        });
    }
    let state = vector(STATE_DIM);
    bench("ddpg/inference", 10_000, || agent.act(&state));
    bench_both_kernels("ddpg/train_step", 1_000, || agent.train_step());
}

/// Layer widths of the paper's critic (23→40→40→1) and actor
/// (8→40→40→5), exactly what [`DdpgConfig::paper`] builds.
const NET_DIMS: [[usize; 4]; 2] = [
    [STATE_DIM + ACTION_DIM, HIDDEN[0], HIDDEN[1], 1],
    [ACTOR_STATE_DIM, HIDDEN[0], HIDDEN[1], ACTION_DIM],
];

fn random_matrix(rows: usize, cols: usize, rng: &mut SimRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.uniform_range(-1.0, 1.0))
}

/// A gradient-like matrix with ReLU-style zeros (~40% of entries), as
/// the backward products see it.
fn masked_matrix(rows: usize, cols: usize, rng: &mut SimRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.uniform() < 0.4 {
            0.0
        } else {
            rng.uniform_range(-1.0, 1.0)
        }
    })
}

/// One paper layer's operands: input `x`, weights `w` and the k-major
/// mirror `wt` the forward kernel reads, the upstream gradient `dz`, and
/// the buffers the three matmul kernels write.
struct Layer {
    x: Matrix,
    w: Matrix,
    wt: Matrix,
    dz: Matrix,
    out: Matrix,
    grad_in: Matrix,
    grad_w: Matrix,
    grad_b: Vec<f64>,
}

/// Each case is one pass over every paper layer, as one train step does.
fn bench_kernels() {
    const ITERS: u64 = 2_000;
    let rng = &mut SimRng::new(7);
    let mut layers: Vec<Layer> = NET_DIMS
        .iter()
        .flat_map(|dims| dims.windows(2))
        .map(|io| Layer {
            x: random_matrix(BATCH_SIZE, io[0], rng),
            w: random_matrix(io[1], io[0], rng),
            wt: Matrix::zeros(0, 0),
            dz: masked_matrix(BATCH_SIZE, io[1], rng),
            out: Matrix::zeros(BATCH_SIZE, io[1]),
            grad_in: Matrix::zeros(BATCH_SIZE, io[0]),
            grad_w: Matrix::zeros(io[1], io[0]),
            grad_b: vec![0.0; io[1]],
        })
        .collect();
    bench_both_kernels("kernel/matmul_fwd", ITERS, || {
        for l in &mut layers {
            // As `Linear::forward_into` runs it: the mirror is rebuilt
            // from `w` on every pass, so its cost is in the line.
            l.w.transpose_into(&mut l.wt);
            l.x.matmul_into(&l.wt, &mut l.out);
        }
    });
    bench_both_kernels("kernel/matmul_bwd", ITERS, || {
        for l in &mut layers {
            l.dz.matmul_into(&l.w, &mut l.grad_in);
        }
    });
    bench_both_kernels("kernel/grad_acc", ITERS, || {
        for l in &mut layers {
            l.dz.transpose_matmul_acc(&l.x, &mut l.grad_w);
            l.dz.col_sums_acc(&mut l.grad_b);
        }
    });

    // Four hidden ReLUs and the actor's tanh output. The maps run in
    // place on their own output: ReLU is idempotent and tanh stays in
    // (-1, 1), so every iteration does the same element work.
    let mut relus: Vec<Matrix> = (0..4)
        .map(|_| random_matrix(BATCH_SIZE, HIDDEN[0], rng))
        .collect();
    let mut tanh = random_matrix(BATCH_SIZE, ACTION_DIM, rng);
    bench("kernel/activations", ITERS, || {
        for m in &mut relus {
            m.map_inplace(|v| v.max(0.0));
        }
        tanh.map_inplace(f64::tanh);
    });

    // The blend walks every parameter whatever the activations are.
    let online = NET_DIMS.map(|dims| Mlp::new(&dims, Activation::Relu, Activation::Identity, 11));
    let mut targets = online.clone();
    bench("kernel/soft_update", ITERS, || {
        for (target, net) in targets.iter_mut().zip(&online) {
            target.soft_update_from(net, TAU);
        }
    });
}

fn bench_simulator() {
    for (name, spans) in [
        ("simulator/social_network_1s_at_200rps", true),
        ("simulator/social_network_1s_at_200rps_span_free", false),
    ] {
        bench(name, 20, || {
            let mut sim =
                Simulation::builder(ClusterSpec::small(4), Benchmark::SocialNetwork.build(), 11)
                    .arrivals(Box::new(PoissonArrivals::new(200.0)))
                    .record_spans(spans)
                    .build();
            sim.run_for(SimDuration::from_secs(1));
            sim.drain_completed().len()
        });
    }
}

/// SLO calibration at the sf=100 catalog's replica fan-out (x10): the
/// span-free 2 s + 8 s run every calibrated scenario pays before its
/// episode starts.
fn bench_calibrate_slos() {
    let mut app = Benchmark::SocialNetwork.build();
    firm_workload::builder::scale_replicas(&mut app, 10);
    let cluster = ClusterSpec::small(4);
    bench("slo/calibrate_slos/social_network_x10_at_200rps", 5, || {
        let mut app = app.clone();
        firm_core::slo::calibrate_slos(&mut app, &cluster, 200.0, 1.5, 11);
        app.request_types[0].slo_latency_us
    });
}

fn bench_extractor() {
    let traces = social_traces(2);
    let mut coord = TracingCoordinator::new(100_000);
    coord.ingest(traces);
    let stored: Vec<_> = coord
        .traces_since(firm_sim::SimTime::ZERO)
        .cloned()
        .collect();
    let mut extractor = CriticalComponentExtractor::new(5);
    bench("extractor/alg2_features_400_traces", 100, || {
        extractor.features(stored.iter().take(400))
    });
}

/// The response frame a worker ships for the first FIRM scenario of the
/// (7, sf=10) catalog, encoded and decoded back.
fn bench_wire() {
    let catalog = generate_catalog(&CatalogSpec::new(7, 10));
    let index = catalog
        .iter()
        .position(|s| s.controller == FleetController::Firm)
        .expect("the catalog has a FIRM scenario");
    let (outcome, experience) = run_one(&catalog[index], scenario_seed(7, index));
    let response = WorkerResponse {
        index: index as u64,
        outcome,
        experience,
    };
    bench("wire/worker_response_sf10", 2_000, || {
        let frame = firm_wire::encode_line(&response);
        let back: WorkerResponse = firm_wire::decode_line(&frame).expect("frame decodes");
        back.index
    });
}

fn main() {
    let filters = std::env::args().skip(1).filter(|a| !a.starts_with('-'));
    FILTERS.get_or_init(|| filters.collect());
    println!(
        "firm micro-benchmarks (plain harness, ns/iter, kernel {})",
        kernel_isa()
    );
    println!("{}", "-".repeat(74));
    let groups: [(&str, fn()); 8] = [
        ("critical_path/", bench_critical_path),
        ("svm/", bench_svm),
        ("ddpg/", bench_ddpg),
        ("kernel/", bench_kernels),
        ("simulator/", bench_simulator),
        ("slo/", bench_calibrate_slos),
        ("extractor/", bench_extractor),
        ("wire/", bench_wire),
    ];
    for (group, run) in groups {
        if group_selected(group) {
            run();
        }
    }
}
