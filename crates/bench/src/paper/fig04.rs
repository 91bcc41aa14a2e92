//! Fig. 4 (Insight 2): scaling the highest-variance service on the CP
//! beats scaling the highest-median one.
//!
//! In the Social Network compose-post path, `compose-post` carries the
//! larger median latency but `text` (squeezed here into intermittent
//! congestion) carries the variance. Adding a replica to `text` improves
//! the end-to-end tail; adding one to `compose-post` barely moves it.

use firm_sim::spec::ClusterSpec;
use firm_sim::{Command, ResourceKind, SimDuration};
use firm_workload::apps::Benchmark;

use crate::{banner, paper_note, poisson_sim, section, summarize_us, Args};

/// Runs the compose-post workload; optionally scales one service to two
/// replicas. Returns [text span latencies, compose span latencies,
/// end-to-end latencies] in us.
fn measure(scale: Option<&str>, seconds: u64, rate: f64, seed: u64) -> [Vec<f64>; 3] {
    let mut app = Benchmark::SocialNetwork.build();
    // Compose-post only.
    app.request_types[0].weight = 1.0;
    app.request_types[1].weight = 0.0001;
    app.request_types[2].weight = 0.0001;
    let text_id = app.service_by_name("text").expect("text exists");
    let compose_id = app.service_by_name("compose-post").expect("compose exists");

    let mut sim = poisson_sim(ClusterSpec::paper_cluster(), app, rate, seed);

    // Make `text` the high-variance service: a tight quota puts it at
    // ~50-60% utilization, so bursts queue intermittently. Give
    // `compose-post` plenty of workers so its (large) latency is steady:
    // high median, low variance — the paper's exact contrast.
    let text_inst = sim.replicas(text_id)[0];
    sim.apply(Command::SetPartition {
        instance: text_inst,
        kind: ResourceKind::Cpu,
        amount: 0.3,
    });
    let compose_inst = sim.replicas(compose_id)[0];
    sim.apply(Command::SetPartition {
        instance: compose_inst,
        kind: ResourceKind::Cpu,
        amount: 8.0,
    });
    if let Some(name) = scale {
        let svc = sim.app().service_by_name(name).expect("service exists");
        sim.apply(Command::ScaleOut {
            service: svc,
            warm: true,
        });
    }
    sim.run_for(SimDuration::from_secs(5));
    sim.drain_completed();

    sim.run_for(SimDuration::from_secs(seconds));
    let mut text = Vec::new();
    let mut compose = Vec::new();
    let mut total = Vec::new();
    for r in sim.drain_completed() {
        if r.dropped {
            continue;
        }
        total.push(r.latency.as_micros() as f64);
        for s in &r.spans {
            if s.service == text_id {
                text.push(s.duration().as_micros() as f64);
            } else if s.service == compose_id {
                compose.push(s.duration().as_micros() as f64);
            }
        }
    }
    [text, compose, total]
}

pub fn run(args: &Args) {
    let seconds = args.u64("seconds", 30);
    let rate = args.f64("rate", 180.0);
    let seed = args.u64("seed", 29);

    banner(
        "Fig. 4",
        "Scaling the highest-variance vs the highest-median service on the CP",
    );

    section("individual latencies on the CP (before scaling)");
    let [text, compose, before] = measure(None, seconds, rate, seed);
    let ts = summarize_us(text);
    let cs = summarize_us(compose);
    println!(
        "  text:         median={:>7.2}ms p99={:>8.2}ms  (p99/p50 = {:.1} -> the variance)",
        ts.p50_ms,
        ts.p99_ms,
        ts.p99_ms / ts.p50_ms.max(1e-9)
    );
    println!(
        "  compose-post: median={:>7.2}ms p99={:>8.2}ms  (p99/p50 = {:.1} -> the median)",
        cs.p50_ms,
        cs.p99_ms,
        cs.p99_ms / cs.p50_ms.max(1e-9)
    );

    section("end-to-end latency after scaling one service to two replicas");
    let [_, _, text_scaled] = measure(Some("text"), seconds, rate, seed + 1);
    let [_, _, compose_scaled] = measure(Some("compose-post"), seconds, rate, seed + 2);
    let b = summarize_us(before);
    let t = summarize_us(text_scaled);
    let c = summarize_us(compose_scaled);
    println!(
        "  before:          median={:>7.2}ms p99={:>8.2}ms",
        b.p50_ms, b.p99_ms
    );
    println!(
        "  scale text:      median={:>7.2}ms p99={:>8.2}ms   <- variance scaled",
        t.p50_ms, t.p99_ms
    );
    println!(
        "  scale compose:   median={:>7.2}ms p99={:>8.2}ms   <- median scaled",
        c.p50_ms, c.p99_ms
    );
    println!(
        "\n  tail improvement from scaling text: {:.1}%  vs compose: {:.1}%",
        (1.0 - t.p99_ms / b.p99_ms) * 100.0,
        (1.0 - c.p99_ms / b.p99_ms) * 100.0
    );
    paper_note("scaling the higher-variance service (text) improves the tail; the higher-median one does not");
}
