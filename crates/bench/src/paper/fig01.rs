//! Fig. 1: the motivating experiment — tail-latency spikes from
//! memory-bandwidth contention that the Kubernetes autoscaler cannot see
//! (CPU utilization never moves) but FIRM mitigates.
//!
//! One memory-bandwidth anomaly hits the node hosting the Social Network
//! read path mid-run. The same timeline is produced under (a) the K8s
//! HPA and (b) FIRM; printed per 5-second window: p99 latency, average
//! container CPU utilization, and per-core DRAM access of the victim
//! node.

use firm_core::baselines::{K8sConfig, K8sHpaController};
use firm_core::controller::{run_episode, ControlDecision, Controller, EpisodeSpec, TickContext};
use firm_core::estimator::AgentRegime;
use firm_core::training::train_firm;
use firm_sim::spec::ClusterSpec;
use firm_sim::{AnomalyKind, AnomalySpec, InstanceId, ResourceKind, SimDuration, Simulation};
use firm_workload::apps::Benchmark;

use crate::{
    banner, calibrated_app, factor, paper_note, poisson_sim, quantiles, section, training_config,
    Args,
};

/// Reporting window, in 1 s control ticks.
const WINDOW: u64 = 5;

/// One reporting window: end time (s), p99 (ms), mean container CPU
/// utilization (%), and the victim's per-core DRAM access (MB/s).
type Row = (u64, f64, f64, f64);

/// What one reporting window has read so far.
#[derive(Default)]
struct Window {
    lats: Vec<f64>,
    cpu_util_sum: f64,
    n_util: f64,
    dram: f64,
}

/// Wraps the controller under test: reads each control window's
/// latencies, CPU utilization and victim DRAM from the tick, closes a
/// [`Row`] every [`WINDOW`] ticks, then delegates.
struct Recorder<'a> {
    inner: &'a mut dyn Controller,
    victim: InstanceId,
    ticks: u64,
    window: Window,
    rows: Vec<Row>,
}

impl Controller for Recorder<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tick(&mut self, sim: &mut Simulation, ctx: TickContext) -> ControlDecision {
        let w = &mut self.window;
        for r in &ctx.completed {
            if !r.dropped {
                w.lats.push(r.latency.as_micros() as f64);
            }
        }
        for i in &ctx.telemetry.instances {
            w.cpu_util_sum += i.utilization.get(ResourceKind::Cpu);
            w.n_util += 1.0;
            if i.instance == self.victim {
                w.dram = i.per_core_dram_mbps;
            }
        }
        self.ticks += 1;
        if self.ticks.is_multiple_of(WINDOW) {
            let w = std::mem::take(&mut self.window);
            let [p99] = quantiles(w.lats, [0.99]).map(|us| us / 1e3);
            let cpu = w.cpu_util_sum / w.n_util.max(1.0) * 100.0;
            self.rows.push((self.ticks, p99, cpu, w.dram));
        }
        self.inner.tick(sim, ctx)
    }
}

/// Runs the Fig. 1 timeline under `controller`, rounded up to whole
/// reporting windows.
fn timeline(controller: &mut dyn Controller, seconds: u64, rate: f64, seed: u64) -> Vec<Row> {
    let cluster = ClusterSpec::small(6);
    let app = calibrated_app(Benchmark::SocialNetwork, &cluster, rate, seed);
    let mut sim = poisson_sim(cluster, app, rate, seed);

    // The anomaly: memory-bandwidth contention on the node hosting the
    // post-storage memcached, from t=60 s to t=240 s (like Fig. 1).
    let victim_svc = sim.app().service_by_name("post-storage-memcached").unwrap();
    let victim = sim.replicas(victim_svc)[0];
    let start = seconds / 5;
    sim.inject_at(
        AnomalySpec::at_instance(
            AnomalyKind::MemBwStress,
            victim,
            0.95,
            SimDuration::from_secs(seconds * 3 / 5),
        ),
        firm_sim::SimTime::from_secs(start),
    );

    let mut recorder = Recorder {
        inner: controller,
        victim,
        ticks: 0,
        window: Window::default(),
        rows: Vec::new(),
    };
    let spec = EpisodeSpec {
        duration: SimDuration::from_secs(seconds.div_ceil(WINDOW) * WINDOW),
        control_interval: SimDuration::from_secs(1),
        warmup: SimDuration::ZERO,
    };
    run_episode(&mut sim, &mut recorder, None, &spec);
    recorder.rows
}

pub fn run(args: &Args) {
    let seconds = args.u64("seconds", 150);
    let rate = args.f64("rate", 350.0);
    let seed = args.u64("seed", 43);
    let episodes = args.u64("episodes", 60) as usize;

    banner(
        "Fig. 1",
        "Latency spikes from memory-bandwidth contention: K8s autoscaling vs FIRM",
    );

    // Pre-train FIRM online against the injector (§3.6/§4.3).
    eprintln!("[fig01] pre-training FIRM for {episodes} episodes...");
    let train_app = calibrated_app(Benchmark::SocialNetwork, &ClusterSpec::small(6), rate, seed);
    let cfg = training_config(episodes, episodes / 3, 10, rate, seed);
    let (_, mut manager) = train_firm(&train_app, AgentRegime::Shared, &cfg);
    manager.config.explore = false;
    manager.reset_environment();

    let mut hpa = K8sHpaController::new(K8sConfig::default(), train_app.services.len());
    let k8s = timeline(&mut hpa, seconds, rate, seed);
    let firm = timeline(&mut manager, seconds, rate, seed);

    section("timeline (anomaly active in the middle three-fifths of the run)");
    println!(
        "  {:>5} | {:>12} {:>9} {:>11} | {:>12} {:>9} {:>11}",
        "t(s)", "K8s p99(ms)", "cpu(%)", "dram(MB/s)", "FIRM p99(ms)", "cpu(%)", "dram(MB/s)"
    );
    for (a, b) in k8s.iter().zip(&firm) {
        println!(
            "  {:>5} | {:>12.1} {:>9.1} {:>11.0} | {:>12.1} {:>9.1} {:>11.0}",
            a.0, a.1, a.2, a.3, b.1, b.2, b.3
        );
    }

    // Summary over the anomalous stretch.
    let mid = |rows: &[Row]| {
        let lo = rows.len() / 5;
        let hi = rows.len() * 4 / 5;
        let xs = &rows[lo..hi];
        xs.iter().map(|r| r.1).sum::<f64>() / xs.len() as f64
    };
    println!(
        "\n  mean p99 during contention: K8s {:.1} ms vs FIRM {:.1} ms ({})",
        mid(&k8s),
        mid(&firm),
        factor(mid(&k8s), mid(&firm))
    );
    paper_note("K8s: sustained tail spike, CPU util flat (blind); FIRM restores per-core DRAM access and the tail recovers");
}
