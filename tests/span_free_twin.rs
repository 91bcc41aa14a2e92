//! The span-free simulator against its reference twin.
//!
//! `SimulationBuilder::record_spans(false)` promises the same random
//! draws, the same events in the same `(time, seq)` order, and so the
//! same latencies, run statistics and telemetry as the span-recording
//! engine — only `CompletedRequest::spans` goes empty. SLO calibration
//! and every span-blind fleet controller run on that promise, so it is
//! held here the way the contention aggregates are held to the peer
//! walk: the slow, full-span path is the reference.

use firm::core::slo::calibrate_slos;
use firm::sim::spec::{AppSpec, ClusterSpec};
use firm::sim::{
    AnomalyKind, AnomalySpec, Command, InstanceId, NodeId, PoissonArrivals, ResourceKind, RunStats,
    SimDuration, SimTime, Simulation, TraceId,
};
use firm::workload::apps::{Benchmark, ALL_BENCHMARKS};
use firm::workload::builder::scale_replicas;

/// What a span-blind consumer can see of one completed request.
type EndToEnd = (TraceId, u16, SimTime, SimTime, SimDuration, bool);

struct Observed {
    requests: Vec<EndToEnd>,
    telemetry: Vec<String>,
    stats: RunStats,
    spans: usize,
}

/// Three seconds of one benchmark under a memory-bandwidth stressor, an
/// injected network delay and a workload surge, with the commands a
/// controller would issue landing mid-run: a CPU quota squeezed far
/// below demand (queueing, then drops — the entry queue is shortened so
/// three seconds suffice), a memory-bandwidth partition, a scale-out and
/// the scale-in that drains it.
fn scripted_run(benchmark: Benchmark, replica_factor: u32, seed: u64, spans: bool) -> Observed {
    let mut app = benchmark.build();
    scale_replicas(&mut app, replica_factor);
    let entry = app.request_types[0].entry;
    app.services[entry.index()].queue_cap = 16;
    let mut sim = Simulation::builder(ClusterSpec::small(3), app, seed)
        .arrivals(Box::new(PoissonArrivals::new(120.0)))
        .record_spans(spans)
        .build();
    let entry_instance = sim.replicas(entry)[0];

    let ms = SimDuration::from_millis;
    sim.inject(AnomalySpec::new(
        AnomalyKind::MemBwStress,
        NodeId(0),
        0.9,
        ms(1_500),
    ));
    sim.inject_at(
        AnomalySpec::new(AnomalyKind::NetworkDelay, NodeId(1), 0.4, ms(1_200)),
        SimTime::ZERO + ms(400),
    );
    sim.inject_at(
        AnomalySpec::new(AnomalyKind::WorkloadVariation, NodeId(0), 0.8, ms(1_000)),
        SimTime::ZERO + ms(900),
    );

    let mut out = Observed {
        requests: Vec::new(),
        telemetry: Vec::new(),
        stats: RunStats::default(),
        spans: 0,
    };
    for step in 0..12 {
        match step {
            2 => {
                sim.apply(Command::SetPartition {
                    instance: entry_instance,
                    kind: ResourceKind::Cpu,
                    amount: 0.05,
                });
            }
            3 => {
                sim.apply(Command::SetPartition {
                    instance: InstanceId(1),
                    kind: ResourceKind::MemBw,
                    amount: 2_000.0,
                });
            }
            5 => {
                sim.apply(Command::ScaleOut {
                    service: entry,
                    warm: true,
                });
            }
            6 => {
                sim.apply(Command::SetPartition {
                    instance: entry_instance,
                    kind: ResourceKind::Cpu,
                    amount: 2.0,
                });
            }
            9 => {
                sim.apply(Command::ScaleIn { service: entry });
            }
            _ => {}
        }
        sim.run_for(ms(250));
        for r in sim.drain_completed() {
            out.spans += r.spans.len();
            out.requests.push((
                r.trace_id,
                r.request_type.raw(),
                r.started,
                r.finished,
                r.latency,
                r.dropped,
            ));
        }
        out.telemetry.push(format!("{:?}", sim.drain_telemetry()));
    }
    out.stats = sim.stats();
    out
}

#[test]
fn span_free_run_is_the_full_run_minus_the_spans() {
    let mut drops = 0;
    for benchmark in ALL_BENCHMARKS {
        for replica_factor in [1, 10] {
            for seed in [7, 0xF1A5] {
                let case = format!("{benchmark:?} x{replica_factor} seed {seed}");
                let full = scripted_run(benchmark, replica_factor, seed, true);
                let lean = scripted_run(benchmark, replica_factor, seed, false);
                assert!(full.requests.len() > 150, "{case}: too little traffic");
                assert!(
                    full.spans > full.requests.len(),
                    "{case}: reference lost spans"
                );
                assert_eq!(lean.spans, 0, "{case}: span-free run recorded spans");
                assert_eq!(full.requests, lean.requests, "{case}");
                assert_eq!(
                    format!("{:?}", full.stats),
                    format!("{:?}", lean.stats),
                    "{case}"
                );
                assert_eq!(full.telemetry, lean.telemetry, "{case}");
                drops += full.requests.iter().filter(|r| r.5).count();
            }
        }
    }
    assert!(drops > 0, "no case exercised the drop path");
}

/// `calibrate_slos` as it was before the simulator could run span-free:
/// the same 2 s + 8 s protocol on the full-span engine.
fn calibrate_slos_full_span(
    app: &mut AppSpec,
    cluster: &ClusterSpec,
    rate: f64,
    factor: f64,
    seed: u64,
) {
    let mut sim = Simulation::builder(cluster.clone(), app.clone(), seed)
        .arrivals(Box::new(PoissonArrivals::new(rate)))
        .build();
    sim.run_for(SimDuration::from_secs(2));
    sim.drain_completed();
    sim.run_for(SimDuration::from_secs(8));
    let mut per_rt: Vec<Vec<f64>> = vec![Vec::new(); app.request_types.len()];
    for r in sim.drain_completed() {
        assert!(r.root_span().is_some(), "reference run lost its spans");
        if !r.dropped {
            per_rt[r.request_type.index()].push(r.latency.as_micros() as f64);
        }
    }
    for (rt, lats) in app.request_types.iter_mut().zip(&mut per_rt) {
        if lats.is_empty() {
            continue;
        }
        lats.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let p99 = firm::sim::stats::sample_quantile(lats, 0.99);
        rt.slo_latency_us = ((p99 * factor) as u64).max(1_000);
    }
}

#[test]
fn span_free_calibration_matches_the_full_span_reference() {
    let slos = |app: &AppSpec| -> Vec<u64> {
        app.request_types.iter().map(|r| r.slo_latency_us).collect()
    };
    let benchmarks = [
        Benchmark::SocialNetwork,
        Benchmark::HotelReservation,
        Benchmark::TrainTicket,
    ];
    for benchmark in benchmarks {
        for rate in [30.0, 90.0] {
            for seed in [7, 7 ^ 0x510C_A11B] {
                let cluster = ClusterSpec::small(3);
                let mut lean = benchmark.build();
                let uncalibrated = slos(&lean);
                let mut reference = lean.clone();
                calibrate_slos(&mut lean, &cluster, rate, 1.5, seed);
                calibrate_slos_full_span(&mut reference, &cluster, rate, 1.5, seed);
                let case = format!("{benchmark:?} at {rate} req/s, seed {seed}");
                assert_eq!(slos(&lean), slos(&reference), "{case}");
                assert_ne!(slos(&lean), uncalibrated, "{case}: calibration was a no-op");
            }
        }
    }
}
