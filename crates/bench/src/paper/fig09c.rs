//! Fig. 9(c): the multi-anomaly injection campaign — per-window
//! intensity of each of the six interference sources.

use firm_sim::spec::ClusterSpec;
use firm_sim::{NodeId, SimDuration, Simulation};
use firm_workload::apps::Benchmark;

use crate::{banner, paper_note, Args};

pub fn run(args: &Args) {
    let windows = args.u64("windows", 12) as usize;
    let window_secs = args.u64("window-secs", 10);
    let seed = args.u64("seed", 9);

    banner(
        "Fig. 9(c)",
        "Anomaly-injection intensity and timing (multi-anomaly campaign)",
    );

    let app = Benchmark::SocialNetwork.build();
    let mut sim = Simulation::builder(ClusterSpec::paper_cluster(), app, seed).build();
    let timeline = firm_core::injector::fig9c_campaign(
        &mut sim,
        windows,
        SimDuration::from_secs(window_secs),
        NodeId(0),
        seed,
    );

    print!("  {:<22}", "interference source");
    for w in 0..windows {
        print!(" T{:<4}", w + 1);
    }
    println!();
    let sources = ["Workload", "CPU", "Memory", "LLC", "Disk I/O", "Network"];
    for (s, name) in sources.iter().enumerate() {
        print!("  {name:<22}");
        for row in &timeline {
            print!(" {:<5.2}", row[s].1);
        }
        println!();
    }
    println!(
        "\n  {} windows x {}s, intensities ~ U[0,1] per source per window",
        windows, window_secs
    );
    paper_note("12 x 10 s windows, 6 sources, intensity drawn uniformly at random in [0,1]");
}
