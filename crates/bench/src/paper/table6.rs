//! Table 6: average latency for resource-management operations.
//!
//! Samples each actuation-latency class through the simulator's actuator
//! model and verifies the measured mean/SD against the paper's values
//! (which the model encodes), then measures the end-to-end command
//! application latency inside a live simulation.

use firm_sim::actuator::table6;
use firm_sim::spec::{AppSpec, ClusterSpec};
use firm_sim::{Command, InstanceId, ResourceKind, SimRng, Simulation};

use crate::{banner, paper_note, section, Args};

pub fn run(args: &Args) {
    let samples = args.u64("samples", 5_000) as usize;
    banner(
        "Table 6",
        "Avg. latency for resource management operations (partition + container start)",
    );

    let classes = [
        (
            "CPU partition (cgroups cpu.cfs_quota_us)",
            table6::CPU,
            2.1,
            0.3,
        ),
        ("Mem partition (Intel MBA)", table6::MEM, 42.4, 11.0),
        ("LLC partition (Intel CAT)", table6::LLC, 39.8, 9.2),
        ("I/O partition (cgroups blkio)", table6::IO, 2.3, 0.4),
        ("Net partition (tc HTB)", table6::NET, 12.3, 1.1),
        ("Container start (warm)", table6::CONTAINER_WARM, 45.7, 6.9),
        (
            "Container start (cold)",
            table6::CONTAINER_COLD,
            2050.8,
            291.4,
        ),
    ];

    section("sampled actuation latencies");
    println!(
        "  {:<42} {:>10} {:>9} | paper mean/SD",
        "operation", "mean (ms)", "SD (ms)"
    );
    let mut rng = SimRng::new(6);
    for (name, class, paper_mean, paper_sd) in classes {
        let xs: Vec<f64> = (0..samples)
            .map(|_| class.sample(&mut rng).as_millis_f64())
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        println!(
            "  {:<42} {:>10.1} {:>9.1} | {:>7.1} / {:.1}",
            name,
            mean,
            var.sqrt(),
            paper_mean,
            paper_sd
        );
    }

    section("in-simulation command application (issue → effect)");
    let mut sim =
        Simulation::builder(ClusterSpec::small(2), AppSpec::three_tier_demo(), 66).build();
    let cmds = [
        (
            "SetPartition cpu",
            Command::SetPartition {
                instance: InstanceId(0),
                kind: ResourceKind::Cpu,
                amount: 3.0,
            },
        ),
        (
            "SetPartition mem",
            Command::SetPartition {
                instance: InstanceId(0),
                kind: ResourceKind::MemBw,
                amount: 4_000.0,
            },
        ),
        (
            "ScaleOut warm",
            Command::ScaleOut {
                service: firm_sim::ServiceId(1),
                warm: true,
            },
        ),
        (
            "ScaleOut cold",
            Command::ScaleOut {
                service: firm_sim::ServiceId(2),
                warm: false,
            },
        ),
    ];
    for (name, cmd) in cmds {
        let latency = sim.apply(cmd);
        println!("  {:<42} {:>10.1} ms", name, latency.as_millis_f64());
    }
    paper_note("§5: 2.1–45.7 ms partition ops lower-bound any mitigation; cold start ≈ 2 s");
}
