//! Wire-codec impls for FIRM's control-plane data.
//!
//! These are the payloads of the fleet's cut points: a
//! [`PolicyCheckpoint`] ships a frozen shared agent to a remote worker
//! and back, an [`ExperienceLog`] streams a worker's harvested
//! transitions home to the central trainer, and
//! the controller/campaign configs ride inside a `Scenario`. Floats use
//! shortest round-trip rendering, so a policy that crosses the wire
//! deploys bit-identical weights.

use firm_wire::wire_struct;

use crate::baselines::{AimdConfig, K8sConfig};
use crate::controller::PolicyCheckpoint;
use crate::extractor::InstanceFeatures;
use crate::injector::CampaignConfig;
use crate::manager::ExperienceLog;

wire_struct!(PolicyCheckpoint { actor, critic });

wire_struct!(InstanceFeatures {
    instance,
    service,
    ri,
    ci,
    samples,
});

wire_struct!(ExperienceLog {
    transitions,
    svm_examples,
});

wire_struct!(CampaignConfig {
    lambda,
    kinds,
    intensity,
    duration,
    target_nodes,
    container_level,
});

wire_struct!(K8sConfig {
    target_utilization,
    tolerance,
    max_replicas,
    downscale_stabilization_ticks,
});

wire_struct!(AimdConfig {
    additive_step,
    beta,
    low_utilization,
    cpu_bounds,
});

#[cfg(test)]
mod tests {
    use super::*;
    use firm_ml::Transition;
    use firm_sim::anomaly::ANOMALY_KINDS;
    use firm_sim::{InstanceId, ServiceId, SimDuration};
    use firm_wire::{assert_round_trip, decode_string, encode_string};

    #[test]
    fn policy_checkpoints_round_trip_bit_identically() {
        let policy = PolicyCheckpoint {
            actor: (0..64).map(|i| (i as f64 * 0.731).sin() * 1e3).collect(),
            critic: (0..96).map(|i| 1.0 / (i as f64 + 0.123)).collect(),
        };
        assert_round_trip(&policy);
        let back: PolicyCheckpoint = decode_string(&encode_string(&policy)).unwrap();
        assert_eq!(back.digest(), policy.digest(), "weight bits changed");
        let small = PolicyCheckpoint {
            actor: vec![0.5, -0.25],
            critic: vec![1.0 / 3.0],
        };
        assert_eq!(
            encode_string(&small),
            r#"{"actor":[0.5,-0.25],"critic":[0.3333333333333333]}"#
        );
    }

    #[test]
    fn experience_logs_round_trip() {
        let mut log = ExperienceLog::default();
        log.transitions.push((
            ServiceId(3),
            Transition {
                state: vec![0.25, -0.5],
                action: vec![1.0],
                reward: -0.125,
                next_state: vec![0.3, 0.7],
                done: false,
            },
        ));
        log.svm_examples.push((
            InstanceFeatures {
                instance: InstanceId(9),
                service: ServiceId(3),
                ri: 0.87,
                ci: 2.4,
                samples: 17,
            },
            true,
        ));
        assert_round_trip(&log);
        assert_round_trip(&ExperienceLog::default());
        let features = r#"{"instance":9,"service":3,"ri":0.87,"ci":2.4,"samples":17}"#;
        assert_eq!(encode_string(&log.svm_examples[0].0), features);
        assert_eq!(
            encode_string(&log),
            format!(
                r#"{{"transitions":[[3,{{"state":[0.25,-0.5],"action":[1],"reward":-0.125,"next_state":[0.3,0.7],"done":false}}]],"svm_examples":[[{features},true]]}}"#
            )
        );
    }

    #[test]
    fn configs_round_trip() {
        assert_round_trip(&K8sConfig::default());
        assert_round_trip(&AimdConfig::default());
        assert_round_trip(&CampaignConfig::default());
        assert_eq!(
            encode_string(&K8sConfig::default()),
            r#"{"target_utilization":0.8,"tolerance":0.1,"max_replicas":8,"downscale_stabilization_ticks":6}"#
        );
        assert_eq!(
            encode_string(&AimdConfig::default()),
            r#"{"additive_step":1,"beta":0.9,"low_utilization":0.4,"cpu_bounds":[0.5,16]}"#
        );
        let campaign = CampaignConfig {
            lambda: 0.5,
            kinds: ANOMALY_KINDS.to_vec(),
            intensity: (0.1, 0.9),
            duration: (SimDuration::from_secs(1), SimDuration::from_secs(4)),
            target_nodes: vec![firm_sim::NodeId(0), firm_sim::NodeId(2)],
            container_level: false,
        };
        assert_round_trip(&campaign);
        assert_eq!(
            encode_string(&campaign),
            r#"{"lambda":0.5,"kinds":["Workload Variation","Network Delay","CPU Utilization","LLC Bandwidth & Capacity","Memory Bandwidth","I/O Bandwidth","Network Bandwidth"],"intensity":[0.1,0.9],"duration":[1000000,4000000],"target_nodes":[0,2],"container_level":false}"#
        );
    }
}
