//! Seeded-sweep fuzzing of the *typed* decoders on both protocol
//! boundaries. `firm-wire`'s own fuzz suite stops at `parse`; a frame
//! that parses still has to survive `WireDecode` — missing fields,
//! fields of the wrong JSON type, half a frame — and the contract there
//! is the same: every input decodes or returns an error, nothing
//! panics. The fodder is real encoded frames of all four frame types
//! ([`WorkerRequest`], [`WorkerMessage`], [`ClientRequest`],
//! [`ServerMessage`]), mutated four ways: truncation, bit flips, a
//! dropped object field, and a node swapped for another JSON type.
//!
//! Deterministic by construction (xoshiro256++ from fixed seeds), so a
//! failure reproduces byte-for-byte.

use firm_core::controller::PolicyCheckpoint;
use firm_core::extractor::InstanceFeatures;
use firm_fleet::{
    builtin_catalog, run_one, FleetController, FleetReport, Scenario, WorkerHeartbeat, WorkerHello,
    WorkerMessage, WorkerRequest, WorkerResponse,
};
use firm_rng::Xoshiro256;
use firm_serve::protocol::{ClientRequest, ServerMessage, SubmitRequest};
use firm_serve::{SubmissionReport, PROTOCOL_VERSION};
use firm_sim::{InstanceId, ServiceId, SimDuration};
use firm_wire::{decode_line, encode_line, parse, JsonValue, WireDecode};

/// Mutations per frame per mutation kind.
const ROUNDS: u64 = 48;

/// A short FIRM scenario, so responses and reports carry real
/// experience and outcomes.
fn firm_scenario() -> Scenario {
    builtin_catalog()
        .into_iter()
        .find(|s| s.controller == FleetController::Firm)
        .expect("the catalog has a FIRM scenario")
        .with_duration(SimDuration::from_secs(8))
}

fn policy() -> PolicyCheckpoint {
    PolicyCheckpoint {
        actor: vec![0.25, -1.5, 3.0e-9],
        critic: vec![1.0, f64::MIN_POSITIVE],
    }
}

/// The decode contract: `Ok`, or an error that says something. A panic
/// fails the test by itself.
fn probe<T: WireDecode>(input: &str) {
    if let Err(e) = decode_line::<T>(input) {
        assert!(!e.to_string().is_empty(), "empty decode error");
    }
}

/// A node's replacement of another JSON type.
fn other_type(v: &JsonValue) -> JsonValue {
    match v {
        JsonValue::Null => JsonValue::Bool(true),
        JsonValue::Bool(_) => JsonValue::U64(1),
        JsonValue::U64(_) | JsonValue::I64(_) | JsonValue::F64(_) => JsonValue::Str("x".into()),
        JsonValue::Str(_) => JsonValue::U64(7),
        JsonValue::Array(_) => JsonValue::Object(Vec::new()),
        JsonValue::Object(_) => JsonValue::Array(Vec::new()),
    }
}

/// Applies `edit` to the `target`-th node of the document in preorder,
/// counting only nodes `eligible` accepts; `seen` ends as their number.
fn edit_nth(
    v: &mut JsonValue,
    target: u64,
    seen: &mut u64,
    eligible: &dyn Fn(&JsonValue) -> bool,
    edit: &mut dyn FnMut(&mut JsonValue),
) {
    if eligible(v) {
        if *seen == target {
            edit(v);
        }
        *seen += 1;
    }
    match v {
        JsonValue::Array(items) => {
            for item in items {
                edit_nth(item, target, seen, eligible, edit);
            }
        }
        JsonValue::Object(fields) => {
            for (_, value) in fields {
                edit_nth(value, target, seen, eligible, edit);
            }
        }
        _ => {}
    }
}

/// Runs the four mutation sweeps over one encoded frame.
fn sweep<T: WireDecode>(frame: &str, rng: &mut Xoshiro256) {
    probe::<T>(frame);

    for _ in 0..ROUNDS {
        let mut end = rng.next_below(frame.len() as u64) as usize;
        while !frame.is_char_boundary(end) {
            end -= 1;
        }
        probe::<T>(&frame[..end]);
    }

    let bytes = frame.as_bytes();
    for _ in 0..ROUNDS {
        let mut mutated = bytes.to_vec();
        let i = rng.next_below(mutated.len() as u64) as usize;
        mutated[i] ^= (1 << rng.next_below(8)) as u8;
        probe::<T>(&String::from_utf8_lossy(&mutated));
    }

    let doc = parse(frame.trim_end()).expect("an encoded frame parses");
    let any = |_: &JsonValue| true;
    let has_fields = |v: &JsonValue| matches!(v, JsonValue::Object(f) if !f.is_empty());
    let count = |eligible: &dyn Fn(&JsonValue) -> bool| {
        let mut seen = 0;
        edit_nth(&mut doc.clone(), u64::MAX, &mut seen, eligible, &mut |_| {});
        seen
    };
    let (nodes, objects) = (count(&any), count(&has_fields));
    for _ in 0..ROUNDS {
        let mut dropped = doc.clone();
        let (target, pick) = (rng.next_below(objects), rng.next_u64());
        edit_nth(&mut dropped, target, &mut 0, &has_fields, &mut |v| {
            if let JsonValue::Object(fields) = v {
                fields.remove((pick % fields.len() as u64) as usize);
            }
        });
        probe::<T>(&dropped.render());

        let mut swapped = doc.clone();
        let target = rng.next_below(nodes);
        edit_nth(&mut swapped, target, &mut 0, &any, &mut |v| {
            *v = other_type(v)
        });
        probe::<T>(&swapped.render());
    }
}

#[test]
fn worker_frames_decode_or_error_under_mutation() {
    let scenario = firm_scenario();
    let (outcome, mut experience) = run_one(&scenario, 11);
    assert!(!experience.transitions.is_empty(), "no experience to fuzz");
    // Workers ship no SVM examples, but the v7 frame still decodes them.
    let features = InstanceFeatures {
        instance: InstanceId(4),
        service: ServiceId(2),
        ri: 0.75,
        ci: 1.25,
        samples: 12,
    };
    experience.svm_examples.push((features, false));
    let mut rng = Xoshiro256::new(0xDEC0_DE01);

    for (policy, reuse_policy) in [(None, false), (Some(policy()), false), (None, true)] {
        let request = WorkerRequest {
            policy,
            reuse_policy,
            intra_shards: 2,
            ..WorkerRequest::new(3, u64::MAX, scenario.clone())
        };
        sweep::<WorkerRequest>(&encode_line(&request), &mut rng);
    }

    let messages = [
        WorkerMessage::Hello(WorkerHello {
            protocol: PROTOCOL_VERSION,
            pid: 4242,
            heartbeat_ms: 200,
        }),
        WorkerMessage::Heartbeat(WorkerHeartbeat { busy: Some(3) }),
        WorkerMessage::Heartbeat(WorkerHeartbeat { busy: None }),
        WorkerMessage::Response(Box::new(WorkerResponse {
            index: 3,
            outcome,
            experience,
        })),
        WorkerMessage::Metrics(firm_obs::metrics().snapshot()),
    ];
    for message in &messages {
        sweep::<WorkerMessage>(&encode_line(message), &mut rng);
    }
}

#[test]
fn serve_frames_decode_or_error_under_mutation() {
    let scenario = firm_scenario();
    let (outcome, _) = run_one(&scenario, 12);
    let mut rng = Xoshiro256::new(0xDEC0_DE02);

    let requests = [
        ClientRequest::Submit(SubmitRequest {
            protocol: PROTOCOL_VERSION,
            seed: 7,
            base_index: 12,
            scenarios: vec![scenario.clone(), builtin_catalog().remove(0)],
        }),
        ClientRequest::Drain {
            protocol: PROTOCOL_VERSION,
        },
        ClientRequest::Shutdown {
            protocol: PROTOCOL_VERSION,
        },
    ];
    for request in &requests {
        sweep::<ClientRequest>(&encode_line(request), &mut rng);
    }

    let messages = [
        ServerMessage::Accepted {
            protocol: PROTOCOL_VERSION,
            submission: 1,
            scenarios: 2,
        },
        ServerMessage::Outcome {
            submission: 1,
            index: 12,
            outcome: Box::new(outcome.clone()),
        },
        ServerMessage::Report(Box::new(SubmissionReport {
            submission: 1,
            cumulative: false,
            report: FleetReport::new(7, vec![outcome]),
            policy: policy(),
            pooled_transitions: 40,
            pooled_svm: 9,
            trained_updates: 16,
        })),
        ServerMessage::Error {
            submission: 0,
            message: "bad \"frame\"\n".to_string(),
            retryable: true,
        },
    ];
    for message in &messages {
        sweep::<ServerMessage>(&encode_line(message), &mut rng);
    }
}
