//! The coordinator↔worker protocol, shared by every transport.
//!
//! One newline-delimited wire frame per message, in both directions
//! (the escaper guarantees a rendered frame never contains a raw
//! newline). The coordinator writes [`WorkerRequest`] frames down a
//! [`crate::transport::Transport`] connection — a subprocess's stdin or
//! a TCP socket, the frames are identical — and reads [`WorkerMessage`]
//! frames back; a worker is nothing but `decode → run_one_with →
//! encode` in a loop, exactly the thin-worker shape distributed
//! JIQ-style designs argue for — all policy (scheduling, ordering,
//! training) stays at the coordinator.
//!
//! The worker→coordinator direction is a tagged union because it
//! carries control-plane traffic alongside results:
//!
//! * [`WorkerHello`] — the handshake, first frame of every session;
//!   carries [`PROTOCOL_VERSION`] so a version skew fails loudly at
//!   connect time instead of as a cryptic decode error mid-catalog;
//! * [`WorkerHeartbeat`] — emitted on a timer while the session lives,
//!   so the supervisor can tell a *slow* worker (heartbeats flowing)
//!   from a *dead* one (silence) without waiting for the full
//!   per-request timeout;
//! * [`WorkerMessage::Response`] — a completed [`WorkerResponse`].
//!
//! The `index` is the scenario's *catalog index*: it both derives the
//! per-scenario seed on the coordinator (the `(fleet seed, index) →
//! seed` contract pinned in [`crate::runner::scenario_seed`]) and slots
//! the response back into catalog order, which is what keeps a sharded
//! fleet bit-identical to the in-process path. Control frames carry no
//! results, so their timing-dependent interleaving cannot move a single
//! report byte.

use firm_core::controller::PolicyCheckpoint;
use firm_core::manager::ExperienceLog;
use firm_obs::MetricsSnapshot;
use firm_wire::{wire_enum, wire_struct};

use crate::report::ScenarioOutcome;
use crate::scenario::Scenario;

/// The fleet protocol version, exchanged in the [`WorkerHello`]
/// handshake. Bump it when a frame's shape changes incompatibly — the
/// supervisor refuses to run against a worker that speaks a different
/// version.
///
/// v2 added the [`WorkerMessage::Metrics`] session-end frame. v3 added
/// [`WorkerRequest::intra_shards`], inert since scenarios stopped
/// fanning out inside a worker. v4 added the client-side serve
/// vocabulary (`firm-serve`'s `ClientRequest`/`ServerMessage` frames,
/// which share this version so a mixed-version fleet fails loudly at
/// either boundary). v5 added the `retryable` field to the serve
/// `error` frame, so clients can tell transient refusals
/// (backpressure, shutdown drain) from permanent ones. v6 added the
/// `replica_factor` and `slo_penalty` scenario fields (scale-factor
/// catalog generation). v7: per-submission reports carry no policy;
/// read it from the cumulative report.
pub const PROTOCOL_VERSION: u64 = 7;

/// One unit of work shipped to a subprocess worker.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerRequest {
    /// The scenario's catalog index (slots the response back in order).
    pub index: u64,
    /// The derived per-scenario seed (the coordinator owns derivation).
    pub seed: u64,
    /// The scenario to run, as plain data.
    pub scenario: Scenario,
    /// A frozen policy to deploy (the round trip's inference pass);
    /// `None` with `reuse_policy` unset trains fresh.
    pub policy: Option<PolicyCheckpoint>,
    /// Deploy the policy a *previous* frame on this connection carried,
    /// without re-shipping the weights. The coordinator sends the
    /// checkpoint once per worker and sets this on every later frame,
    /// so a deployment pass ships the weights `workers` times, not
    /// `scenarios` times.
    pub reuse_policy: bool,
    /// Inert: every coordinator sends 1 and nothing reads it, since a
    /// worker runs each scenario on one thread. Added in protocol v3
    /// for a per-scenario stage fan-out that no longer exists; the v8
    /// frame change drops it.
    pub intra_shards: u64,
}

wire_struct!(WorkerRequest {
    index,
    seed,
    scenario,
    policy,
    reuse_policy,
    intra_shards,
});

/// One completed unit of work streamed back to the coordinator.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerResponse {
    /// Echo of the request's catalog index.
    pub index: u64,
    /// The scenario's deterministic measurements.
    pub outcome: ScenarioOutcome,
    /// Experience harvested for the central trainer (empty for
    /// baselines and inference-mode runs).
    pub experience: ExperienceLog,
}

// The tag is the `WorkerMessage::Response` envelope: a standalone
// response frame and an enveloped one are the same bytes.
wire_struct!(WorkerResponse tagged "response" {
    index,
    outcome,
    experience,
});

/// The handshake: the first frame a worker writes on every session,
/// before it reads any work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerHello {
    /// The protocol the worker speaks; must equal [`PROTOCOL_VERSION`].
    pub protocol: u64,
    /// The worker's OS process id (diagnostics only — shows up in
    /// supervisor failure messages so operators can find the process).
    pub pid: u64,
    /// The interval between [`WorkerHeartbeat`] frames, in
    /// milliseconds; 0 means this worker sends no heartbeats and the
    /// supervisor falls back to the per-request timeout alone.
    pub heartbeat_ms: u64,
}

wire_struct!(WorkerHello tagged "hello" { protocol, pid, heartbeat_ms });

/// A liveness pulse. Workers emit one every `heartbeat_ms` while a
/// session is open; the supervisor uses silence (no heartbeat *and* no
/// response for several intervals) as its dead-worker signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerHeartbeat {
    /// The catalog index the worker is currently running, if any —
    /// `None` while idle between jobs.
    pub busy: Option<u64>,
}

wire_struct!(WorkerHeartbeat tagged "heartbeat" { busy });

/// Every frame a worker can write: the session handshake, liveness
/// pulses, and completed work. Encoded as a tagged union
/// (`{"type":"hello"|"heartbeat"|"response", ...}`) so the
/// supervisor's reader can dispatch without trying decoders in turn.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerMessage {
    /// Session handshake (first frame).
    Hello(WorkerHello),
    /// Liveness pulse.
    Heartbeat(WorkerHeartbeat),
    /// A completed unit of work (boxed: a response dwarfs the control
    /// frames, and frames travel through queues by value).
    Response(Box<WorkerResponse>),
    /// The worker's observability snapshot, written once at session end
    /// (after the request stream closes, before the process exits).
    /// Pure diagnostics: the supervisor folds it into the out-of-band
    /// `OpsReport` and it never touches a digest-covered byte.
    Metrics(MetricsSnapshot),
}

// Each variant's payload carries its own `"type"` tag (a
// `MetricsSnapshot` encodes as a tagged "metrics" object).
wire_enum!(WorkerMessage by "type" {
    Hello "hello" (WorkerHello),
    Heartbeat "heartbeat" (WorkerHeartbeat),
    Response "response" (Box<WorkerResponse>),
    Metrics "metrics" (MetricsSnapshot),
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_one;
    use crate::scenario::builtin_catalog;
    use firm_sim::SimDuration;
    use firm_wire::{
        assert_round_trip, decode_line, encode_line, encode_string, JsonValue, WireDecode,
        WireEncode,
    };

    #[test]
    fn requests_round_trip_with_and_without_a_policy() {
        let scenario = builtin_catalog().remove(0);
        let fresh = WorkerRequest {
            index: 3,
            seed: u64::MAX,
            scenario: scenario.clone(),
            policy: None,
            reuse_policy: false,
            intra_shards: 1,
        };
        assert_round_trip(&fresh);
        assert_eq!(
            encode_string(&fresh),
            format!(
                r#"{{"index":3,"seed":18446744073709551615,"scenario":{},"policy":null,"reuse_policy":false,"intra_shards":1}}"#,
                encode_string(&scenario)
            )
        );
        assert_round_trip(&WorkerRequest {
            index: 0,
            seed: 1,
            scenario: scenario.clone(),
            policy: Some(PolicyCheckpoint {
                actor: vec![0.5, -0.25],
                critic: vec![1.0 / 3.0],
            }),
            reuse_policy: false,
            intra_shards: 4,
        });
        assert_round_trip(&WorkerRequest {
            index: 1,
            seed: 2,
            scenario,
            policy: None,
            reuse_policy: true,
            intra_shards: 0,
        });
    }

    #[test]
    fn a_real_outcome_and_experience_log_cross_the_frame_boundary() {
        let scenario = builtin_catalog()
            .remove(0)
            .with_duration(SimDuration::from_secs(6));
        let (outcome, experience) = run_one(&scenario, 42);
        assert!(
            !experience.transitions.is_empty(),
            "FIRM run harvested nothing"
        );
        let resp = WorkerResponse {
            index: 7,
            outcome,
            experience,
        };
        let frame = encode_line(&resp);
        assert_eq!(frame.matches('\n').count(), 1, "frame is not one line");
        let back: WorkerResponse = decode_line(&frame).expect("frame decodes");
        assert_eq!(back, resp);
        // A standalone response is the envelope's bytes.
        assert_eq!(
            encode_string(&resp),
            format!(
                r#"{{"type":"response","index":7,"outcome":{},"experience":{}}}"#,
                encode_string(&resp.outcome),
                encode_string(&resp.experience)
            )
        );
    }

    #[test]
    fn control_frames_round_trip() {
        let hello = WorkerMessage::Hello(WorkerHello {
            protocol: PROTOCOL_VERSION,
            pid: 4242,
            heartbeat_ms: 200,
        });
        let idle = WorkerMessage::Heartbeat(WorkerHeartbeat { busy: None });
        let busy = WorkerMessage::Heartbeat(WorkerHeartbeat { busy: Some(11) });
        for (frame, golden) in [
            (
                &hello,
                r#"{"type":"hello","protocol":7,"pid":4242,"heartbeat_ms":200}"#,
            ),
            (&idle, r#"{"type":"heartbeat","busy":null}"#),
            (&busy, r#"{"type":"heartbeat","busy":11}"#),
        ] {
            assert_round_trip(frame);
            assert_eq!(encode_string(frame), golden);
        }
    }

    #[test]
    fn metrics_frames_round_trip() {
        let reg = firm_obs::Registry::new();
        reg.counter("worker.requests.total").add(9);
        reg.gauge("worker.sessions").set(1);
        let h = reg.histogram("worker.scenario.wall_us");
        for v in [15_000u64, 250_000, 1_200_000] {
            h.record(v);
        }
        let msg = WorkerMessage::Metrics(reg.snapshot());
        assert_round_trip(&msg);
        let frame = encode_line(&msg);
        match decode_line::<WorkerMessage>(&frame).expect("frame decodes") {
            WorkerMessage::Metrics(m) => assert_eq!(m.len(), 3),
            other => panic!("decoded wrong variant: {other:?}"),
        }
    }

    #[test]
    fn response_envelope_round_trips_a_real_outcome() {
        let scenario = builtin_catalog()
            .remove(4)
            .with_duration(SimDuration::from_secs(4));
        let (outcome, experience) = run_one(&scenario, 9);
        let resp = WorkerResponse {
            index: 2,
            outcome,
            experience,
        };
        let golden = format!(
            r#"{{"type":"response","index":2,"outcome":{},"experience":{}}}"#,
            encode_string(&resp.outcome),
            encode_string(&resp.experience)
        );
        let msg = WorkerMessage::Response(Box::new(resp));
        assert_round_trip(&msg);
        assert_eq!(encode_string(&msg), golden);
        let frame = encode_line(&msg);
        match decode_line::<WorkerMessage>(&frame).expect("frame decodes") {
            WorkerMessage::Response(r) => assert_eq!(r.index, 2),
            other => panic!("decoded wrong variant: {other:?}"),
        }
    }

    /// `frame`'s encoding with its `"type"` set to `tag`.
    fn retagged(frame: &impl WireEncode, tag: &str) -> JsonValue {
        let JsonValue::Object(mut fields) = frame.encode() else {
            panic!("a frame encodes as an object");
        };
        fields.retain(|(key, _)| key != "type");
        fields.insert(0, ("type".into(), JsonValue::Str(tag.into())));
        JsonValue::Object(fields)
    }

    #[test]
    fn tagged_frames_reject_another_type() {
        use crate::ops::{OpsReport, WorkerOps};
        let hello = WorkerHello {
            protocol: PROTOCOL_VERSION,
            pid: 1,
            heartbeat_ms: 0,
        };
        assert!(WorkerHello::decode(&retagged(&hello, "heartbeat")).is_err());
        let heartbeat = WorkerHeartbeat { busy: None };
        assert!(WorkerHeartbeat::decode(&retagged(&heartbeat, "hello")).is_err());
        let scenario = builtin_catalog()
            .remove(4)
            .with_duration(SimDuration::from_secs(4));
        let (outcome, experience) = run_one(&scenario, 9);
        let response = WorkerResponse {
            index: 2,
            outcome,
            experience,
        };
        assert!(WorkerResponse::decode(&retagged(&response, "hello")).is_err());
        let ops = WorkerOps::default();
        assert!(WorkerOps::decode(&retagged(&ops, "ops_report")).is_err());
        let report = OpsReport::default();
        assert!(OpsReport::decode(&retagged(&report, "worker_ops")).is_err());
    }

    #[test]
    fn unknown_frame_types_fail_loudly() {
        let doc = firm_wire::parse(r#"{"type":"shutdown"}"#).unwrap();
        let err = WorkerMessage::decode(&doc).unwrap_err();
        assert_eq!(err.msg, r#"unknown WorkerMessage tag "shutdown""#);
    }
}
