//! The client↔coordinator frame vocabulary for the resident fleet
//! service — the *other* side of the wire from
//! [`firm_fleet::protocol`], sharing its newline-delimited firm-wire
//! JSON framing and its [`PROTOCOL_VERSION`].
//!
//! A serving session is strictly request/response at the submission
//! granularity, but *streaming* inside one: a [`ClientRequest::Submit`]
//! is answered by one [`ServerMessage::Accepted`], then one
//! [`ServerMessage::Outcome`] per scenario **in completion order** as
//! workers finish (the client sees progress the moment it exists), and
//! finally one [`ServerMessage::Report`] carrying the submission's
//! deterministic [`FleetReport`] — whose bytes are aggregated in
//! submission order, so the streaming order is invisible in the digest.
//!
//! Version skew fails loudly at both boundaries: every request carries
//! the client's protocol version and is rejected with a
//! [`ServerMessage::Error`] on mismatch, and every
//! [`ServerMessage::Accepted`] carries the server's so a newer client
//! refuses an older server instead of misreading its frames.

use firm_core::controller::PolicyCheckpoint;
use firm_fleet::report::{FleetReport, ScenarioOutcome};
use firm_fleet::scenario::Scenario;
use firm_wire::{wire_enum, wire_struct};

pub use firm_fleet::PROTOCOL_VERSION;

/// One catalog of scenarios submitted for execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// The protocol version the client speaks; must equal
    /// [`PROTOCOL_VERSION`] or the server rejects the submission.
    pub protocol: u64,
    /// The submission's fleet seed: per-scenario seeds derive from
    /// `(seed, base_index + i)` exactly as a batch run derives them
    /// from `(fleet seed, catalog index)`.
    pub seed: u64,
    /// The global index of the submission's first scenario. Submitting
    /// a catalog in slices with continuous base indices (and one seed)
    /// reproduces the single batch run bit for bit; independent clients
    /// just use 0.
    pub base_index: u64,
    /// The scenarios to run, as plain data, in submission order.
    pub scenarios: Vec<Scenario>,
}

wire_struct!(SubmitRequest tagged "submit" {
    protocol,
    seed,
    base_index,
    scenarios,
});

/// Every frame a client can write, as a tagged union
/// (`{"type":"submit"|"drain"|"shutdown", ...}`).
#[derive(Debug, Clone, PartialEq)]
pub enum ClientRequest {
    /// Run a catalog; answered by `accepted`, streamed `outcome`s, and
    /// a final per-submission `report`.
    Submit(SubmitRequest),
    /// Wait until every outstanding submission (from *any* client) has
    /// finished, then answer with the cumulative `report`.
    Drain {
        /// Must equal [`PROTOCOL_VERSION`].
        protocol: u64,
    },
    /// Drain, answer with the cumulative `report`, then stop the
    /// service (workers are torn down gracefully).
    Shutdown {
        /// Must equal [`PROTOCOL_VERSION`].
        protocol: u64,
    },
}

impl ClientRequest {
    /// The protocol version the request claims to speak.
    pub fn protocol(&self) -> u64 {
        match self {
            ClientRequest::Submit(s) => s.protocol,
            ClientRequest::Drain { protocol } | ClientRequest::Shutdown { protocol } => *protocol,
        }
    }
}

wire_enum!(ClientRequest by "type" {
    Submit "submit" (SubmitRequest),
    Drain "drain" { protocol },
    Shutdown "shutdown" { protocol },
});

/// The deterministic result of one submission (or, with
/// [`SubmissionReport::cumulative`] set, of everything the service has
/// run so far).
#[derive(Debug, Clone, PartialEq)]
pub struct SubmissionReport {
    /// The submission this report answers; for a cumulative report,
    /// the number of submissions folded in so far.
    pub submission: u64,
    /// `false`: this submission's scenarios only (seeded by the
    /// submission's own seed). `true`: every outcome the service has
    /// folded, in submission-completion order, seeded by the service's
    /// fleet seed.
    pub cumulative: bool,
    /// The aggregated fleet report — bit-identical to a batch
    /// [`firm_fleet::FleetRunner`] run over the same scenarios with
    /// the same seed and (base) indices.
    pub report: FleetReport,
    /// In a cumulative report: the resident shared agent, trained from
    /// scratch on the whole experience pool when the report is read and
    /// cached until the next fold — the §4.3 one-for-all policy, kept
    /// current across submissions yet still a pure function of what was
    /// submitted. Empty in a per-submission report: a submission only
    /// folds, it never trains.
    pub policy: PolicyCheckpoint,
    /// Transitions in the cumulative experience pool.
    pub pooled_transitions: u64,
    /// SVM ground-truth examples the folded scenarios recorded (their
    /// outcomes' counts, summed; the workers keep no examples).
    pub pooled_svm: u64,
    /// Shared-agent minibatch updates that actually trained `policy`
    /// (0 in a per-submission report).
    pub trained_updates: u64,
}

wire_struct!(SubmissionReport tagged "report" {
    submission,
    cumulative,
    report,
    policy,
    pooled_transitions,
    pooled_svm,
    trained_updates,
});

/// Every frame the server can write, as a tagged union
/// (`{"type":"accepted"|"outcome"|"report"|"error", ...}`).
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMessage {
    /// The submission was admitted; outcomes will stream next.
    Accepted {
        /// The protocol version the *server* speaks — the client's half
        /// of the skew check.
        protocol: u64,
        /// The service-assigned submission id the coming frames carry.
        submission: u64,
        /// How many scenarios were admitted (echo of the request's
        /// count).
        scenarios: u64,
    },
    /// One scenario finished — streamed in completion order, the
    /// moment the worker's response lands.
    Outcome {
        /// The submission this outcome belongs to.
        submission: u64,
        /// The scenario's global index (`base_index + position`).
        index: u64,
        /// The scenario's deterministic measurements (boxed: an outcome
        /// dwarfs the control frames).
        outcome: Box<ScenarioOutcome>,
    },
    /// The submission's (or the service's cumulative) final result.
    Report(Box<SubmissionReport>),
    /// The request failed; the session may continue with a new request
    /// unless the transport itself is broken.
    Error {
        /// The submission the error belongs to, 0 if the request never
        /// became one.
        submission: u64,
        /// What went wrong.
        message: String,
        /// `true` when the condition is transient — the service is
        /// draining for shutdown or shedding load under backpressure —
        /// and the same request may succeed if retried (with backoff)
        /// against this or a replacement server. `false` for permanent
        /// refusals: malformed frames, protocol skew, a submission
        /// that actually failed.
        retryable: bool,
    },
}

wire_enum!(ServerMessage by "type" {
    Accepted "accepted" { protocol, submission, scenarios },
    Outcome "outcome" { submission, index, outcome },
    Report "report" (Box<SubmissionReport>),
    Error "error" { submission, message, retryable },
});

#[cfg(test)]
mod tests {
    use super::*;
    use firm_fleet::builtin_catalog;
    use firm_wire::{
        assert_round_trip, decode_line, encode_line, encode_string, JsonValue, WireDecode,
        WireEncode,
    };

    fn outcome(name: &str) -> ScenarioOutcome {
        ScenarioOutcome {
            name: name.into(),
            benchmark: "Social Network",
            controller: "FIRM",
            load: "steady@100".into(),
            seed: 7,
            ticks: 30,
            arrivals: 110,
            completions: 100,
            drops: 1,
            slo_violations: 10,
            p50_us: 1_500,
            p99_us: 5_000,
            mean_latency_us: 2_000.0,
            anomalies_injected: 4,
            mitigations: 3,
            mean_mitigation_secs: 2.5,
            transitions: 20,
            svm_examples: 200,
        }
    }

    #[test]
    fn client_frames_round_trip() {
        let scenarios: Vec<Scenario> = builtin_catalog().into_iter().take(2).collect();
        let submit = ClientRequest::Submit(SubmitRequest {
            protocol: PROTOCOL_VERSION,
            seed: 7,
            base_index: 3,
            scenarios: scenarios.clone(),
        });
        assert_round_trip(&submit);
        assert_eq!(
            encode_string(&submit),
            format!(
                r#"{{"type":"submit","protocol":7,"seed":7,"base_index":3,"scenarios":[{},{}]}}"#,
                encode_string(&scenarios[0]),
                encode_string(&scenarios[1])
            )
        );
        for (frame, golden) in [
            (
                ClientRequest::Drain {
                    protocol: PROTOCOL_VERSION,
                },
                r#"{"type":"drain","protocol":7}"#,
            ),
            (
                ClientRequest::Shutdown {
                    protocol: PROTOCOL_VERSION,
                },
                r#"{"type":"shutdown","protocol":7}"#,
            ),
        ] {
            assert_round_trip(&frame);
            assert_eq!(encode_string(&frame), golden);
        }
    }

    #[test]
    fn server_frames_round_trip() {
        let accepted = ServerMessage::Accepted {
            protocol: PROTOCOL_VERSION,
            submission: 4,
            scenarios: 12,
        };
        assert_round_trip(&accepted);
        assert_eq!(
            encode_string(&accepted),
            r#"{"type":"accepted","protocol":7,"submission":4,"scenarios":12}"#
        );
        let streamed = ServerMessage::Outcome {
            submission: 4,
            index: 9,
            outcome: Box::new(outcome("a")),
        };
        assert_round_trip(&streamed);
        assert_eq!(
            encode_string(&streamed),
            format!(
                r#"{{"type":"outcome","submission":4,"index":9,"outcome":{}}}"#,
                encode_string(&outcome("a"))
            )
        );
        let report = SubmissionReport {
            submission: 4,
            cumulative: true,
            report: FleetReport::new(7, vec![outcome("a"), outcome("b")]),
            policy: PolicyCheckpoint {
                actor: vec![0.5, -0.25],
                critic: vec![1.0 / 3.0],
            },
            pooled_transitions: 40,
            pooled_svm: 400,
            trained_updates: 128,
        };
        let golden = format!(
            r#"{{"type":"report","submission":4,"cumulative":true,"report":{},"policy":{{"actor":[0.5,-0.25],"critic":[0.3333333333333333]}},"pooled_transitions":40,"pooled_svm":400,"trained_updates":128}}"#,
            encode_string(&report.report)
        );
        let frame = ServerMessage::Report(Box::new(report));
        assert_round_trip(&frame);
        assert_eq!(encode_string(&frame), golden);
        assert_round_trip(&ServerMessage::Error {
            submission: 0,
            message: "protocol skew: client v4, server v5".into(),
            retryable: false,
        });
        let refusal = ServerMessage::Error {
            submission: 3,
            message: "submission rejected: the service is draining for shutdown".into(),
            retryable: true,
        };
        assert_round_trip(&refusal);
        assert_eq!(
            encode_string(&refusal),
            r#"{"type":"error","submission":3,"message":"submission rejected: the service is draining for shutdown","retryable":true}"#
        );
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
        let submit = SubmitRequest {
            protocol: PROTOCOL_VERSION,
            seed: 7,
            base_index: 0,
            scenarios: Vec::new(),
        };
        assert!(SubmitRequest::decode(&retagged(&submit, "report")).is_err());
        let report = SubmissionReport {
            submission: 1,
            cumulative: false,
            report: FleetReport::new(7, vec![outcome("a")]),
            policy: PolicyCheckpoint {
                actor: Vec::new(),
                critic: Vec::new(),
            },
            pooled_transitions: 0,
            pooled_svm: 0,
            trained_updates: 0,
        };
        assert!(SubmissionReport::decode(&retagged(&report, "submit")).is_err());
    }

    #[test]
    fn frames_are_single_lines_and_dispatch_by_tag() {
        let frame = encode_line(&ClientRequest::Drain {
            protocol: PROTOCOL_VERSION,
        });
        assert_eq!(frame.matches('\n').count(), 1, "frame is not one line");
        match decode_line::<ClientRequest>(&frame).expect("frame decodes") {
            ClientRequest::Drain { protocol } => assert_eq!(protocol, PROTOCOL_VERSION),
            other => panic!("decoded wrong variant: {other:?}"),
        }
    }

    #[test]
    fn unknown_frame_types_fail_loudly() {
        let doc = firm_wire::parse(r#"{"type":"reboot"}"#).unwrap();
        assert_eq!(
            ClientRequest::decode(&doc).unwrap_err().msg,
            r#"unknown ClientRequest tag "reboot""#
        );
        assert_eq!(
            ServerMessage::decode(&doc).unwrap_err().msg,
            r#"unknown ServerMessage tag "reboot""#
        );
    }
}
