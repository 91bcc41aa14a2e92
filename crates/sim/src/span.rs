//! Span records emitted by the simulator.
//!
//! Each service activity produces a [`SpanRecord`] — the "most basic single
//! unit of work" of §3.1 — with send/receive timestamps for every RPC it
//! issued. Completed end-to-end requests bundle their spans into a
//! [`CompletedRequest`], which the `firm-trace` coordinator turns into
//! execution-history graphs.

use crate::ids::{InstanceId, RequestTypeId, ServiceId, SpanId, TraceId};
use crate::time::{SimDuration, SimTime};

/// One RPC edge out of a span.
#[derive(Debug, Clone, Copy)]
pub struct CallRecord {
    /// The span created at the callee.
    pub child_span: SpanId,
    /// The callee service.
    pub target: ServiceId,
    /// When the request message left the caller (`send_req`).
    pub sent: SimTime,
    /// When the response arrived back (`recv_req`); `None` for background
    /// calls, which never respond.
    pub returned: Option<SimTime>,
    /// Fire-and-forget call (background workflow, §3.2).
    pub background: bool,
}

/// The work done by one request at one microservice instance.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// The trace (end-to-end request) this span belongs to.
    pub trace_id: TraceId,
    /// Unique span identifier within the simulation.
    pub span_id: SpanId,
    /// The parent span, if any (the root span has none).
    pub parent: Option<SpanId>,
    /// The service that produced this span.
    pub service: ServiceId,
    /// The concrete replica that produced it.
    pub instance: InstanceId,
    /// The request type of the trace.
    pub request_type: RequestTypeId,
    /// When the request arrived at the instance (enqueued).
    pub start: SimTime,
    /// When the response was handed to the network (or processing
    /// finished, for background spans).
    pub end: SimTime,
    /// When a worker actually began processing (end of queueing).
    pub work_start: SimTime,
    /// This span was reached via a background call.
    pub background: bool,
    /// The request was dropped at this instance (queue overflow).
    pub dropped: bool,
    /// RPCs issued while handling the request.
    pub calls: Vec<CallRecord>,
}

impl SpanRecord {
    /// Total span duration (arrival to response): the paper's per-service
    /// *latency*.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// A finished end-to-end request with its full trace.
#[derive(Debug, Clone)]
pub struct CompletedRequest {
    /// Trace identifier.
    pub trace_id: TraceId,
    /// Request type.
    pub request_type: RequestTypeId,
    /// Client-observed arrival time.
    pub started: SimTime,
    /// Completion time (response at the client, or drop time).
    pub finished: SimTime,
    /// End-to-end latency.
    pub latency: SimDuration,
    /// The request was dropped (queue overflow somewhere on its path).
    pub dropped: bool,
    /// All spans of the trace, in completion order.
    pub spans: Vec<SpanRecord>,
}

impl CompletedRequest {
    /// The root span (the entry service), if the trace recorded one.
    pub fn root_span(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.parent.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_us: u64, end_us: u64, work_us: u64) -> SpanRecord {
        SpanRecord {
            trace_id: TraceId(1),
            span_id: SpanId(1),
            parent: None,
            service: ServiceId(0),
            instance: InstanceId(0),
            request_type: RequestTypeId(0),
            start: SimTime::from_micros(start_us),
            end: SimTime::from_micros(end_us),
            work_start: SimTime::from_micros(work_us),
            background: false,
            dropped: false,
            calls: Vec::new(),
        }
    }

    #[test]
    fn span_durations() {
        let s = span(100, 700, 250);
        assert_eq!(s.duration().as_micros(), 600);
    }

    #[test]
    fn completed_request_helpers() {
        let mut child = span(200, 400, 210);
        child.span_id = SpanId(2);
        child.parent = Some(SpanId(1));
        let req = CompletedRequest {
            trace_id: TraceId(1),
            request_type: RequestTypeId(0),
            started: SimTime::from_micros(100),
            finished: SimTime::from_micros(700),
            latency: SimDuration::from_micros(600),
            dropped: false,
            spans: vec![span(100, 700, 120), child],
        };
        assert_eq!(req.root_span().unwrap().span_id, SpanId(1));
    }
}
