//! Structured, leveled events in a bounded ring buffer.
//!
//! An [`Event`] is the runtime's replacement for an ad-hoc `eprintln!`:
//! a severity [`Level`], a monotonic timestamp, the emitting process
//! and thread, a human-readable message, and typed key-value
//! [`FieldValue`] fields (so "which transport, which generation, which
//! attempt" are data, not words buried in a sentence). Events pass a
//! cheap atomic level check first, then land in a fixed-capacity ring
//! (old events are dropped, never the process), and events at or above
//! the stderr threshold are also rendered as one human-readable line —
//! which is what keeps operator output from regressing when `eprintln!`
//! call sites migrate here.
//!
//! Every event is firm-wire encodable, one frame per line, and the
//! [`Event`] decoded from a frame renders the same bytes back, so an
//! exported `--obs-out` JSONL file is machine-parseable with the same
//! codec the fleet protocol uses. The target and field keys are
//! [`Cow`]s: an emitted event borrows its `&'static str` names, a
//! decoded one owns what it read.

use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use firm_wire::{DecodeError, JsonValue, Obj, WireDecode, WireEncode};

/// Event severity, ordered from most to least urgent.
///
/// The numeric representation is part of the `FIRM_LOG` contract:
/// enabling a level enables everything more urgent than it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// A failure the runtime had to work around (or could not).
    Error = 1,
    /// Something unexpected that the runtime absorbed (worker recycled,
    /// frame dropped).
    Warn = 2,
    /// Operator-relevant lifecycle events (listening, restarted).
    Info = 3,
    /// Per-dispatch / per-session detail.
    Debug = 4,
    /// Everything, including per-scenario timings.
    Trace = 5,
}

impl Level {
    /// The canonical lowercase label (`"info"`, `"warn"`, ...).
    pub fn label(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    pub(crate) fn from_u8(n: u8) -> Option<Level> {
        Some(match n {
            1 => Level::Error,
            2 => Level::Warn,
            3 => Level::Info,
            4 => Level::Debug,
            5 => Level::Trace,
            _ => return None,
        })
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(format!(
                "unknown log level `{other}` (expected off|error|warn|info|debug|trace)"
            )),
        }
    }
}

/// A typed field value — events carry data, not pre-formatted strings,
/// so exported JSONL stays machine-readable.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer (ids, counts, generations).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (rates, seconds).
    F64(f64),
    /// A string (labels, reasons).
    Str(String),
    /// A flag.
    Bool(bool),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(n) => write!(f, "{n}"),
            FieldValue::I64(n) => write!(f, "{n}"),
            FieldValue::F64(x) => write!(f, "{x}"),
            FieldValue::Str(s) => {
                if s.contains([' ', '"', '=']) {
                    write!(f, "{s:?}")
                } else {
                    f.write_str(s)
                }
            }
            FieldValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

macro_rules! field_from {
    ($($ty:ty => $variant:ident as $cast:ty),* $(,)?) => {$(
        impl From<$ty> for FieldValue {
            fn from(v: $ty) -> Self {
                FieldValue::$variant(v as $cast)
            }
        }
    )*};
}

field_from!(u64 => U64 as u64, u32 => U64 as u64, usize => U64 as u64,
            i64 => I64 as i64, i32 => I64 as i64, f64 => F64 as f64);

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

// Hand-written: an untagged scalar whose variant is the JSON value's
// own kind.
impl WireEncode for FieldValue {
    fn encode(&self) -> JsonValue {
        match self {
            FieldValue::U64(n) => JsonValue::U64(*n),
            FieldValue::I64(n) => n.encode(),
            FieldValue::F64(x) => JsonValue::F64(*x),
            FieldValue::Str(s) => JsonValue::Str(s.clone()),
            FieldValue::Bool(b) => JsonValue::Bool(*b),
        }
    }
}

impl WireDecode for FieldValue {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        Ok(match v {
            JsonValue::U64(n) => FieldValue::U64(*n),
            JsonValue::I64(n) => FieldValue::I64(*n),
            JsonValue::F64(x) => FieldValue::F64(*x),
            JsonValue::Str(s) => FieldValue::Str(s.clone()),
            JsonValue::Bool(b) => FieldValue::Bool(*b),
            other => return Err(DecodeError::expected("scalar field value", other)),
        })
    }
}

/// One structured event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic microseconds since this process's obs epoch (the first
    /// obs call). Orders events within one process; never wall clock,
    /// so it cannot go backwards.
    pub ts_us: u64,
    /// Severity.
    pub level: Level,
    /// The emitting component (`"fleet supervisor"`,
    /// `"firm-fleet-worker"`, ...) — doubles as the human-readable
    /// stderr line's prefix.
    pub target: Cow<'static, str>,
    /// The emitting OS process (distinguishes workers in merged JSONL).
    pub pid: u64,
    /// A small per-process thread ordinal (0 = first thread to emit).
    pub thread: u64,
    /// The human-readable message.
    pub message: String,
    /// Typed key-value payload.
    pub fields: Vec<(Cow<'static, str>, FieldValue)>,
}

impl Event {
    /// Renders the single-line human form used for stderr:
    /// `target: message key=value ...`.
    pub fn render_human(&self) -> String {
        let mut line = format!("{}: {}", self.target, self.message);
        for (k, v) in &self.fields {
            line.push(' ');
            line.push_str(k);
            line.push('=');
            line.push_str(&v.to_string());
        }
        line
    }
}

// Hand-written: `fields` is an open object of any keys, and decode
// parses `level` and owns the names an emitted event borrows.
impl WireEncode for Event {
    fn encode(&self) -> JsonValue {
        let fields = JsonValue::Object(
            self.fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.encode()))
                .collect(),
        );
        Obj::tagged("event")
            .field("ts_us", self.ts_us)
            .field("level", self.level.label())
            .field("target", self.target.as_ref())
            .field("pid", self.pid)
            .field("thread", self.thread)
            .field("message", self.message.as_str())
            .field("fields", fields)
            .build()
    }
}

impl WireDecode for Event {
    fn decode(v: &JsonValue) -> Result<Self, DecodeError> {
        v.expect_tag("event")?;
        let level_label: String = v.field("level")?;
        let level = Level::from_str(&level_label).map_err(DecodeError::new)?;
        let fields_doc: JsonValue = v.field("fields")?;
        let JsonValue::Object(entries) = fields_doc else {
            return Err(DecodeError::new("event fields must be an object"));
        };
        let fields = entries
            .iter()
            .map(|(k, fv)| Ok((Cow::Owned(k.clone()), FieldValue::decode(fv)?)))
            .collect::<Result<Vec<_>, DecodeError>>()?;
        Ok(Event {
            ts_us: v.field("ts_us")?,
            level,
            target: Cow::Owned(v.field("target")?),
            pid: v.field("pid")?,
            thread: v.field("thread")?,
            message: v.field("message")?,
            fields,
        })
    }
}

/// The bounded event store: a fixed-capacity ring that drops the oldest
/// event on overflow and counts what it dropped (silent truncation
/// would read as "nothing happened").
pub(crate) struct Ring {
    buf: Vec<Event>,
    /// Index of the logical start (oldest event) once full.
    head: usize,
    cap: usize,
    dropped: u64,
}

impl Ring {
    pub(crate) fn new(cap: usize) -> Self {
        Ring {
            buf: Vec::new(),
            head: 0,
            cap: cap.max(1),
            dropped: 0,
        }
    }

    pub(crate) fn push(&mut self, event: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Drains every buffered event in arrival order and resets the ring
    /// (the drop counter survives, it is cumulative). The buffer itself
    /// is handed out, rotated so the oldest event comes first.
    pub(crate) fn drain(&mut self) -> Vec<Event> {
        let mut out = std::mem::take(&mut self.buf);
        out.rotate_left(self.head);
        self.head = 0;
        out
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Monotonic microseconds since the process obs epoch.
pub(crate) fn now_us(epoch: &Instant) -> u64 {
    epoch.elapsed().as_micros() as u64
}

/// Assigns small stable per-thread ordinals for [`Event::thread`].
pub(crate) fn thread_ordinal(counter: &AtomicU64) -> u64 {
    thread_local! {
        static ORDINAL: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
    }
    ORDINAL.with(|slot| {
        let mut id = slot.get();
        if id == u64::MAX {
            id = counter.fetch_add(1, Ordering::Relaxed);
            slot.set(id);
        }
        id
    })
}

/// A builder for one event; [`EventBuilder::emit`] records it. Obtained
/// from [`crate::event`], which returns a disabled builder (all methods
/// no-ops) when the level is filtered out.
#[must_use = "an event does nothing until .emit()"]
pub struct EventBuilder<'a> {
    pub(crate) state: Option<EventState<'a>>,
}

pub(crate) struct EventState<'a> {
    pub(crate) level: Level,
    pub(crate) target: &'static str,
    pub(crate) message: String,
    pub(crate) fields: Vec<(Cow<'static, str>, FieldValue)>,
    pub(crate) ring: &'a Mutex<Ring>,
    pub(crate) epoch: &'a Instant,
    pub(crate) thread_counter: &'a AtomicU64,
    pub(crate) stderr: bool,
}

impl EventBuilder<'_> {
    /// Sets the human-readable message.
    pub fn msg(mut self, message: impl Into<String>) -> Self {
        if let Some(s) = self.state.as_mut() {
            s.message = message.into();
        }
        self
    }

    /// Appends one typed field.
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        if let Some(s) = self.state.as_mut() {
            s.fields.push((Cow::Borrowed(key), value.into()));
        }
        self
    }

    /// Records the event: into the ring always, and to stderr as one
    /// human-readable line when the level clears the stderr threshold.
    pub fn emit(self) {
        let Some(s) = self.state else { return };
        let event = Event {
            ts_us: now_us(s.epoch),
            level: s.level,
            target: Cow::Borrowed(s.target),
            pid: std::process::id() as u64,
            thread: thread_ordinal(s.thread_counter),
            message: s.message,
            fields: s.fields,
        };
        if s.stderr {
            // One write_all per line: concurrent emitters interleave at
            // line granularity, like eprintln! did.
            use std::io::Write;
            let mut line = event.render_human();
            line.push('\n');
            let _ = std::io::stderr().write_all(line.as_bytes());
        }
        let mut ring = s.ring.lock().expect("obs ring lock");
        ring.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_and_order() {
        assert!(Level::Error < Level::Trace);
        for l in [
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ] {
            assert_eq!(Level::from_str(l.label()).unwrap(), l);
            assert_eq!(Level::from_u8(l as u8), Some(l));
        }
        assert!(Level::from_str("loud").is_err());
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let ev = |n: u64| Event {
            ts_us: n,
            level: Level::Info,
            target: "t".into(),
            pid: 1,
            thread: 0,
            message: format!("m{n}"),
            fields: Vec::new(),
        };
        // (events pushed into a ring of 3, survivors in order, drops):
        // wrapped with the head mid-buffer, every slot overwritten once
        // (head back at 0), never wrapped, empty.
        let cases: [(u64, &[u64], u64); 4] = [
            (5, &[2, 3, 4], 2),
            (6, &[3, 4, 5], 3),
            (2, &[0, 1], 0),
            (0, &[], 0),
        ];
        for (pushed, survivors, drops) in cases {
            let mut ring = Ring::new(3);
            for n in 0..pushed {
                ring.push(ev(n));
            }
            assert_eq!(ring.dropped(), drops, "{pushed} pushed");
            let drained: Vec<(u64, String)> = ring
                .drain()
                .into_iter()
                .map(|e| (e.ts_us, e.message))
                .collect();
            let expected: Vec<(u64, String)> =
                survivors.iter().map(|&n| (n, format!("m{n}"))).collect();
            assert_eq!(drained, expected, "{pushed} pushed");
            // The ring is reusable after a drain and keeps its counter.
            ring.push(ev(9));
            assert_eq!(ring.drain().len(), 1, "{pushed} pushed");
            assert_eq!(ring.dropped(), drops, "{pushed} pushed");
        }
    }

    #[test]
    fn ring_capacity_floor_is_one() {
        let mut ring = Ring::new(0);
        let ev = Event {
            ts_us: 0,
            level: Level::Info,
            target: "t".into(),
            pid: 1,
            thread: 0,
            message: String::new(),
            fields: Vec::new(),
        };
        ring.push(ev.clone());
        ring.push(ev);
        assert_eq!(ring.drain().len(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn events_round_trip_through_the_wire() {
        let event = Event {
            ts_us: 123_456,
            level: Level::Warn,
            target: "fleet supervisor".into(),
            pid: 42,
            thread: 3,
            message: "recycling \"worker\"".into(),
            fields: vec![
                (
                    "transport".into(),
                    FieldValue::Str("tcp:127.0.0.1:7401".into()),
                ),
                ("generation".into(), FieldValue::U64(2)),
                ("attempts".into(), FieldValue::U64(1)),
                ("wedged".into(), FieldValue::Bool(true)),
                ("secs".into(), FieldValue::F64(1.5)),
                ("delta".into(), FieldValue::I64(-3)),
            ],
        };
        let frame = firm_wire::encode_line(&event);
        assert_eq!(frame.matches('\n').count(), 1);
        let back: Event = firm_wire::decode_line(&frame).expect("event decodes");
        assert_eq!(back, event);
    }

    /// The `event` frame's bytes, pinned: an [`Event`] renders them, and
    /// the [`Event`] decoded from them is that event and renders them
    /// back.
    #[test]
    fn event_frames_match_their_golden() {
        const GOLDEN: &str = concat!(
            r#"{"type":"event","ts_us":987654,"level":"info","target":"fleet supervisor","#,
            r#""pid":4242,"thread":1,"message":"worker \"slot0\" restarted","#,
            r#""fields":{"generation":2,"delta":-3,"secs":0.25,"wedged":false,"#,
            r#""transport":"tcp:127.0.0.1:7401"}}"#,
            "\n"
        );
        let event = Event {
            ts_us: 987_654,
            level: Level::Info,
            target: "fleet supervisor".into(),
            pid: 4242,
            thread: 1,
            message: "worker \"slot0\" restarted".into(),
            fields: vec![
                ("generation".into(), FieldValue::U64(2)),
                ("delta".into(), FieldValue::I64(-3)),
                ("secs".into(), FieldValue::F64(0.25)),
                ("wedged".into(), FieldValue::Bool(false)),
                (
                    "transport".into(),
                    FieldValue::Str("tcp:127.0.0.1:7401".into()),
                ),
            ],
        };
        assert_eq!(firm_wire::encode_line(&event), GOLDEN);
        let decoded: Event = firm_wire::decode_line(GOLDEN).expect("golden decodes");
        assert_eq!(decoded, event);
        assert_eq!(firm_wire::encode_line(&decoded), GOLDEN);
    }

    #[test]
    fn human_rendering_quotes_awkward_strings() {
        let event = Event {
            ts_us: 0,
            level: Level::Info,
            target: "firm-fleet-worker".into(),
            pid: 1,
            thread: 0,
            message: "listening on 127.0.0.1:7401".into(),
            fields: vec![
                ("protocol".into(), FieldValue::U64(2)),
                ("reason".into(), FieldValue::Str("has spaces".into())),
            ],
        };
        assert_eq!(
            event.render_human(),
            "firm-fleet-worker: listening on 127.0.0.1:7401 protocol=2 reason=\"has spaces\""
        );
    }
}
