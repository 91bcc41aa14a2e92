//! # firm-obs — zero-dependency runtime observability
//!
//! The FIRM paper's premise is that fine-grained telemetry makes SLO
//! management tractable; this crate applies the same idea to our own
//! runtime. It provides two instruments, both out-of-band by
//! construction — nothing here touches an RNG, a float fold, or any
//! digest-covered byte, so turning observability fully on or fully off
//! cannot move a fleet result (pinned by `tests/obs_determinism.rs` at
//! the workspace root):
//!
//! * **Structured events** ([`event`], [`Event`]): leveled, with
//!   monotonic timestamps, process/thread ids, and typed key-value
//!   fields; recorded into a bounded ring buffer (old events drop, the
//!   process never blocks) and rendered to stderr as one human-readable
//!   line when the level clears the stderr threshold. Filterable at
//!   runtime via the `FIRM_LOG` env var (`off|error|warn|info|debug|
//!   trace`, default `info`), exportable as firm-wire JSONL via
//!   [`drain_events`]. One type is both sides of the `event` frame: an
//!   exported line decodes back into the [`Event`] that rendered it.
//! * **Metrics** ([`metrics`], [`Registry`]): atomic counters, gauges,
//!   and log2-bucketed histograms (p50/p95/p99/max) for runtime
//!   self-metrics — dispatch latency, queue depth, heartbeat gaps,
//!   frames and bytes on the wire, per-scenario wall time, per-stage
//!   hot-path timings. [`MetricsSnapshot`]s are sorted, mergeable, and
//!   wire-encodable, so each fleet worker can ship its registry to the
//!   coordinator in one frame.
//!
//! Recording costs one atomic load when filtered out and a handful of
//! relaxed atomic RMWs when not, which is what keeps the instrumented
//! hot path within the <2% budget the benchmark's `obs.overhead_share`
//! tracks.
//!
//! ```
//! firm_obs::event(firm_obs::Level::Debug, "example")
//!     .msg("dispatched")
//!     .field("slot", 3u64)
//!     .field("transport", "tcp:127.0.0.1:7401")
//!     .emit();
//! let timer = std::time::Instant::now();
//! // ... do the work ...
//! firm_obs::metrics()
//!     .histogram("example.latency_us")
//!     .record(timer.elapsed().as_micros() as u64);
//! let snap = firm_obs::metrics().snapshot();
//! assert!(snap.get("example.latency_us").is_some());
//! ```

mod event;
mod metrics;

use std::str::FromStr;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub use event::{Event, EventBuilder, FieldValue, Level};
pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue,
    MetricsSnapshot, Registry, BUCKETS,
};

/// How many events the ring keeps before dropping the oldest.
pub const RING_CAPACITY: usize = 16_384;

/// The numeric encoding of "record nothing" in the level atomics
/// (levels themselves are 1..=5).
const LEVEL_OFF: u8 = 0;
/// Sentinel meaning "not initialized yet — read `FIRM_LOG` first".
const LEVEL_UNSET: u8 = u8::MAX;

struct Globals {
    record_level: AtomicU8,
    stderr_level: AtomicU8,
    epoch: Instant,
    thread_counter: AtomicU64,
    ring: Mutex<event::Ring>,
    registry: Registry,
}

fn globals() -> &'static Globals {
    static GLOBALS: OnceLock<Globals> = OnceLock::new();
    GLOBALS.get_or_init(|| Globals {
        record_level: AtomicU8::new(LEVEL_UNSET),
        stderr_level: AtomicU8::new(Level::Info as u8),
        epoch: Instant::now(),
        thread_counter: AtomicU64::new(0),
        ring: Mutex::new(event::Ring::new(RING_CAPACITY)),
        registry: Registry::new(),
    })
}

/// Parses a `FIRM_LOG`-style filter: a level name, or `off`/`none` for
/// no recording at all.
pub fn parse_filter(s: &str) -> Result<Option<Level>, String> {
    match s.trim().to_ascii_lowercase().as_str() {
        "off" | "none" | "0" => Ok(None),
        other => Level::from_str(other).map(Some),
    }
}

fn level_from_env() -> u8 {
    match std::env::var("FIRM_LOG") {
        Ok(raw) => match parse_filter(&raw) {
            Ok(Some(level)) => level as u8,
            Ok(None) => LEVEL_OFF,
            // A typo'd FIRM_LOG falls back to the default rather than
            // silently going dark or refusing to start.
            Err(_) => Level::Info as u8,
        },
        Err(_) => Level::Info as u8,
    }
}

fn current_record_level(g: &Globals) -> u8 {
    let level = g.record_level.load(Ordering::Relaxed);
    if level != LEVEL_UNSET {
        return level;
    }
    let from_env = level_from_env();
    // First-read race: both threads compute the same env-derived value,
    // so whichever store wins is correct.
    g.record_level.store(from_env, Ordering::Relaxed);
    from_env
}

/// The active recording filter (`None` = everything off).
pub fn level() -> Option<Level> {
    match current_record_level(globals()) {
        LEVEL_OFF => None,
        n => Level::from_u8(n),
    }
}

/// Overrides the recording filter at runtime (wins over `FIRM_LOG`).
/// `None` turns event recording off entirely.
pub fn set_level(level: Option<Level>) {
    globals()
        .record_level
        .store(level.map_or(LEVEL_OFF, |l| l as u8), Ordering::Relaxed);
}

/// Overrides the stderr rendering threshold (default [`Level::Info`]):
/// recorded events at or above it are also printed as one
/// human-readable line. `None` silences stderr without affecting
/// recording.
pub fn set_stderr_level(level: Option<Level>) {
    globals()
        .stderr_level
        .store(level.map_or(LEVEL_OFF, |l| l as u8), Ordering::Relaxed);
}

/// True when an event at `level` would currently be recorded — the
/// one-atomic-load fast path guarding every instrumentation site.
pub fn enabled(level: Level) -> bool {
    level as u8 <= current_record_level(globals())
}

/// Starts building an event. Returns an inert builder (every method a
/// no-op) when `level` is filtered out, so call sites pay one atomic
/// load and skip all field formatting.
pub fn event(level: Level, target: &'static str) -> EventBuilder<'static> {
    let g = globals();
    if level as u8 > current_record_level(g) {
        return EventBuilder { state: None };
    }
    let stderr = level as u8 <= g.stderr_level.load(Ordering::Relaxed);
    EventBuilder {
        state: Some(event::EventState {
            level,
            target,
            message: String::new(),
            fields: Vec::new(),
            ring: &g.ring,
            epoch: &g.epoch,
            thread_counter: &g.thread_counter,
            stderr,
        }),
    }
}

/// This process's metrics registry.
pub fn metrics() -> &'static Registry {
    &globals().registry
}

/// Drains every buffered event in arrival order, plus the cumulative
/// count of events the ring has dropped since process start.
pub fn drain_events() -> (Vec<Event>, u64) {
    let mut ring = globals().ring.lock().expect("obs ring lock");
    let events = ring.drain();
    (events, ring.dropped())
}

/// Renders every buffered event as firm-wire JSONL (one frame per
/// line), draining the ring.
pub fn drain_events_jsonl() -> String {
    let (events, _) = drain_events();
    let mut out = String::new();
    for e in &events {
        out.push_str(&firm_wire::encode_line(e));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global level state is shared across #[test] threads, so the
    // end-to-end checks live in ONE test body with explicit phases.
    #[test]
    fn global_pipeline_records_filters_and_drains() {
        set_stderr_level(None); // keep test output clean

        // Phase 1: recording at the default-ish level.
        set_level(Some(Level::Debug));
        assert_eq!(level(), Some(Level::Debug));
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Debug));
        assert!(!enabled(Level::Trace));
        event(Level::Info, "test")
            .msg("kept")
            .field("n", 1u64)
            .emit();
        event(Level::Trace, "test").msg("filtered").emit();
        let (events, _) = drain_events();
        let mine: Vec<_> = events.iter().filter(|e| e.target == "test").collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].message, "kept");
        assert_eq!(mine[0].fields, vec![("n".into(), FieldValue::U64(1))]);

        // Phase 2: fully off — builders are inert.
        set_level(None);
        assert_eq!(level(), None);
        assert!(!enabled(Level::Error));
        event(Level::Error, "test").msg("dropped").emit();
        let (events, _) = drain_events();
        assert!(events.iter().all(|e| e.target != "test"));

        // Phase 3: JSONL export decodes line by line.
        set_level(Some(Level::Trace));
        event(Level::Trace, "test")
            .msg("a")
            .field("ok", true)
            .emit();
        event(Level::Debug, "test").msg("b").emit();
        let jsonl = drain_events_jsonl();
        let mut decoded = 0;
        for line in jsonl.lines().filter(|l| !l.is_empty()) {
            let rec: Event = firm_wire::decode_line(line).expect("line decodes");
            if rec.target == "test" {
                decoded += 1;
            }
        }
        assert_eq!(decoded, 2);

        set_level(Some(Level::Info));
        set_stderr_level(Some(Level::Info));
    }

    #[test]
    fn filter_parsing_accepts_off_and_levels() {
        assert_eq!(parse_filter("off"), Ok(None));
        assert_eq!(parse_filter("OFF"), Ok(None));
        assert_eq!(parse_filter("none"), Ok(None));
        assert_eq!(parse_filter("info"), Ok(Some(Level::Info)));
        assert_eq!(parse_filter(" Trace "), Ok(Some(Level::Trace)));
        assert!(parse_filter("verbose").is_err());
    }
}
