//! In-memory spans recorded from outside the product, around calls into
//! each layer's public functions.
//!
//! A [`Tracer`] keeps every span in a `Vec` until the run ends, then
//! [`Tracer::write_jsonl`] writes one object per line
//! (`name, start_ns, end_ns, parent, trace_id`). Per-layer metrics are
//! sums over span names ([`Tracer::total_s`]); a span's self time is
//! its duration minus the part of it its children cover
//! ([`self_times`]).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use firm_wire::{JsonValue, Obj};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`, e.g. `core.calibrate_slos`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one, `None` for a root.
    pub parent: Option<usize>,
    /// Spans of one scenario or submission share an identifier.
    pub trace_id: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans on one thread. Nesting follows the call stack:
/// [`Tracer::scope`] opens a span, runs the closure, closes it.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    trace_id: u64,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            trace_id: 0,
        }
    }

    /// Nanoseconds since the epoch, for spans recorded after the fact.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Converts an `Instant` taken on any thread to this tracer's clock.
    pub fn ns_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Sets the identifier the following spans share.
    pub fn set_trace_id(&mut self, id: u64) {
        self.trace_id = id;
    }

    /// Runs `f` inside a new span named `name`, child of the innermost
    /// open span.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            trace_id: self.trace_id,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Records a span whose endpoints were measured elsewhere (another
    /// thread's timestamps, say) under `parent`, and returns its index
    /// so children can be hung below it.
    pub fn record(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        trace_id: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            trace_id,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far, in start order of their opening.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let doc = Obj::new()
                .field("id", id as u64)
                .field("name", span.name)
                .field("start_ns", span.start_ns)
                .field("end_ns", span.end_ns)
                .field(
                    "parent",
                    match span.parent {
                        Some(p) => JsonValue::U64(p as u64),
                        None => JsonValue::Null,
                    },
                )
                .field("trace_id", span.trace_id)
                .build();
            writeln!(out, "{}", doc.render())?;
        }
        out.flush()
    }
}

/// Self time of every span, in nanoseconds: its duration minus the
/// union of its children's intervals, each clipped to the span. Taking
/// the union means children that overlap each other (two clients in
/// flight at once) are not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per span name over the subtree under `root`, in
/// seconds. The values add up to `root`'s duration exactly, which is
/// what lets a reader check that the named parts explain the whole.
pub fn self_time_by_name(spans: &[Span], root: usize) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut under_root = vec![false; spans.len()];
    let mut table = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        // A parent is always recorded before its children.
        under_root[i] = i == root || span.parent.is_some_and(|p| under_root[p]);
        if under_root[i] {
            *table.entry(span.name).or_insert(0.0) += own[i] as f64 / 1e9;
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            trace_id: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            span("b", 70, 90, Some(0)),
        ];
        // root: 100 - (50 + 20); a: 50 - 10; leaves keep everything.
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        let by_name = self_time_by_name(&spans, 0);
        let total: f64 = by_name.values().sum();
        assert!((total - 100e-9).abs() < 1e-15, "parts must sum to the root");
    }

    #[test]
    fn overlapping_children_count_their_union() {
        let spans = vec![
            span("root", 0, 100, None),
            span("client0", 10, 70, Some(0)),
            span("client1", 40, 90, Some(0)),
            // Entirely inside client0's interval: adds nothing.
            span("client2", 20, 30, Some(0)),
            // Sticks out past the parent: clipped at 100.
            span("late", 95, 140, Some(0)),
        ];
        // Covered: [10, 90) and [95, 100) = 85.
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn scope_nests_by_call_stack_and_subtree_sums_exclude_other_roots() {
        let mut t = Tracer::new();
        t.scope("workload", |t| {
            t.set_trace_id(3);
            t.scope("sim.build", |_| {});
            t.scope("core.episode", |t| t.scope("core.tick", |_| {}));
        });
        t.scope("probe", |_| {});
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[4].parent, None);
        assert_eq!(s[1].trace_id, 3);
        assert!(s[0].end_ns >= s[3].end_ns);
        let table = self_time_by_name(s, 0);
        assert!(table.contains_key("core.tick") && !table.contains_key("probe"));
    }
}
