//! FIRM's trace memory is bounded by an ingest period, not a window.
//!
//! A FIRM scenario's spans live only until their critical path is out:
//! `run_episode` hands each `INGEST_PERIOD` of completed requests to the
//! manager, whose store keeps critical paths and drops the graphs. Undo
//! either half of that and the store, or the simulator's window buffer,
//! holds a whole control window of span-carrying requests again. This
//! guard measures the live heap of one sf=100 FIRM scenario with a
//! counting allocator, so it needs a test binary of its own: the global
//! allocator counts every thread of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use firm::fleet::{generate_catalog, run_one, scenario_seed, CatalogSpec};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are the ones `System` requires, and returns
// what `System` returned. The counters only observe sizes: they publish
// no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const MIB: f64 = 1024.0 * 1024.0;

/// Tenant 6 of the sf=100 catalog at seed 7, a FIRM tenant under a
/// flash crowd, peaked at 6.39 MiB of live heap while a window of spans
/// was buffered and its graphs stored, at 6.34 MiB streamed with the
/// graphs stored, and at 4.63 MiB with the graphs dropped but the
/// window still buffered. Streamed with the graphs dropped, it peaks at
/// 2.22 MiB (test profile).
#[test]
fn a_firm_scenario_holds_an_ingest_period_of_spans_not_a_window() {
    const BOUND_MIB: f64 = 4.0;
    let catalog = generate_catalog(&CatalogSpec::new(7, 100));
    let scenario = &catalog[6];
    assert_eq!(scenario.name, "sf100-t006-media-flash-firm");
    let seed = scenario_seed(7, 6);

    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let (outcome, experience) = run_one(scenario, seed);
    let peak = (PEAK.load(Ordering::Relaxed) - start) as f64 / MIB;

    assert!(outcome.completions > 1_000, "{}", outcome.completions);
    assert!(!experience.is_empty(), "FIRM recorded no experience");
    assert!(
        peak < BOUND_MIB,
        "{}: live heap peaked {peak:.2} MiB above its start (bound {BOUND_MIB} MiB)",
        scenario.name
    );
}
