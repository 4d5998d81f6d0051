//! Allocation-regression pin of the engine's steady-state hot path.
//!
//! A counting global allocator wraps `System`; after warming an F2
//! wavefront run past its flip, 10 000 further events must dispatch with
//! **zero** heap allocations. Every per-event allocation the hot path used
//! to make — the pending `HashMap` inserts, the fresh `Vec<Action>` per
//! handler, the `neighbors.to_vec()` broadcast clone, the collect-and-sort
//! in rate-change rescheduling — would trip this test if reintroduced.
//!
//! The same holds with `gcs run`'s default observers (the skew observer
//! at the kink cadence and the flight recorder) installed, and with
//! `gcs chaos run`'s oracle stack (skew observer, invariant watchdog and
//! flight recorder) once the watchdog has seeded its legal-state deadlines.
//!
//! This file holds a single `#[test]` on purpose: the allocator count is
//! process-global, and a sibling test thread would pollute the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gcs_adversary::WavefrontDelay;
use gcs_analysis::{InvariantWatchdog, SkewObserver};
use gcs_core::{AOpt, Params};
use gcs_graph::{topology, NodeId};
use gcs_sim::{Engine, EngineEvent, EventSink, RecorderSink, UniformDelay};
use gcs_sweep::build_rates;

/// Counts every allocation (alloc + realloc) made by the process.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `gcs chaos run`'s oracle stack: every snapshot goes to the skew
/// observer and the invariant watchdog, every event to the recorder and
/// the watchdog.
struct OracleStack {
    observer: SkewObserver,
    watchdog: InvariantWatchdog,
    recorder: RecorderSink,
}

impl EventSink for OracleStack {
    fn record(&mut self, event: &EngineEvent) {
        self.recorder.record(event);
        self.watchdog.record(event);
    }
    fn wants_snapshots(&self) -> bool {
        true
    }
    fn snapshot(&mut self, t: f64, clocks: &[f64], queue_depth: usize) {
        self.observer.observe_clocks(t, clocks);
        self.watchdog.snapshot(t, clocks, queue_depth);
    }
}

#[test]
fn steady_state_window_makes_no_heap_allocations() {
    // The engine_hotpath bench fixture at n = 64: A^opt on a path under the
    // wavefront adversary with distance-split drift.
    let (eps, t_max, flip) = (0.02, 0.25, 30.0);
    let n = 64;
    let warmup_horizon = 40.0;
    let graph = topology::path(n);
    let boundary = (graph.diameter() / 2).max(1);
    let delay = WavefrontDelay::new(&graph, NodeId(0), t_max, flip, boundary);
    let drift = gcs_time::DriftBounds::new(eps).unwrap();
    let schedules = build_rates("distsplit", &graph, drift, warmup_horizon, 0).unwrap();
    let params = Params::recommended(eps, t_max).unwrap();
    let mut engine = Engine::builder(graph)
        .protocols(vec![AOpt::new(params); n])
        .delay_model(delay)
        .rate_schedules(schedules)
        .build();
    engine.wake_all_at(0.0);
    // Warm past the wavefront flip: every buffer reaches its high-water
    // capacity (event queue, action buffer, pending slabs, A^opt state).
    engine.run_until(warmup_horizon);

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        engine
            .step()
            .expect("the wavefront fixture never drains its queue");
    }
    let allocated = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "engine hot path allocated {allocated} times across a 10k-event steady-state window"
    );

    // Same fixture with the flight recorder armed: recording every event
    // into the bounded rings must also be allocation-free — the rings are
    // preallocated at construction and slots are fixed-width (frame
    // encoding happens only at dump time).
    let graph = topology::path(n);
    let delay = WavefrontDelay::new(&graph, NodeId(0), t_max, flip, boundary);
    let schedules = build_rates("distsplit", &graph, drift, warmup_horizon, 0).unwrap();
    let mut engine = Engine::builder(graph)
        .protocols(vec![AOpt::new(params); n])
        .delay_model(delay)
        .rate_schedules(schedules)
        .event_sink(RecorderSink::new())
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(warmup_horizon);

    let recorded_before = engine.sink().recorded();
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        engine
            .step()
            .expect("the wavefront fixture never drains its queue");
    }
    let allocated = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "flight recorder allocated {allocated} times across a 10k-event steady-state window"
    );
    assert!(
        engine.sink().recorded() > recorded_before,
        "the recorder must have been recording during the window"
    );

    // `gcs run`'s default stack: the skew observer at the kink cadence
    // beside the recorder. Kink detection, the clock-vector rebuild at
    // kinks and the incident-edge evaluation all reuse preallocated
    // buffers.
    let graph = topology::path(n);
    let observer = SkewObserver::new(&graph);
    let delay = WavefrontDelay::new(&graph, NodeId(0), t_max, flip, boundary);
    let schedules = build_rates("distsplit", &graph, drift, warmup_horizon, 0).unwrap();
    let mut engine = Engine::builder(graph)
        .protocols(vec![AOpt::new(params); n])
        .delay_model(delay)
        .rate_schedules(schedules)
        .event_sink((observer, RecorderSink::new()))
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(warmup_horizon);

    let observed_before = engine.sink().0.observations();
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        engine
            .step()
            .expect("the wavefront fixture never drains its queue");
    }
    let allocated = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "kink-cadence skew observer allocated {allocated} times across a 10k-event window"
    );
    let observed = engine.sink().0.observations() - observed_before;
    assert!(
        (1..10_000).contains(&observed),
        "the observer must have seen some, not all, events as kinks ({observed})"
    );

    // The chaos oracle stack on grid:12x12 (10,296 node pairs): once every
    // node has woken, the watchdog builds its deadline heap once and then
    // only re-keys due pairs in place.
    let graph = topology::grid(12, 12);
    let n = graph.len();
    let (eps, t_max) = (0.02, 0.2);
    let drift = gcs_time::DriftBounds::new(eps).unwrap();
    let params = Params::recommended(eps, t_max).unwrap();
    let schedules = build_rates("walk", &graph, drift, 100.0, 11).unwrap();
    let sink = OracleStack {
        observer: SkewObserver::new(&graph),
        watchdog: InvariantWatchdog::new(&graph, params, drift),
        recorder: RecorderSink::new(),
    };
    let mut engine = Engine::builder(graph)
        .protocols(vec![AOpt::new(params); n])
        .delay_model(UniformDelay::new(t_max, 11))
        .rate_schedules(schedules)
        .event_sink(sink)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(5.0);

    let checked_before = engine.sink().watchdog.snapshots();
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        engine.step().expect("A^opt never drains its queue");
    }
    let allocated = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "chaos oracle stack allocated {allocated} times across a 10k-event window"
    );
    let watchdog = &engine.sink().watchdog;
    assert!(!watchdog.tripped(), "{:?}", watchdog.trip());
    assert_eq!(watchdog.snapshots() - checked_before, 10_000);

    // Large-n case: the SoA hot/cold node planes, the packed-key queue,
    // and the pending slabs all pre-reserve capacity at build time, so the
    // steady state must stay allocation-free when the working set is far
    // beyond cache. (The path diameter is n - 1 by construction; the
    // all-pairs `graph.diameter()` scan is avoided on purpose, and the
    // schedules reproduce `build_rates("distsplit", ..)` directly.)
    let n = 8192;
    let graph = topology::path(n);
    let diameter = (n - 1) as u32;
    let boundary = (diameter / 2).max(1);
    let delay = WavefrontDelay::new(&graph, NodeId(0), t_max, flip, boundary);
    let half = diameter / 2;
    let schedules = gcs_sim::rates::split(n, drift, move |v| (v as u32) < half);
    let mut engine = Engine::builder(graph)
        .protocols(vec![AOpt::new(params); n])
        .delay_model(delay)
        .rate_schedules(schedules)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(warmup_horizon);

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        engine
            .step()
            .expect("the wavefront fixture never drains its queue");
    }
    let allocated = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "large-n hot path allocated {allocated} times across a 10k-event window at n = {n}"
    );

    // Calendar-queue case: a constant delay advertises a positive floor,
    // so the queue runs in timing-wheel mode (ring buckets + overflow heap
    // instead of the plain near heap). Bucket vectors keep their capacity
    // across wheel revolutions, so this path must reach a hard
    // allocation-free steady state too — but its high water is per ring
    // slot and bucket occupancy fluctuates run-long, so the warmup is much
    // longer than the heap cases' (the run is deterministic: the measured
    // window allocates zero reproducibly).
    let n = 256;
    let graph = topology::path(n);
    let delay = gcs_sim::ConstantDelay::new(0.1);
    let schedules = gcs_sim::rates::split(n, drift, move |v| v < n / 2);
    let mut engine = Engine::builder(graph)
        .protocols(vec![AOpt::new(params); n])
        .delay_model(delay)
        .rate_schedules(schedules)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until(10.0 * warmup_horizon);

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        engine
            .step()
            .expect("the constant-delay fixture never drains its queue");
    }
    let allocated = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "calendar-queue hot path allocated {allocated} times across a 10k-event window"
    );
}
