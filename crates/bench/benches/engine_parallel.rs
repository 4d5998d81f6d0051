//! engine_parallel — multi-core scaling of ONE large simulation via the
//! lookahead-windowed parallel driver (`Engine::run_until_threaded`).
//!
//! The fixture is the F2 wavefront configuration in its *parallelizable*
//! regime: `A^opt` on a path under `WavefrontDelay` with the flip pushed
//! past the horizon, so every message takes the full `𝒯 = 0.25` and the
//! model advertises a lookahead floor of `𝒯` for the whole run. Sizes
//! n ∈ {1024, 4096, 16384} each run at 1/2/4/8 threads; the event stream
//! is byte-identical at every thread count (pinned by
//! `tests/parallel_parity.rs`), so events are counted once per size with a
//! sequential stepping pass and reused for every throughput figure.
//!
//! Metrics in `BENCH_engine_parallel.json` (`gcs-bench-result/v1`):
//!
//! * `events_per_sec/n=N/threads=K` — end-to-end dispatch throughput,
//! * `speedup/n=N/threads=K`       — wall(threads=1) / wall(threads=K),
//! * `allocs_per_event_steady/...` — heap allocations per event in the
//!   parallel steady state, by two-horizon difference (the runs share
//!   their setup allocations, which cancel; windows are allocation-free
//!   once the scratch buffers have grown, so this must be 0),
//! * `replay_share` / `idle_share` / `windows` — the serial barrier
//!   fraction and load-imbalance idle time from [`EngineProfile`].
//!
//! Interpret `speedup` against `config.cores`: on a single-core runner the
//! windows serialize and speedup ≤ 1 by construction.
//!
//! Set `GCS_BENCH_QUICK=1` (CI) for n = 1024 at 1/2 threads only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gcs_adversary::WavefrontDelay;
use gcs_analysis::Table;
use gcs_bench::{banner, f2, BenchReport};
use gcs_core::{AOpt, Params};
use gcs_graph::{topology, NodeId};
use gcs_sim::Engine;
use gcs_sweep::build_rates;

/// Counts every heap allocation (alloc + realloc) made by the process.
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

const EPS: f64 = 0.02;
const T_MAX: f64 = 0.25;
/// Far beyond any horizon: the wavefront never flips, so the delay model's
/// `lookahead_at` promises a floor of `T_MAX` for the entire run.
const FLIP: f64 = 1e9;

fn fixture(n: usize, profiled: bool) -> Engine<AOpt, WavefrontDelay> {
    let graph = topology::path(n);
    let boundary = (graph.diameter() / 2).max(1);
    let delay = WavefrontDelay::new(&graph, NodeId(0), T_MAX, FLIP, boundary);
    let drift = gcs_time::DriftBounds::new(EPS).unwrap();
    let horizon = 1e6; // rate schedules only need to cover the run
    let schedules = build_rates("distsplit", &graph, drift, horizon, 0).expect("valid rates spec");
    let params = Params::recommended(EPS, T_MAX).unwrap();
    let mut engine = Engine::builder(graph)
        .protocols(vec![AOpt::new(params); n])
        .delay_model(delay)
        .rate_schedules(schedules)
        .profiling(profiled)
        .build();
    engine.wake_all_at(0.0);
    engine
}

/// Steps a clone of `base` sequentially to `horizon`, returning the event
/// count — valid for every thread count because the parallel driver's
/// stream (and therefore its pop sequence) is byte-identical.
fn count_events(base: &Engine<AOpt, WavefrontDelay>, horizon: f64) -> u64 {
    let mut engine = base.clone();
    let mut events = 0;
    while let Some(next) = engine.next_event_time() {
        if next > horizon {
            break;
        }
        engine.step();
        events += 1;
    }
    events
}

/// Wall seconds of `run_until_threaded(horizon, threads)` on a clone of
/// `base`, best of `reps`.
fn measure(base: &Engine<AOpt, WavefrontDelay>, horizon: f64, threads: usize, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut engine = base.clone();
        let started = Instant::now();
        engine.run_until_threaded(horizon, threads);
        best = best.min(started.elapsed().as_secs_f64());
    }
    best
}

/// Heap allocations of one cold `run_until_threaded` call on a clone.
fn allocs_of_run(base: &Engine<AOpt, WavefrontDelay>, horizon: f64, threads: usize) -> u64 {
    let mut engine = base.clone();
    let before = ALLOCS.load(Ordering::Relaxed);
    engine.run_until_threaded(horizon, threads);
    ALLOCS.load(Ordering::Relaxed) - before
}

fn main() {
    banner(
        "engine_parallel",
        "multi-core scaling of one simulation under lookahead windowing",
    );
    let quick = std::env::var("GCS_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0");
    let sizes: &[usize] = if quick { &[1024] } else { &[1024, 4096, 16384] };
    let thread_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let horizon: f64 = if quick { 15.0 } else { 30.0 };
    let reps: usize = if quick { 1 } else { 2 };

    let mut results = BenchReport::new("engine_parallel");
    results
        .config("fixture", "f2-wavefront-preflip")
        .config("eps", EPS)
        .config("t", T_MAX)
        .config("horizon", horizon)
        .config("reps_best_of", reps)
        .config("quick", quick);

    let mut table = Table::new(vec!["n", "threads", "events/sec", "speedup"]);
    for &n in sizes {
        let base = fixture(n, false);
        let events = count_events(&base, horizon);
        let mut wall_seq = f64::NAN;
        let reference = {
            let mut engine = base.clone();
            engine.run_until_threaded(horizon, 1);
            engine.logical_values()
        };
        for &threads in thread_counts {
            let wall = measure(&base, horizon, threads, reps);
            if threads == 1 {
                wall_seq = wall;
            }
            // Cheap cross-check riding along with the timing: final clocks
            // must match the sequential run (full parity is pinned in
            // tests/parallel_parity.rs).
            let mut check = base.clone();
            check.run_until_threaded(horizon, threads);
            assert_eq!(
                check.logical_values(),
                reference,
                "parallel run diverged at n={n} threads={threads}"
            );
            let events_per_sec = events as f64 / wall;
            let speedup = wall_seq / wall;
            results.metric(
                &format!("events_per_sec/n={n}/threads={threads}"),
                events_per_sec,
            );
            results.metric(&format!("speedup/n={n}/threads={threads}"), speedup);
            table.row(vec![
                n.to_string(),
                threads.to_string(),
                format!("{events_per_sec:.0}"),
                format!("{speedup:.2}"),
            ]);
        }
    }
    println!("{table}");

    // Steady-state allocations per event, by two-horizon difference: both
    // runs pay identical setup costs (partition clones, thread spawns,
    // scratch growth), so the difference isolates the extra windows — which
    // must allocate nothing.
    let alloc_n = if quick { 1024 } else { 4096 };
    let alloc_threads = if quick { 2 } else { 4 };
    let (h1, h2) = (horizon, horizon * 1.5);
    let base = fixture(alloc_n, false);
    let events_h1 = count_events(&base, h1);
    let events_h2 = count_events(&base, h2);
    let allocs_h1 = allocs_of_run(&base, h1, alloc_threads);
    let allocs_h2 = allocs_of_run(&base, h2, alloc_threads);
    let steady_allocs = allocs_h2.saturating_sub(allocs_h1) as f64;
    let steady_events = (events_h2 - events_h1) as f64;
    let allocs_per_event = steady_allocs / steady_events;
    results.metric(
        &format!("allocs_per_event_steady/n={alloc_n}/threads={alloc_threads}"),
        allocs_per_event,
    );
    println!(
        "steady allocs/event at n={alloc_n}, {alloc_threads} threads: {} \
         ({steady_allocs:.0} allocations over {steady_events:.0} extra events)",
        f2(allocs_per_event),
    );

    // Where does parallel wall time go? One profiled run at the alloc
    // config: the serial replay share bounds scaling (Amdahl), the idle
    // share measures load imbalance across partitions.
    let mut profiled = fixture(alloc_n, true);
    profiled.run_until_threaded(horizon, alloc_threads);
    let profile = profiled.profile().expect("profiling was enabled");
    let wall = profile.par_wall.as_secs_f64();
    if wall > 0.0 && profile.par_workers > 0 {
        let replay_share = profile.par_replay.as_secs_f64() / wall;
        let idle_share = profile.par_idle.as_secs_f64() / (wall * profile.par_workers as f64);
        results.metric("replay_share", replay_share);
        results.metric("idle_share", idle_share);
        results.metric("windows", profile.par_windows as f64);
        println!(
            "parallel phase: {} windows, replay {:.1}% of wall, idle {:.1}% per worker",
            profile.par_windows,
            100.0 * replay_share,
            100.0 * idle_share,
        );
    }

    match results.write() {
        Ok(path) => println!("machine-readable results written to {path}"),
        Err(e) => eprintln!("warning: could not write bench results: {e}"),
    }
}
