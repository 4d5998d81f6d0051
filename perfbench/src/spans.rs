//! In-memory span aggregation at the crates' public boundaries.
//!
//! Every span has a fixed id and is aggregated per thread as
//! `(calls, sampled calls, sampled nanoseconds)`; nothing is written out
//! until the run ends. Per-call spans time a random one call in [`STRIDE`]
//! on average (a clock read costs about 40 ns, as much as a whole protocol
//! handler), and a span's total is estimated as
//! `sampled_ns × calls / sampled`. Setup spans, which run a handful of
//! times, are timed on every call.
//!
//! The choice is random, not every `STRIDE`-th call: the engine calls in
//! periodic patterns (a broadcast's first delivery after its handler, then
//! the rest), and a fixed stride aliases with them. Measured on
//! `sweep_small`, the same delay model read 20 or 60 ns per call depending
//! only on which residue of the stride was timed. Random choice also keeps
//! spans called in lockstep (a chaos delay and its inner model) from being
//! timed in the same call more often than by chance.
//!
//! Spans nest (the engine run holds every handler and observer call, the
//! chaos delay holds its inner model), so a timed interval also holds the
//! instrumentation of the spans inside it. The costs of a counted and of a
//! timed empty span are calibrated ([`calibrate`]) before a traced run,
//! and each sample has the clock's own reading and the cost of every span
//! nested in it taken off.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One call in this many, on average, is timed for per-call spans.
pub const STRIDE: u64 = 32;

/// Span ids. Names are the per-layer metric stems they feed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Span {
    /// `gcs_sweep::parse_topology`.
    GraphBuild,
    /// `gcs_sweep::build_delay` + `build_rates`.
    SweepBuild,
    /// `Engine::builder(..).build()` + `wake_all_at`.
    EngineBuild,
    /// `Engine::run_until`.
    SimRun,
    /// `DelayModel::delivery` of the sweep delay model.
    Delay,
    /// `RecorderSink::record`.
    Recorder,
    /// `Protocol` handlers, one span per algorithm.
    ProtoAopt,
    ProtoMingap,
    ProtoEnvelope,
    ProtoJump,
    /// `SkewObserver` snapshot / `observe_clocks`.
    SkewObserver,
    /// `MetricsSink` record + snapshot.
    MetricsSink,
    /// `InvariantWatchdog` snapshot.
    Watchdog,
    /// `InvariantWatchdog` record.
    WatchdogRecord,
    /// `InvariantWatchdog::new` (includes the legal-state pair table).
    WatchdogNew,
    /// Other observer constructors (`SkewObserver`, `MetricsSink`,
    /// `RecorderSink`).
    ObserversNew,
    /// `ChaosDelay::delivery`, including its inner delay model.
    ChaosDelay,
    /// `apply_rate_faults` + `ChaosDelay::new`.
    ChaosSetup,
}

/// Number of span ids.
pub const COUNT: usize = Span::ChaosSetup as usize + 1;

/// Per-call spans are sampled; the rest are timed on every call.
fn sampled(span: Span) -> bool {
    matches!(
        span,
        Span::Delay
            | Span::Recorder
            | Span::ProtoAopt
            | Span::ProtoMingap
            | Span::ProtoEnvelope
            | Span::ProtoJump
            | Span::SkewObserver
            | Span::MetricsSink
            | Span::Watchdog
            | Span::WatchdogRecord
            | Span::ChaosDelay
    )
}

static TRACING: AtomicBool = AtomicBool::new(false);

/// Calibrated costs as `f64` bits: the reading of an empty timed interval,
/// a counted (untimed) empty span, and the extra of a timed one.
static CLOCK_NS: AtomicU64 = AtomicU64::new(0);
static COUNTED_NS: AtomicU64 = AtomicU64::new(0);
static TIMED_EXTRA_NS: AtomicU64 = AtomicU64::new(0);

fn cost(cell: &AtomicU64) -> f64 {
    f64::from_bits(cell.load(Ordering::Relaxed))
}

/// Turns span timing on or off for every thread.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Measures the instrumentation costs, which every sample has taken off;
/// call it before switching tracing on. It leaves tracing off and this
/// thread's table empty. Each figure is the lowest over several batches,
/// so a preempted batch does not decide.
pub fn calibrate() {
    set_tracing(true);
    const BATCH: u64 = 32 * STRIDE;
    // Per batch: mean nanoseconds per call and the share of calls timed.
    let batch = |span_id: Span| {
        let timed_before = TABLE.with(|t| t.all_timed.get());
        let started = Instant::now();
        for _ in 0..BATCH {
            span(span_id, || std::hint::black_box(()));
        }
        let ns = started.elapsed().as_nanos() as f64 / BATCH as f64;
        let timed = TABLE.with(|t| t.all_timed.get()) - timed_before;
        (ns, timed as f64 / BATCH as f64)
    };
    // An always-timed span costs `timed`; a sampled one, with a share `f`
    // of its calls timed, averages `counted + f × (timed - counted)`.
    let timed = (0..50)
        .map(|_| batch(Span::GraphBuild).0)
        .fold(f64::INFINITY, f64::min);
    let counted = (0..50)
        .map(|_| {
            let (mean, f) = batch(Span::Delay);
            (mean - f * timed) / (1.0 - f)
        })
        .fold(f64::INFINITY, f64::min)
        .max(0.0);
    // The lowest mean reading of an empty interval.
    let mut clock = f64::INFINITY;
    for _ in 0..20 {
        let mut total = 0u64;
        for _ in 0..1000 {
            let started = Instant::now();
            total += started.elapsed().as_nanos() as u64;
        }
        clock = clock.min(total as f64 / 1000.0);
    }
    CLOCK_NS.store(clock.to_bits(), Ordering::Relaxed);
    COUNTED_NS.store(counted.to_bits(), Ordering::Relaxed);
    TIMED_EXTRA_NS.store((timed - counted).max(0.0).to_bits(), Ordering::Relaxed);
    set_tracing(false);
    Totals::default().drain_thread();
}

struct Table {
    calls: [Cell<u64>; COUNT],
    sampled: [Cell<u64>; COUNT],
    ns: [Cell<f64>; COUNT],
    /// Calls into any span and timed calls, on this thread; only their
    /// differences across a timed interval are used.
    all_calls: Cell<u64>,
    all_timed: Cell<u64>,
    /// xorshift64 state of the sampling choice.
    rng: Cell<u64>,
}

thread_local! {
    static TABLE: Table = const {
        Table {
            calls: [const { Cell::new(0) }; COUNT],
            sampled: [const { Cell::new(0) }; COUNT],
            ns: [const { Cell::new(0.0) }; COUNT],
            all_calls: Cell::new(0),
            all_timed: Cell::new(0),
            rng: Cell::new(0x9E37_79B9_7F4A_7C15),
        }
    };
}

/// Runs `f` inside span `span`.
#[inline]
pub fn span<R>(span: Span, f: impl FnOnce() -> R) -> R {
    if !TRACING.load(Ordering::Relaxed) {
        return f();
    }
    let i = span as usize;
    let (timed, calls_before, timed_before) = TABLE.with(|t| {
        t.calls[i].set(t.calls[i].get() + 1);
        let timed = !sampled(span) || {
            let mut x = t.rng.get();
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t.rng.set(x);
            x % STRIDE == 0
        };
        let all_calls = t.all_calls.get() + 1;
        let all_timed = t.all_timed.get() + u64::from(timed);
        t.all_calls.set(all_calls);
        t.all_timed.set(all_timed);
        (timed, all_calls, all_timed)
    });
    if !timed {
        return f();
    }
    let started = Instant::now();
    let out = f();
    let elapsed = started.elapsed().as_nanos() as f64;
    TABLE.with(|t| {
        let nested = (t.all_calls.get() - calls_before) as f64;
        let nested_timed = (t.all_timed.get() - timed_before) as f64;
        let ns = elapsed
            - cost(&CLOCK_NS)
            - nested * cost(&COUNTED_NS)
            - nested_timed * cost(&TIMED_EXTRA_NS);
        t.sampled[i].set(t.sampled[i].get() + 1);
        t.ns[i].set(t.ns[i].get() + ns.max(0.0));
    });
    out
}

/// Aggregated spans, summed over threads.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    calls: [u64; COUNT],
    sampled: [u64; COUNT],
    ns: [f64; COUNT],
}

impl Totals {
    /// Moves this thread's spans into `self` and resets them.
    pub fn drain_thread(&mut self) {
        TABLE.with(|t| {
            for i in 0..COUNT {
                self.calls[i] += t.calls[i].replace(0);
                self.sampled[i] += t.sampled[i].replace(0);
                self.ns[i] += t.ns[i].replace(0.0);
            }
        });
    }

    /// Calls made into `span`.
    pub fn calls(&self, span: Span) -> u64 {
        self.calls[span as usize]
    }

    /// Estimated total seconds spent in `span`.
    pub fn secs(&self, span: Span) -> f64 {
        let i = span as usize;
        if self.sampled[i] == 0 {
            return 0.0;
        }
        self.ns[i] * self.calls[i] as f64 / self.sampled[i] as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The tracing switch is global, so these tests take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn nested_instrumentation_is_not_charged_to_the_outer_spans() {
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        calibrate();
        set_tracing(true);
        // Lowest over a few tries, so a preempted try does not decide.
        let (mut outer, mut chaos_self) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            let mut totals = Totals::default();
            totals.drain_thread();
            let started = Instant::now();
            span(Span::SimRun, || {
                for _ in 0..20_000 {
                    span(Span::ChaosDelay, || {
                        span(Span::Delay, || std::hint::black_box(()))
                    });
                }
            });
            let wall = started.elapsed().as_secs_f64();
            totals.drain_thread();
            outer = outer.min(totals.secs(Span::SimRun) / wall);
            chaos_self =
                chaos_self.min((totals.secs(Span::ChaosDelay) - totals.secs(Span::Delay)) / wall);
        }
        set_tracing(false);
        // The spans are empty: charged their own instrumentation, each
        // would read close to (or, sampled in lockstep, far above) the wall.
        assert!(outer < 0.5, "outer span keeps {outer:.2} of the wall");
        assert!(
            chaos_self < 0.5,
            "chaos self time is {chaos_self:.2} of the wall"
        );
    }

    #[test]
    fn periodic_call_costs_do_not_alias_with_the_sampling() {
        let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        calibrate();
        set_tracing(true);
        let mut totals = Totals::default();
        totals.drain_thread();
        // Every 32nd call is slow: a fixed stride would time all or none.
        let calls = 64 * 1024u64;
        let started = Instant::now();
        for i in 0..calls {
            span(Span::Recorder, || {
                if i % STRIDE == 5 {
                    let slow = Instant::now();
                    while slow.elapsed() < std::time::Duration::from_micros(2) {}
                }
            });
        }
        let wall = started.elapsed().as_secs_f64();
        totals.drain_thread();
        set_tracing(false);
        let estimate = totals.secs(Span::Recorder);
        assert_eq!(totals.calls(Span::Recorder), calls);
        assert!(
            (0.5..1.5).contains(&(estimate / wall)),
            "estimated {estimate:.4} s of a {wall:.4} s loop"
        );
    }
}
