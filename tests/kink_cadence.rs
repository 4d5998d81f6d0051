//! The skew observer's kink cadence against the per-event oracle.
//!
//! Installed as a sink, `SkewObserver` sees the engine's kink snapshots
//! only: after events that kinked some node's clock line (wake, rate step,
//! multiplier switch, jump) and at every `run_until` horizon. The per-event
//! cadence — the same observer fed a full snapshot after every event — is
//! the oracle. Every execution here must give both the same worst global
//! and local skew, the same times and the same pairs, bit for bit — except
//! where a maximum sits on a stretch the clock values' rounding makes flat
//! (see `offset` below and the `gcs_sim::sink` module docs).
//!
//! The executions cover every variant pinned in `tests/variant_golden.rs`
//! (same protocols, delays, rates and staggered start), the jump baselines
//! with staggered wakes, a mid-run `set_hardware_rate`, and runs split
//! into several `run_until` chunks or driven by single steps.

use clock_sync::analysis::SkewObserver;
use clock_sync::core::rtt::RttProbe;
use clock_sync::core::{
    AOpt, AOptJump, AdaptiveAOpt, DiscreteAOpt, EnvelopeAOpt, ExternalAOpt, MaxAlgorithm,
    MidpointAlgorithm, MinGapAOpt, NoSync, OffsetAOpt, Params, PiggybackAOpt,
};
use clock_sync::graph::{topology, Graph, NodeId};
use clock_sync::sim::{
    rates, ConstantDelay, DelayCtx, DelayModel, Delivery, Engine, EventSink, FnDelay, Protocol,
    Ticked, UniformDelay,
};
use clock_sync::time::{DriftBounds, RateSchedule};
use rand::{Rng, SeedableRng};

const EPS: f64 = 0.02;
const T_MAX: f64 = 0.2;
const HORIZON: f64 = 60.0;

/// The same observer on the per-event cadence.
struct PerEvent(SkewObserver);

impl EventSink for PerEvent {
    fn enabled(&self) -> bool {
        false
    }
    fn wants_snapshots(&self) -> bool {
        true
    }
    fn snapshot(&mut self, t: f64, clocks: &[f64], queue_depth: usize) {
        self.0.snapshot(t, clocks, queue_depth);
    }
}

/// One driver action, replayed identically on both engines.
#[derive(Clone, Copy)]
enum Step {
    Wake(usize, f64),
    RunUntil(f64),
    /// `engine.step()` this many times, without a horizon in between.
    Steps(usize),
    SetRate(usize, f64),
}

fn drive<P: Protocol, D: DelayModel, S: EventSink>(engine: &mut Engine<P, D, S>, script: &[Step]) {
    for &step in script {
        match step {
            Step::Wake(v, t) => engine.wake(NodeId(v), t),
            Step::RunUntil(t) => engine.run_until(t),
            Step::Steps(k) => {
                for _ in 0..k {
                    engine.step();
                }
            }
            Step::SetRate(v, rate) => engine.set_hardware_rate(NodeId(v), rate),
        }
    }
}

fn run<P: Protocol, D: DelayModel, S: EventSink>(
    graph: &Graph,
    (protocols, delay, schedules): (Vec<P>, D, Vec<RateSchedule>),
    sink: S,
    script: &[Step],
) -> S {
    let mut engine = Engine::builder(graph.clone())
        .protocols(protocols)
        .delay_model(delay)
        .rate_schedules(schedules)
        .event_sink(sink)
        .build();
    drive(&mut engine, script);
    engine.into_sink()
}

/// Runs the execution `make` builds on both cadences: (kinks, oracle).
fn observe_both<P: Protocol, D: DelayModel>(
    name: &str,
    graph: &Graph,
    make: impl Fn() -> (Vec<P>, D, Vec<RateSchedule>),
    script: &[Step],
) -> (SkewObserver, SkewObserver) {
    let kinks = run(graph, make(), SkewObserver::new(graph), script);
    let oracle = run(graph, make(), PerEvent(SkewObserver::new(graph)), script).0;
    assert!(
        oracle.worst_global() > 0.0,
        "`{name}`: degenerate execution"
    );
    assert!(
        kinks.observations() <= oracle.observations(),
        "`{name}`: kink cadence sampled {} times, the oracle {}",
        kinks.observations(),
        oracle.observations()
    );
    (kinks, oracle)
}

fn global_figures(o: &SkewObserver) -> (u64, u64, (usize, usize)) {
    (
        o.worst_global().to_bits(),
        o.worst_global_at().to_bits(),
        o.worst_global_pair(),
    )
}

fn local_figures(o: &SkewObserver) -> (u64, u64, (usize, usize)) {
    (
        o.worst_local().to_bits(),
        o.worst_local_at().to_bits(),
        o.worst_local_pair(),
    )
}

/// Both cadences report the same figures, bit for bit.
fn check<P: Protocol, D: DelayModel>(
    name: &str,
    graph: &Graph,
    make: impl Fn() -> (Vec<P>, D, Vec<RateSchedule>),
    script: &[Step],
) {
    let (kinks, oracle) = observe_both(name, graph, make, script);
    assert_eq!(
        (global_figures(&kinks), local_figures(&kinks)),
        (global_figures(&oracle), local_figures(&oracle)),
        "`{name}`: kink cadence diverged from the per-event oracle"
    );
}

fn params() -> Params {
    Params::recommended(EPS, T_MAX).unwrap()
}

fn split() -> Vec<RateSchedule> {
    rates::split(9, DriftBounds::new(EPS).unwrap(), |v| v % 3 < 1)
}

fn random_walk(n: usize, seed: u64) -> Vec<RateSchedule> {
    rates::random_walk(n, DriftBounds::new(EPS).unwrap(), 3.0, HORIZON, seed)
}

/// Delays uniform in `[t1, t2]` (the Section 8.3 model).
fn banded(t1: f64, t2: f64, seed: u64) -> FnDelay<impl FnMut(&DelayCtx<'_>) -> Delivery + Clone> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    FnDelay::new(
        move |_: &DelayCtx<'_>| Delivery::After(rng.gen_range(t1..=t2)),
        Some(t2),
    )
}

/// The golden executions' driver: node 0 wakes at 0, node 8 at 0.5, the
/// rest are initialized by messages.
const GOLDEN: &[Step] = &[
    Step::Wake(0, 0.0),
    Step::Wake(8, 0.5),
    Step::RunUntil(HORIZON),
];

#[test]
fn every_golden_variant_execution_matches_the_oracle() {
    let g = topology::grid(3, 3);
    let p = params();
    check(
        "aopt",
        &g,
        || (vec![AOpt::new(p); 9], UniformDelay::new(T_MAX, 11), split()),
        GOLDEN,
    );
    check(
        "frozen",
        &g,
        || {
            (
                vec![AOpt::with_frozen_estimates(p); 9],
                UniformDelay::new(T_MAX, 12),
                random_walk(9, 2),
            )
        },
        GOLDEN,
    );
    check(
        "jump",
        &g,
        || {
            (
                vec![AOptJump::new(p); 9],
                UniformDelay::new(T_MAX, 13),
                split(),
            )
        },
        GOLDEN,
    );
    check(
        "mingap",
        &g,
        || {
            (
                vec![MinGapAOpt::new(p); 9],
                UniformDelay::new(T_MAX, 14),
                random_walk(9, 4),
            )
        },
        GOLDEN,
    );
    check(
        "envelope",
        &g,
        || {
            (
                vec![EnvelopeAOpt::new(p); 9],
                UniformDelay::new(T_MAX, 15),
                random_walk(9, 5),
            )
        },
        GOLDEN,
    );
    // Offset's worst local skew sits on a flat piece: both endpoints of
    // edge (3, 6) run at the same constant hardware rate (the split
    // schedule) and the same multiplier, so their skew is constant in
    // exact arithmetic from the piece's first kink on. The per-event
    // oracle then reports whichever later event's rounding came out a few
    // ulps higher; the kink cadence reports the piece's value at its
    // start. Global figures stay bit-exact; the local maximum is the same
    // edge, within rounding, reached no later than the oracle saw it.
    let (kinks, oracle) = observe_both(
        "offset",
        &g,
        || {
            (
                vec![OffsetAOpt::new(p, 0.5); 9],
                banded(0.5, 0.5 + T_MAX, 16),
                split(),
            )
        },
        GOLDEN,
    );
    assert_eq!(global_figures(&kinks), global_figures(&oracle));
    assert_eq!(kinks.worst_local_pair(), oracle.worst_local_pair());
    let ulps = oracle.worst_local().to_bits() as i64 - kinks.worst_local().to_bits() as i64;
    assert!((0..=4).contains(&ulps), "{ulps} ulps apart");
    assert!(kinks.worst_local_at() <= oracle.worst_local_at());
    check(
        "external",
        &g,
        || {
            let mut nodes = vec![ExternalAOpt::reference(p)];
            nodes.extend(vec![ExternalAOpt::new(p); 8]);
            let mut schedules = random_walk(9, 7);
            schedules[0] = RateSchedule::constant(1.0).unwrap();
            (nodes, UniformDelay::new(T_MAX, 17), schedules)
        },
        GOLDEN,
    );
    check(
        "discrete",
        &g,
        || {
            (
                vec![DiscreteAOpt::new(p); 9],
                ConstantDelay::new(T_MAX / 2.0),
                split(),
            )
        },
        GOLDEN,
    );
    check(
        "piggyback",
        &g,
        || {
            let nodes = (0..9)
                .map(|v| PiggybackAOpt::new(p, 1.5 * p.h0(), v as u64 + 1))
                .collect();
            (nodes, UniformDelay::new(T_MAX, 19), random_walk(9, 9))
        },
        GOLDEN,
    );
    check(
        "adaptive",
        &g,
        || {
            (
                vec![AdaptiveAOpt::new(EPS, 0.01); 9],
                UniformDelay::new(T_MAX, 20),
                split(),
            )
        },
        GOLDEN,
    );
}

#[test]
fn jump_and_free_running_baselines_with_staggered_wakes() {
    let g = topology::cycle(12);
    let h0 = params().h0();
    let staggered: Vec<Step> = (0..12)
        .step_by(3)
        .map(|v| Step::Wake(v, 0.7 * v as f64))
        .chain([Step::RunUntil(HORIZON)])
        .collect();
    check(
        "max",
        &g,
        || {
            (
                vec![MaxAlgorithm::new(h0); 12],
                UniformDelay::new(T_MAX, 31),
                random_walk(12, 31),
            )
        },
        &staggered,
    );
    check(
        "midpoint",
        &g,
        || {
            (
                vec![MidpointAlgorithm::new(h0, params().mu()); 12],
                UniformDelay::new(T_MAX, 32),
                random_walk(12, 32),
            )
        },
        &staggered,
    );
    // Unsynchronized clocks kink only at wakes and rate steps; nodes that
    // never wake stay at 0 and dominate the global skew.
    check(
        "nosync",
        &g,
        || {
            (
                vec![NoSync; 12],
                ConstantDelay::new(T_MAX),
                random_walk(12, 33),
            )
        },
        &staggered,
    );
}

#[test]
fn mid_run_hardware_rate_changes_match_the_oracle() {
    let g = topology::grid(4, 4);
    let p = params();
    let (fast, slow) = (1.0 + EPS, 1.0 - EPS);
    let script = [
        Step::Wake(0, 0.0),
        Step::Wake(15, 0.0),
        Step::RunUntil(10.0),
        Step::SetRate(5, fast),
        Step::SetRate(10, slow),
        Step::RunUntil(25.0),
        // Between single steps, not at a horizon: the rate change's kink
        // is the only sample of its node's new line at that instant.
        Step::Steps(37),
        Step::SetRate(5, slow),
        Step::Steps(11),
        Step::SetRate(3, fast),
        Step::RunUntil(HORIZON),
    ];
    check(
        "aopt",
        &g,
        || {
            (
                vec![AOpt::new(p); 16],
                UniformDelay::new(T_MAX, 41),
                random_walk(16, 41),
            )
        },
        &script,
    );
    check(
        "max",
        &g,
        || {
            (
                vec![MaxAlgorithm::new(p.h0()); 16],
                UniformDelay::new(T_MAX, 42),
                random_walk(16, 42),
            )
        },
        &script,
    );
}

#[test]
fn chunked_runs_match_the_oracle() {
    let g = topology::path(10);
    let p = params();
    let chunks: Vec<Step> = [Step::Wake(0, 0.0), Step::Wake(9, 1.3)]
        .into_iter()
        .chain((1..=12).map(|k| Step::RunUntil(5.0 * k as f64)))
        .chain([Step::RunUntil(HORIZON)]) // a repeated horizon
        .collect();
    check(
        "aopt",
        &g,
        || {
            (
                vec![AOpt::new(p); 10],
                UniformDelay::new(T_MAX, 51),
                random_walk(10, 51),
            )
        },
        &chunks,
    );
    check(
        "jump",
        &g,
        || {
            (
                vec![AOptJump::new(p); 10],
                UniformDelay::new(T_MAX, 52),
                random_walk(10, 52),
            )
        },
        &chunks,
    );
    // A wrapper protocol: the tick adapter must forward the multiplier,
    // or fast-mode switches would go unseen.
    check(
        "ticked",
        &g,
        || {
            (
                vec![Ticked::new(AOpt::new(p), p.h0() / 4.0); 10],
                UniformDelay::new(T_MAX, 53),
                random_walk(10, 53),
            )
        },
        &chunks,
    );
}

/// Free-running clocks (`L = H`) with probe traffic: the only kinks are
/// wakes and rate changes, and every probe event in between is a sample
/// the oracle sees and the kink cadence skips. Node 0 runs fast, then slow,
/// then at the nominal rate, so the skew peaks exactly where it turns from
/// fast to slow — at a scheduled rate step, or at a `set_hardware_rate`
/// between single steps.
#[test]
fn peaks_at_rate_changes_match_the_oracle() {
    let g = topology::path(3);
    let probes = || vec![RttProbe::new(0.3, EPS); 3];
    let (fast, slow) = (1.0 + EPS, 1.0 - EPS);
    let steady = || RateSchedule::constant(1.0).unwrap();
    let wake_all = [Step::Wake(0, 0.0), Step::Wake(1, 0.0), Step::Wake(2, 0.0)];
    let script: Vec<Step> = wake_all
        .into_iter()
        .chain([Step::RunUntil(HORIZON)])
        .collect();
    check(
        "rate step",
        &g,
        || {
            let turn =
                RateSchedule::from_steps(vec![(0.0, fast), (17.3, slow), (30.0, 1.0)]).unwrap();
            (
                probes(),
                UniformDelay::new(T_MAX, 61),
                vec![turn, steady(), steady()],
            )
        },
        &script,
    );
    let script: Vec<Step> = wake_all
        .into_iter()
        .chain([
            Step::Steps(101),
            Step::SetRate(0, slow),
            Step::Steps(60),
            Step::SetRate(0, 1.0),
            Step::RunUntil(HORIZON),
        ])
        .collect();
    check(
        "set_hardware_rate",
        &g,
        || {
            let fast_start = RateSchedule::constant(fast).unwrap();
            (
                probes(),
                UniformDelay::new(T_MAX, 62),
                vec![fast_start, steady(), steady()],
            )
        },
        &script,
    );
}
