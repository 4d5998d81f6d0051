//! Differential test of the watchdog's Definition 5.6 check.
//!
//! `InvariantWatchdog` evaluates a pair only once Condition (2) says its
//! skew could have reached its bound (`LegalStateChecker::observe_due`).
//! Beside it, on the very snapshots that reach its legal check, the
//! full-scan `LegalStateChecker::observe_clocks` runs as the oracle. The
//! two must report the same first violation, field for field and bit for
//! bit, or both none — across protocols that stay legal and ones that do
//! not, chaos partitions and crashes, staggered wakes, chunked
//! `run_until` and the threaded driver.

use gcs_adversary::{apply_rate_faults, parse_schedule, ChaosDelay};
use gcs_analysis::{InvariantWatchdog, LegalStateChecker, LegalStateViolation, WatchdogViolation};
use gcs_chaos::ChaosSpec;
use gcs_core::{AOpt, MaxAlgorithm, MinGapAOpt, NoSync, Params};
use gcs_graph::{topology, Graph, NodeId};
use gcs_sim::{EngineEvent, EventSink, Protocol};
use gcs_sweep::{build_delay, build_rates, parse_topology};
use gcs_time::DriftBounds;

/// The watchdog, and the full-scan oracle fed the snapshots that reach
/// the watchdog's legal check.
struct Differential {
    watchdog: InvariantWatchdog,
    oracle: LegalStateChecker,
}

impl Differential {
    fn new(graph: &Graph, params: Params, drift: DriftBounds) -> Self {
        Differential {
            watchdog: InvariantWatchdog::new(graph, params, drift),
            oracle: LegalStateChecker::new(graph, params),
        }
    }

    /// Asserts agreement and returns the watchdog's trip kind, if any.
    fn verdict(&self, label: &str) -> Option<&'static str> {
        let violation = self.watchdog.trip().map(|trip| &trip.violation);
        let legal = match violation {
            Some(WatchdogViolation::LegalState(v)) => Some(bits(v)),
            _ => None,
        };
        assert_eq!(
            legal,
            self.oracle.first_violation().as_ref().map(bits),
            "{label}: watchdog and full scan disagree on the first Def. 5.6 violation"
        );
        violation.map(WatchdogViolation::kind)
    }
}

impl EventSink for Differential {
    fn record(&mut self, event: &EngineEvent) {
        self.watchdog.record(event);
    }

    fn wants_snapshots(&self) -> bool {
        true
    }

    fn snapshot(&mut self, t: f64, clocks: &[f64], queue_depth: usize) {
        if self.watchdog.tripped() {
            return;
        }
        self.watchdog.snapshot(t, clocks, queue_depth);
        let conditions_held = !matches!(
            self.watchdog.trip().map(|trip| &trip.violation),
            Some(WatchdogViolation::Envelope { .. } | WatchdogViolation::Progress { .. })
        );
        if conditions_held {
            self.oracle.observe_clocks(t, clocks);
        }
    }
}

type Bits = (u64, usize, usize, u32, u32, u64, u64);

fn bits(v: &LegalStateViolation) -> Bits {
    (
        v.t.to_bits(),
        v.v,
        v.w,
        v.distance,
        v.level,
        v.skew.to_bits(),
        v.bound.to_bits(),
    )
}

#[derive(Clone, Copy)]
enum Drive {
    Once,
    Chunked(f64),
    Threaded,
}

struct Case {
    topology: &'static str,
    algo: &'static str,
    kappa_factor: f64,
    delay: &'static str,
    rates: &'static str,
    horizon: f64,
    seed: u64,
    faults: &'static str,
    /// Node `v` wakes at `v · stagger` (0: all at once).
    stagger: f64,
    drive: Drive,
}

const BASE: Case = Case {
    topology: "grid:4x4",
    algo: "aopt",
    kappa_factor: 1.0,
    delay: "uniform",
    rates: "split",
    horizon: 40.0,
    seed: 1,
    faults: "",
    stagger: 0.0,
    drive: Drive::Once,
};

fn run_case(case: &Case) -> Option<&'static str> {
    let eps = 0.02;
    let t_hat = 0.2;
    let graph = parse_topology(case.topology, case.seed).unwrap();
    let drift = DriftBounds::new(eps).unwrap();
    let params = Params::recommended(eps, t_hat)
        .unwrap()
        .with_kappa_factor_unchecked(case.kappa_factor);
    let n = graph.len();
    let sink = Differential::new(&graph, params, drift);
    let label = format!(
        "{} {} κ×{} {} {} faults `{}` stagger {}",
        case.topology,
        case.algo,
        case.kappa_factor,
        case.delay,
        case.rates,
        case.faults,
        case.stagger
    );
    let sink = match case.algo {
        "aopt" => execute(case, graph, vec![AOpt::new(params); n], sink),
        "mingap" => execute(case, graph, vec![MinGapAOpt::new(params); n], sink),
        "nosync" => execute(case, graph, vec![NoSync; n], sink),
        "max" => execute(case, graph, vec![MaxAlgorithm::new(1.0); n], sink),
        other => panic!("no such algorithm {other}"),
    };
    sink.verdict(&label)
}

fn execute<P: Protocol + Send>(
    case: &Case,
    graph: Graph,
    protocols: Vec<P>,
    sink: Differential,
) -> Differential
where
    P::Msg: Send,
{
    let drift = DriftBounds::new(0.02).unwrap();
    let (delay, min_horizon) = build_delay(case.delay, &graph, 0.2, 0.02, case.seed).unwrap();
    let horizon = case.horizon.max(min_horizon);
    let mut schedules = build_rates(case.rates, &graph, drift, horizon, case.seed).unwrap();
    let faults = parse_schedule(case.faults).unwrap();
    apply_rate_faults(&mut schedules, &faults).unwrap();
    let n = graph.len();
    let mut engine = gcs_sim::Engine::builder(graph)
        .protocols(protocols)
        .delay_model(ChaosDelay::new(delay, faults, case.seed))
        .rate_schedules(schedules)
        .event_sink(sink)
        .build();
    for v in 0..n {
        engine.wake(NodeId(v), v as f64 * case.stagger);
    }
    match case.drive {
        Drive::Once => engine.run_until(horizon),
        Drive::Chunked(step) => {
            let mut t = 0.0;
            while t < horizon {
                t = (t + step).min(horizon);
                engine.run_until(t);
            }
        }
        Drive::Threaded => engine.run_until_threaded(horizon, 2),
    }
    engine.into_sink()
}

/// Runs every case, asserting agreement, and counts legal trips.
fn legal_trips(cases: &[Case]) -> usize {
    cases
        .iter()
        .filter(|case| run_case(case) == Some("legal"))
        .count()
}

#[test]
fn protocols_with_split_rates_agree_with_the_full_scan() {
    let mut cases = Vec::new();
    for algo in ["aopt", "mingap", "nosync", "max"] {
        for kappa_factor in [1.0, 0.05] {
            for topology in ["grid:4x4", "path:8"] {
                cases.push(Case {
                    topology,
                    algo,
                    kappa_factor,
                    ..BASE
                });
            }
        }
    }
    cases.push(Case {
        algo: "nosync",
        rates: "split",
        delay: "zero",
        horizon: 400.0,
        ..BASE
    });
    assert!(
        legal_trips(&cases) >= 4,
        "the matrix must exercise legal trips"
    );
}

#[test]
fn chaos_partitions_and_crashes_agree_with_the_full_scan() {
    // The committed partition fixture, run in-process.
    let spec = ChaosSpec::parse(include_str!("fixtures/chaos/partition_legal.min.chaos")).unwrap();
    let fixture = Case {
        topology: "path:8",
        delay: "const",
        rates: "split",
        horizon: spec.horizon,
        seed: spec.seed,
        faults: "partition:5..42.5:0..4",
        ..BASE
    };
    assert_eq!(
        parse_schedule(fixture.faults).unwrap(),
        spec.faults,
        "the case must be the fixture's schedule"
    );
    assert_eq!(run_case(&fixture), Some("legal"));
    let cases = [
        Case {
            faults: "partition:2..30:0..8",
            ..BASE
        },
        Case {
            faults: "crash:3..25:0..4",
            ..BASE
        },
        Case {
            topology: "path:8",
            faults: "crash:1..20:5..8;drop:0..40:*:0.3",
            kappa_factor: 0.3,
            ..BASE
        },
        Case {
            topology: "ring:10",
            faults: "partition:4..35:0..5",
            delay: "const",
            ..BASE
        },
    ];
    legal_trips(&cases);
}

#[test]
fn staggered_wakes_agree_with_the_full_scan() {
    let cases = [
        Case {
            stagger: 0.5,
            kappa_factor: 0.05,
            ..BASE
        },
        Case {
            topology: "path:8",
            algo: "nosync",
            stagger: 1.5,
            delay: "zero",
            horizon: 400.0,
            ..BASE
        },
        Case {
            stagger: 0.25,
            ..BASE
        },
    ];
    assert!(legal_trips(&cases) >= 1);
}

#[test]
fn chunked_and_threaded_drivers_agree_with_the_full_scan() {
    let mut cases = Vec::new();
    for drive in [Drive::Chunked(0.7), Drive::Threaded] {
        for (algo, kappa_factor) in [("aopt", 1.0), ("aopt", 0.05), ("nosync", 1.0)] {
            cases.push(Case {
                algo,
                kappa_factor,
                delay: "const",
                horizon: if algo == "nosync" { 200.0 } else { 40.0 },
                drive,
                ..BASE
            });
        }
    }
    assert!(legal_trips(&cases) >= 2);
}

#[test]
fn a_margin_held_just_past_the_bound_trips_at_the_same_snapshot() {
    // Two nodes in lockstep at rate 1, their skew held within tolerance
    // past the neighbour bound (margin in [−tol, 0)) for 50 snapshots,
    // then pushed out by 1.5·tol: the trip must come at that snapshot.
    let params = Params::recommended(0.02, 0.2).unwrap();
    let drift = DriftBounds::new(0.02).unwrap();
    let graph = topology::path(2);
    let bound = {
        let mut probe = LegalStateChecker::new(&graph, params);
        probe.observe_clocks(0.0, &[1e6, 0.0]);
        probe.first_violation().unwrap().bound
    };
    let tol = 1e-9;
    let mut sink = Differential::new(&graph, params, drift);
    for v in 0..2 {
        sink.record(&EngineEvent::Wake {
            node: NodeId(v),
            t: 0.0,
            hw: 0.0,
        });
    }
    // Late enough that the skew sits inside Condition (1)'s band.
    let start = 100.0 * bound + 10.0;
    for k in 0..=60u32 {
        let t = start + 0.1 * k as f64;
        let excess = if k < 50 { 0.5 * tol } else { 2.0 * tol };
        sink.snapshot(t, &[t + bound + excess, t], 0);
        assert_eq!(sink.watchdog.tripped(), k >= 50, "snapshot {k}");
    }
    assert_eq!(sink.verdict("lockstep"), Some("legal"));
    let trip = sink.oracle.first_violation().unwrap();
    assert_eq!(trip.t, start + 5.0);
}

#[test]
fn a_pair_diverging_at_the_fastest_legal_rate_trips_at_the_same_snapshot() {
    // Node 0 runs at β, node 1 at α from a common value: the skew grows
    // at exactly the rate the deadlines budget for, so a deadline any
    // later than Condition (2) allows would miss the first violating
    // snapshot.
    let params = Params::recommended(0.02, 0.2).unwrap();
    let drift = DriftBounds::new(0.02).unwrap();
    let graph = topology::path(2);
    let mut sink = Differential::new(&graph, params, drift);
    let envelope = sink.watchdog.rate_envelope();
    let (alpha, beta) = (envelope.alpha(), envelope.beta());
    for v in 0..2 {
        sink.record(&EngineEvent::Wake {
            node: NodeId(v),
            t: 0.0,
            hw: 0.0,
        });
    }
    // Late enough that both clocks stay inside Condition (1)'s band.
    let start = 5_000.0;
    let mut k = 0u32;
    while !sink.watchdog.tripped() {
        let t = start + 0.01 * k as f64;
        let dt = t - start;
        sink.snapshot(t, &[start + beta * dt, start + alpha * dt], 0);
        k += 1;
        assert!(k < 1_000_000, "the skew must break the neighbour bound");
    }
    assert_eq!(sink.verdict("fastest divergence"), Some("legal"));
}

#[test]
fn a_pair_diverging_by_the_tolerance_every_snapshot_trips_at_the_same_snapshot() {
    // Snapshots 10 ns apart, each clock stepping within Condition (2)'s
    // per-interval tolerance of its extreme rate: the skew grows mostly
    // by the `2·tol` per snapshot the potential budgets for, from just
    // below the neighbour bound.
    let params = Params::recommended(0.02, 0.2).unwrap();
    let drift = DriftBounds::new(0.02).unwrap();
    let graph = topology::path(2);
    let mut sink = Differential::new(&graph, params, drift);
    let envelope = sink.watchdog.rate_envelope();
    let (alpha, beta) = (envelope.alpha(), envelope.beta());
    let bound = {
        let mut probe = LegalStateChecker::new(&graph, params);
        probe.observe_clocks(0.0, &[1e6, 0.0]);
        probe.first_violation().unwrap().bound
    };
    for v in 0..2 {
        sink.record(&EngineEvent::Wake {
            node: NodeId(v),
            t: 0.0,
            hw: 0.0,
        });
    }
    let (tol, dt) = (1e-9, 1e-8);
    let mut t = 5_000.0;
    let mut clocks = [t + 0.5 * bound - 5e-7, t - 0.5 * bound + 5e-7];
    let mut k = 0u32;
    while !sink.watchdog.tripped() {
        sink.snapshot(t, &clocks, 0);
        t += dt;
        clocks[0] += beta * dt + 0.99 * tol;
        clocks[1] += alpha * dt - 0.99 * tol;
        k += 1;
        assert!(k < 10_000, "the skew must break the neighbour bound");
    }
    assert_eq!(sink.verdict("tolerance divergence"), Some("legal"));
}
