//! Executing one chaos scenario: the sweep substrate (topology, delay
//! model, rate schedules) with the fault schedule compiled onto it via
//! [`gcs_adversary::ChaosDelay`], observed by the invariant watchdog as the
//! online oracle.

use gcs_adversary::{apply_rate_faults, ChaosDelay};
use gcs_analysis::{InvariantWatchdog, SkewObserver, WatchdogViolation};
use gcs_core::Params;
use gcs_graph::Graph;
use gcs_sim::{Engine, EngineEvent, EventSink, MessageStats, Protocol, RecorderSink};
use gcs_sweep::{build_delay, build_rates, parse_topology, SweepDelay};
use gcs_time::{DriftBounds, RateSchedule};

use crate::spec::ChaosSpec;

/// Everything one scenario execution produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Nodes of the instantiated topology.
    pub nodes: usize,
    /// Diameter of the instantiated topology.
    pub diameter: u32,
    /// Effective horizon the execution ran to.
    pub horizon: f64,
    /// Worst pairwise logical skew observed.
    pub global_skew: f64,
    /// Worst neighbour logical skew observed.
    pub local_skew: f64,
    /// Theorem 5.5 global bound for these parameters.
    pub global_bound: f64,
    /// Theorem 5.10 local bound for these parameters.
    pub local_bound: f64,
    /// Engine message counters (per-cause drop attribution included).
    pub stats: MessageStats,
    /// The first invariant violation, if the watchdog tripped.
    pub violation: Option<WatchdogViolation>,
    /// Whether the schedule contains at least one clause that is *allowed*
    /// to break an invariant (out-of-model fault). A violation without such
    /// a clause is an **unexpected** violation — a finding.
    pub violation_expected: bool,
    /// The flight-recorder window at end of run, present only when the
    /// oracle tripped: the recent events leading up to the violation, in
    /// execution order, ready to dump as a JSONL forensic artifact.
    pub recorder_window: Option<Vec<EngineEvent>>,
}

impl ScenarioOutcome {
    /// A violation the fault taxonomy says should not have happened.
    pub fn unexpected(&self) -> bool {
        self.violation.is_some() && !self.violation_expected
    }
}

/// The oracle sink: exact skew observation plus the invariant watchdog,
/// with the flight recorder armed so a violation leaves a causal window.
struct OracleSinks {
    observer: SkewObserver,
    watchdog: InvariantWatchdog,
    recorder: RecorderSink,
}

impl EventSink for OracleSinks {
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

fn exec<P: Protocol + Send>(
    graph: Graph,
    protocols: Vec<P>,
    delay: ChaosDelay<SweepDelay>,
    schedules: Vec<RateSchedule>,
    horizon: f64,
    threads: usize,
    sinks: OracleSinks,
) -> (OracleSinks, MessageStats)
where
    P::Msg: Send,
{
    let mut engine = Engine::builder(graph)
        .protocols(protocols)
        .delay_model(delay)
        .rate_schedules(schedules)
        .event_sink(sinks)
        .build();
    engine.wake_all_at(0.0);
    if threads >= 2 {
        // The parallel driver transparently falls back to the sequential
        // loop whenever the (chaos-degraded) lookahead promise cannot
        // justify a window — either way the observable execution is
        // byte-identical to `threads = 1`.
        engine.run_until_threaded(horizon, threads);
    } else {
        engine.run_until(horizon);
    }
    let stats = engine.message_stats().clone();
    (engine.into_sink(), stats)
}

/// Runs `spec` to completion and reports what the oracle saw.
///
/// The outcome is a pure function of the spec: topology randomness, delay
/// randomness, rate walks, and every fault coin-flip all derive from
/// `spec.seed`, and the engine guarantees `threads`-independence, so the
/// same spec reproduces the same outcome at any thread count.
pub fn run_scenario(spec: &ChaosSpec, threads: usize) -> Result<ScenarioOutcome, String> {
    let graph = parse_topology(&spec.topology, spec.seed)?;
    let n = graph.len();
    let d = graph.diameter();
    let drift = DriftBounds::new(spec.eps).map_err(|e| e.to_string())?;
    let params = match spec.sigma {
        Some(sigma) => Params::with_sigma(spec.eps, spec.t, sigma),
        None => Params::recommended(spec.eps, spec.t),
    }
    .map_err(|e| e.to_string())?;
    let (delay, min_horizon) = build_delay(&spec.delay, &graph, spec.t, spec.eps, spec.seed)?;
    let horizon = spec.horizon.max(min_horizon);
    let mut schedules = build_rates(&spec.rates, &graph, drift, horizon, spec.seed)?;
    apply_rate_faults(&mut schedules, &spec.faults)?;
    let delay = ChaosDelay::new(delay, spec.faults.clone(), spec.seed);
    let violation_expected = spec
        .faults
        .iter()
        .any(|c| c.violation_allowed(drift, Some(spec.t)));
    let sinks = OracleSinks {
        observer: SkewObserver::new(&graph),
        watchdog: InvariantWatchdog::new(&graph, params, drift),
        recorder: RecorderSink::new(),
    };

    let (sinks, stats) = gcs_sweep::with_algo!(spec.algo.as_str(), params, n, |protocols| {
        exec(graph, protocols, delay, schedules, horizon, threads, sinks)
    });

    let violation = sinks.watchdog.trip().map(|trip| trip.violation.clone());
    let recorder_window = violation.is_some().then(|| sinks.recorder.window_events());
    Ok(ScenarioOutcome {
        nodes: n,
        diameter: d,
        horizon,
        global_skew: sinks.observer.worst_global(),
        local_skew: sinks.observer.worst_local(),
        global_bound: params.global_skew_bound(d),
        local_bound: params.local_skew_bound(d),
        stats,
        violation,
        violation_expected,
        recorder_window,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_adversary::FaultClause;

    fn spec_with(faults: &[&str]) -> ChaosSpec {
        ChaosSpec {
            topology: "path:6".into(),
            horizon: 40.0,
            seed: 11,
            faults: faults
                .iter()
                .map(|s| FaultClause::parse(s).unwrap())
                .collect(),
            ..ChaosSpec::default()
        }
    }

    #[test]
    fn fault_free_scenario_is_clean_and_reproducible() {
        let spec = spec_with(&[]);
        let a = run_scenario(&spec, 1).unwrap();
        let b = run_scenario(&spec, 1).unwrap();
        assert_eq!(a, b);
        assert!(a.violation.is_none());
        assert!(!a.violation_expected);
        assert!(a.global_skew <= a.global_bound + 1e-9);
    }

    #[test]
    fn in_model_faults_do_not_trip_the_oracle() {
        // Drops, duplicates, and a clog within 𝒯 are all in-model: A^opt's
        // invariants must hold, and a trip here would be a real finding.
        let spec = spec_with(&[
            "drop:5..20:*:0.3",
            "dup:0..40:*:1:0.05",
            "clog:10..25:*:0.2",
        ]);
        let out = run_scenario(&spec, 1).unwrap();
        assert!(!out.violation_expected);
        assert!(
            out.violation.is_none(),
            "unexpected violation: {:?}",
            out.violation
        );
        assert!(out.stats.dropped_faults > 0);
        assert!(out.stats.duplicated > 0);
    }

    #[test]
    fn out_of_model_rate_attack_trips_and_is_expected() {
        // Rate 0.9 under ε = 0.02 is far outside the drift bounds the
        // watchdog enforces: Condition (1)/(2) must break, and the fault
        // taxonomy must classify the violation as expected.
        let spec = spec_with(&["rate:5..40:0..1:0.9"]);
        let out = run_scenario(&spec, 1).unwrap();
        assert!(out.violation_expected);
        assert!(!out.unexpected());
        let v = out.violation.expect("rate attack must trip the watchdog");
        assert!(matches!(v.kind(), "envelope" | "progress"));
    }

    #[test]
    fn violations_carry_a_recorder_window() {
        let spec = spec_with(&["rate:5..40:0..1:0.9"]);
        let out = run_scenario(&spec, 1).unwrap();
        let window = out
            .recorder_window
            .as_ref()
            .expect("a tripped scenario must attach its recorder window");
        assert!(!window.is_empty());
        // Clean scenarios attach nothing — the window is a violation artifact.
        let clean = run_scenario(&spec_with(&[]), 1).unwrap();
        assert!(clean.recorder_window.is_none());
    }

    #[test]
    fn outcome_is_thread_count_independent() {
        // `const` delay has a positive floor, so threads=4 genuinely engages
        // the windowed parallel driver; chaos clauses degrade the promise
        // rather than breaking parity.
        let spec = spec_with(&["drop:5..15:*:0.2", "clog:8..20:*:0.15"]);
        let seq = run_scenario(&spec, 1).unwrap();
        let par = run_scenario(&spec, 4).unwrap();
        assert_eq!(seq, par, "threads must not change the observable outcome");
    }

    #[test]
    fn bad_specs_error_cleanly() {
        let mut spec = spec_with(&[]);
        spec.algo = "quantum".into();
        assert!(run_scenario(&spec, 1).is_err());
        let mut spec = spec_with(&[]);
        spec.topology = "moebius:5".into();
        assert!(run_scenario(&spec, 1).is_err());
    }
}
