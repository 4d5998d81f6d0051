//! Executing one sweep job: a fresh engine, a fresh observability stack,
//! one measured execution.

use gcs_adversary::{apply_rate_faults, ChaosDelay};
use gcs_analysis::{InvariantWatchdog, MetricsSink, SkewObserver};
use gcs_core::Params;
use gcs_graph::Graph;
use gcs_sim::{Engine, EngineEvent, EventSink, MessageStats, Protocol, RecorderSink};
use gcs_time::{DriftBounds, RateSchedule};

use crate::parse::{build_delay, build_rates, parse_topology, resolve_chaos, SweepDelay};
use crate::spec::JobSpec;

/// Measurements from one completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Number of nodes of the instantiated topology.
    pub nodes: usize,
    /// Diameter of the instantiated topology.
    pub diameter: u32,
    /// Effective real-time horizon the execution ran to.
    pub horizon: f64,
    /// Worst pairwise logical skew over the execution.
    pub global_skew: f64,
    /// Worst neighbour logical skew over the execution.
    pub local_skew: f64,
    /// `A^opt`'s Theorem 5.5 bound 𝒢 for this job's parameters and diameter.
    pub global_bound: f64,
    /// `A^opt`'s Theorem 5.10 bound for this job's parameters and diameter.
    pub local_bound: f64,
    /// Broadcast send events.
    pub send_events: u64,
    /// Per-edge message transmissions.
    pub transmissions: u64,
    /// Delivered messages.
    pub deliveries: u64,
    /// Messages dropped in total (`dropped_model + dropped_faults`).
    pub dropped: u64,
    /// Drops attributed to the delay model itself (`lossy`-style loss).
    pub dropped_model: u64,
    /// Drops attributed to injected chaos faults.
    pub dropped_faults: u64,
    /// Fault-injected duplicate transmissions.
    pub duplicated: u64,
    /// Engine events recorded by the per-job metrics sink.
    pub events_recorded: u64,
    /// Whether the invariant watchdog tripped (always `false` when the
    /// sweep runs without `watchdog`).
    pub watchdog_tripped: bool,
}

/// The per-job observability stack: exact skew observation, the PR-1
/// metrics registry, and (optionally) the PR-1 invariant watchdog — all
/// freshly constructed per job so jobs share no state.
struct JobSinks {
    observer: SkewObserver,
    metrics: MetricsSink,
    watchdog: Option<InvariantWatchdog>,
    /// The always-armed flight recorder: bounded memory per job, so even
    /// wide sweeps keep a recent-event window for post-mortems.
    recorder: RecorderSink,
}

impl JobSinks {
    fn new(graph: &Graph, params: Params, drift: DriftBounds, watchdog: bool) -> Self {
        JobSinks {
            observer: SkewObserver::new(graph),
            metrics: MetricsSink::new(),
            watchdog: watchdog.then(|| InvariantWatchdog::new(graph, params, drift)),
            recorder: RecorderSink::new(),
        }
    }
}

impl EventSink for JobSinks {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: &EngineEvent) {
        self.recorder.record(event);
        self.metrics.record(event);
        if let Some(w) = self.watchdog.as_mut() {
            w.record(event);
        }
    }

    fn wants_snapshots(&self) -> bool {
        true
    }

    fn snapshot(&mut self, t: f64, clocks: &[f64], queue_depth: usize) {
        self.observer.observe_clocks(t, clocks);
        self.metrics.snapshot(t, clocks, queue_depth);
        if let Some(w) = self.watchdog.as_mut() {
            w.snapshot(t, clocks, queue_depth);
        }
    }
}

fn exec<P: Protocol>(
    graph: Graph,
    protocols: Vec<P>,
    delay: ChaosDelay<SweepDelay>,
    schedules: Vec<RateSchedule>,
    horizon: f64,
    sinks: JobSinks,
) -> Result<(JobSinks, MessageStats), (Box<JobSinks>, String)> {
    let mut engine = Engine::builder(graph)
        .protocols(protocols)
        .delay_model(delay)
        .rate_schedules(schedules)
        .event_sink(sinks)
        .build();
    engine.wake_all_at(0.0);
    // Deliberately the sequential loop, never `run_until_threaded`: the
    // sweep's parallelism budget (`--jobs`) is spent on independent jobs,
    // one per worker thread. Nesting the windowed parallel driver inside a
    // job would oversubscribe the machine to jobs x threads cores — use
    // `gcs run --threads` when one large simulation should own the cores.
    //
    // The unwind guard salvages the observability stack — most importantly
    // the flight recorder's event window — when protocol or engine code
    // panics mid-run, so hosted jobs (`gcs serve`) can dump the window.
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run_until(horizon)));
    match run {
        Ok(()) => {
            let stats = engine.message_stats().clone();
            Ok((engine.into_sink(), stats))
        }
        Err(payload) => {
            let message = crate::pool::panic_message(payload.as_ref());
            Err((Box::new(engine.into_sink()), message))
        }
    }
}

/// Everything one execution produced: the measurement (or failure), the
/// watchdog/panic disposition, and the flight recorder holding the final
/// event window.
///
/// The recorder is returned still encoded; decode it with
/// [`gcs_sim::RecorderSink::window_events`] only when the window is
/// actually needed (a trip/panic dump, a blame query) — plain sweeps drop
/// it for free.
#[derive(Debug)]
pub struct JobExecution {
    /// The job's measurements, or the failure/panic message.
    pub outcome: Result<JobResult, String>,
    /// Whether the invariant watchdog tripped (always `false` without
    /// `watchdog = true`).
    pub tripped: bool,
    /// Whether the engine panicked mid-run (the panic was caught; the
    /// recorder window below still holds the events leading up to it).
    pub panicked: bool,
    /// The per-job flight recorder, with its bounded window intact.
    pub recorder: RecorderSink,
}

/// Runs one job to completion on a fresh engine and returns its
/// measurements.
///
/// Every randomized component (random topologies, the uniform delay model,
/// random-walk rate schedules) is seeded from `job.seed`, so a job's result
/// is a pure function of its [`JobSpec`] — the foundation of the sweep
/// determinism guarantee.
///
/// A panic inside the engine is caught and reported as `Err("panicked: …")`
/// — the same message the worker pool would have produced, so sweep output
/// is unchanged.
pub fn run_job(job: &JobSpec) -> Result<JobResult, String> {
    run_job_full(job).outcome
}

/// Like [`run_job`], additionally returning the watchdog/panic disposition
/// and the flight recorder so hosts can write post-mortem dumps and serve
/// blame queries. See [`JobExecution`].
pub fn run_job_full(job: &JobSpec) -> JobExecution {
    match run_job_inner(job) {
        Ok(execution) => execution,
        Err(message) => JobExecution {
            outcome: Err(message),
            tripped: false,
            panicked: false,
            recorder: RecorderSink::new(),
        },
    }
}

/// The fallible setup phase: errors here (bad topology, unknown algorithm)
/// happen before an engine exists, so there is no recorder to salvage.
fn run_job_inner(job: &JobSpec) -> Result<JobExecution, String> {
    let graph = parse_topology(&job.topology, job.seed)?;
    let n = graph.len();
    let d = graph.diameter();
    let drift = DriftBounds::new(job.eps).map_err(|e| e.to_string())?;
    let params = match job.sigma {
        Some(sigma) => Params::with_sigma(job.eps, job.t, sigma),
        None => Params::recommended(job.eps, job.t),
    }
    .map_err(|e| e.to_string())?;
    let base_horizon = job.horizon + job.horizon_per_diameter * d as f64 * job.t;
    let (delay, min_horizon) = build_delay(&job.delay, &graph, job.t, job.eps, job.seed)?;
    let horizon = base_horizon.max(min_horizon);
    let mut schedules = build_rates(&job.rates, &graph, drift, horizon, job.seed)?;
    // The chaos layer always wraps; an empty schedule is fully transparent,
    // so chaos-free jobs behave exactly as before.
    let clauses = resolve_chaos(&job.chaos)?;
    apply_rate_faults(&mut schedules, &clauses)?;
    let delay = ChaosDelay::new(delay, clauses, job.seed);
    let sinks = JobSinks::new(&graph, params, drift, job.watchdog);

    let executed = crate::with_algo!(job.algo.as_str(), params, n, |protocols| {
        exec(graph, protocols, delay, schedules, horizon, sinks)
    });
    let (sinks, outcome, panicked) = match executed {
        Ok((mut sinks, stats)) => {
            sinks.metrics.flush_rate_window(horizon);
            let result = JobResult {
                nodes: n,
                diameter: d,
                horizon,
                global_skew: sinks.observer.worst_global(),
                local_skew: sinks.observer.worst_local(),
                global_bound: params.global_skew_bound(d),
                local_bound: params.local_skew_bound(d),
                send_events: stats.send_events,
                transmissions: stats.transmissions,
                deliveries: stats.deliveries,
                dropped: stats.dropped,
                dropped_model: stats.dropped_model,
                dropped_faults: stats.dropped_faults,
                duplicated: stats.duplicated,
                events_recorded: sinks
                    .metrics
                    .registry()
                    .counter_value("events.total")
                    .unwrap_or(0),
                watchdog_tripped: sinks.watchdog.as_ref().is_some_and(|w| w.tripped()),
            };
            (sinks, Ok(result), false)
        }
        Err((sinks, message)) => (*sinks, Err(message), true),
    };
    let tripped = sinks.watchdog.as_ref().is_some_and(|w| w.tripped());
    Ok(JobExecution {
        outcome,
        tripped,
        panicked,
        recorder: sinks.recorder,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    #[test]
    fn job_result_is_reproducible_and_respects_bounds() {
        let spec = SweepSpec {
            topologies: vec!["path:6".into()],
            horizon: 30.0,
            watchdog: true,
            ..SweepSpec::default()
        };
        let job = &spec.expand()[0];
        let a = run_job(job).unwrap();
        let b = run_job(job).unwrap();
        assert_eq!(a, b, "same JobSpec must reproduce identical results");
        assert_eq!(a.nodes, 6);
        assert_eq!(a.diameter, 5);
        assert!(a.global_skew <= a.global_bound + 1e-9);
        assert!(a.local_skew <= a.global_skew + 1e-12);
        assert!(a.send_events > 0 && a.deliveries > 0);
        assert!(a.events_recorded > 0);
        assert!(!a.watchdog_tripped);
    }

    #[test]
    fn chaos_drops_are_attributed_to_faults_not_the_model() {
        let spec = SweepSpec {
            topologies: vec!["path:6".into()],
            delays: vec!["const".into()],
            rates: vec!["nominal".into()],
            chaos: vec!["drop:5..15:*:0.5".into()],
            horizon: 30.0,
            ..SweepSpec::default()
        };
        let job = &spec.expand()[0];
        let a = run_job(job).unwrap();
        let b = run_job(job).unwrap();
        assert_eq!(a, b, "chaos jobs must stay deterministic");
        assert!(a.dropped_faults > 0, "the drop clause must fire");
        assert_eq!(a.dropped_model, 0, "no lossy model in play");
        assert_eq!(a.dropped, a.dropped_model + a.dropped_faults);

        // The same grid point without chaos loses nothing.
        let clean = SweepSpec {
            chaos: vec!["none".into()],
            ..spec.clone()
        };
        let c = run_job(&clean.expand()[0]).unwrap();
        assert_eq!(c.dropped, 0);
        assert_eq!(c.duplicated, 0);
    }

    #[test]
    fn chaos_duplicates_are_counted() {
        let spec = SweepSpec {
            topologies: vec!["path:4".into()],
            delays: vec!["const".into()],
            rates: vec!["nominal".into()],
            chaos: vec!["dup:0..20:*:1:0.05".into()],
            horizon: 25.0,
            ..SweepSpec::default()
        };
        let r = run_job(&spec.expand()[0]).unwrap();
        assert!(r.duplicated > 0);
        assert_eq!(r.dropped, 0);
        // Every duplicate is its own transmission and delivery.
        assert_eq!(r.deliveries, r.transmissions);
    }

    #[test]
    fn bad_job_specs_fail_cleanly() {
        let spec = SweepSpec {
            topologies: vec!["moebius:6".into()],
            ..SweepSpec::default()
        };
        assert!(run_job(&spec.expand()[0]).is_err());
        let spec = SweepSpec {
            algos: vec!["quantum".into()],
            ..SweepSpec::default()
        };
        assert!(run_job(&spec.expand()[0]).is_err());
    }
}
