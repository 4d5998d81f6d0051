//! In-process mirrors of the three simulation paths the CLI runs
//! (`gcs run`, one `gcs sweep` job, `gcs chaos run`), assembled from the
//! crates' public APIs with the same topology, parameters, delay and rate
//! schedules, and the same observer composition as the CLI's private sink
//! stacks (`RunSinks`, `JobSinks`, `OracleSinks`).
//!
//! Protocols and delay models are wrapped in forwarding shims that open a
//! span around every handler and delivery decision. The shims forward
//! every trait method, including `min_delay`/`lookahead_at`, so the engine
//! picks the same queue mode and the execution is unchanged: the benchmark
//! checks that a traced run reproduces the CLI's statistics exactly.

use gcs_adversary::{apply_rate_faults, ChaosDelay};
use gcs_analysis::{InvariantWatchdog, MetricsSink, SkewObserver};
use gcs_core::{AOpt, AOptJump, EnvelopeAOpt, MinGapAOpt, Params};
use gcs_graph::{Graph, NodeId};
use gcs_sim::{
    Context, DelayCtx, DelayModel, Delivery, DropCause, Engine, EngineEvent, EventSink, Lookahead,
    MessageStats, Protocol, RecorderSink, TimerId,
};
use gcs_sweep::parse::resolve_chaos;
use gcs_sweep::{build_delay, build_rates, parse_topology, JobResult, JobSpec};
use gcs_time::{DriftBounds, RateSchedule};

use crate::spans::{span, Span};

/// A protocol whose handlers each run inside a span.
#[derive(Clone)]
pub struct TracedProto<P> {
    inner: P,
    span: Span,
}

impl<P: Protocol> Protocol for TracedProto<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        span(self.span, || self.inner.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg) {
        span(self.span, || self.inner.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, timer: TimerId) {
        span(self.span, || self.inner.on_timer(ctx, timer));
    }

    // Clock reads happen n times per snapshot: they stay untimed and are
    // part of the engine's own snapshot-vector build.
    fn logical_value(&self, hw: f64) -> f64 {
        self.inner.logical_value(hw)
    }

    fn rate_multiplier(&self) -> f64 {
        self.inner.rate_multiplier()
    }
}

/// A delay model whose delivery decisions each run inside a span.
#[derive(Clone)]
pub struct TracedDelay<D> {
    inner: D,
    span: Span,
}

impl<D: DelayModel> DelayModel for TracedDelay<D> {
    fn delivery(&mut self, ctx: &DelayCtx<'_>) -> Delivery {
        span(self.span, || self.inner.delivery(ctx))
    }

    fn uncertainty(&self) -> Option<f64> {
        self.inner.uncertainty()
    }

    fn min_delay(&self) -> Option<f64> {
        self.inner.min_delay()
    }

    fn lookahead_at(&self, now: f64) -> Option<Lookahead> {
        self.inner.lookahead_at(now)
    }
}

fn traced<D>(inner: D, span: Span) -> TracedDelay<D> {
    TracedDelay { inner, span }
}

/// `gcs run`'s default observer stack: skew observer + flight recorder.
struct RunStack {
    observer: SkewObserver,
    recorder: RecorderSink,
    dropped_model: u64,
    dropped_faults: u64,
}

impl EventSink for RunStack {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: &EngineEvent) {
        span(Span::Recorder, || self.recorder.record(event));
        if let EngineEvent::Drop { cause, .. } = event {
            match cause {
                DropCause::Model => self.dropped_model += 1,
                DropCause::Fault => self.dropped_faults += 1,
            }
        }
    }

    fn wants_snapshots(&self) -> bool {
        true
    }

    fn snapshot(&mut self, t: f64, clocks: &[f64], queue_depth: usize) {
        span(Span::SkewObserver, || {
            self.observer.snapshot(t, clocks, queue_depth)
        });
    }
}

/// A sweep job's stack: skew observer + metrics sink (+ watchdog) +
/// flight recorder.
struct JobStack {
    observer: SkewObserver,
    metrics: MetricsSink,
    watchdog: Option<InvariantWatchdog>,
    recorder: RecorderSink,
}

impl EventSink for JobStack {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: &EngineEvent) {
        span(Span::Recorder, || self.recorder.record(event));
        span(Span::MetricsSink, || self.metrics.record(event));
        if let Some(w) = self.watchdog.as_mut() {
            span(Span::WatchdogRecord, || w.record(event));
        }
    }

    fn wants_snapshots(&self) -> bool {
        true
    }

    fn snapshot(&mut self, t: f64, clocks: &[f64], queue_depth: usize) {
        span(Span::SkewObserver, || {
            self.observer.observe_clocks(t, clocks)
        });
        span(Span::MetricsSink, || {
            self.metrics.snapshot(t, clocks, queue_depth)
        });
        if let Some(w) = self.watchdog.as_mut() {
            span(Span::Watchdog, || w.snapshot(t, clocks, queue_depth));
        }
    }
}

/// `gcs chaos run`'s oracle stack: skew observer + invariant watchdog +
/// flight recorder.
struct OracleStack {
    observer: SkewObserver,
    watchdog: InvariantWatchdog,
    recorder: RecorderSink,
}

impl EventSink for OracleStack {
    fn record(&mut self, event: &EngineEvent) {
        span(Span::Recorder, || self.recorder.record(event));
        span(Span::WatchdogRecord, || self.watchdog.record(event));
    }

    fn wants_snapshots(&self) -> bool {
        true
    }

    fn snapshot(&mut self, t: f64, clocks: &[f64], queue_depth: usize) {
        span(Span::SkewObserver, || {
            self.observer.observe_clocks(t, clocks)
        });
        span(Span::Watchdog, || {
            self.watchdog.snapshot(t, clocks, queue_depth)
        });
    }
}

/// Engine counters of one execution (profiling on) or zeros (off).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Events dispatched (queue pops, stale entries included).
    pub events: u64,
    /// Stale queue entries skipped.
    pub stale: u64,
    /// Snapshots delivered to the sink.
    pub snapshots: u64,
    /// Protocol handler invocations.
    pub protocol_calls: u64,
    /// Delay-model samples.
    pub delay_calls: u64,
}

impl Counts {
    /// Adds another execution's counts.
    pub fn add(&mut self, other: &Counts) {
        self.events += other.events;
        self.stale += other.stale;
        self.snapshots += other.snapshots;
        self.protocol_calls += other.protocol_calls;
        self.delay_calls += other.delay_calls;
    }
}

fn execute<P: Protocol, D: DelayModel, S: EventSink>(
    graph: Graph,
    protocols: Vec<P>,
    delay: D,
    schedules: Vec<RateSchedule>,
    sink: S,
    horizon: f64,
    profiling: bool,
) -> (S, MessageStats, Counts) {
    let mut engine = span(Span::EngineBuild, || {
        let mut engine = Engine::builder(graph)
            .protocols(protocols)
            .delay_model(delay)
            .rate_schedules(schedules)
            .event_sink(sink)
            .profiling(profiling)
            .build();
        engine.wake_all_at(0.0);
        engine
    });
    span(Span::SimRun, || engine.run_until(horizon));
    let stats = engine.message_stats().clone();
    let counts = engine.profile().map_or_else(Counts::default, |p| Counts {
        events: p.events,
        stale: p.stale_events,
        snapshots: p.snapshots,
        protocol_calls: p.protocol_calls,
        delay_calls: p.delay_calls,
    });
    (engine.into_sink(), stats, counts)
}

/// Builds the protocol vector for `algo`, wrapped in its span, and runs
/// `$exec` with it. Only the four 𝒜^opt variants are benchmarked.
macro_rules! dispatch {
    ($algo:expr, $params:expr, $n:expr, |$protocols:ident| $exec:expr) => {
        match $algo {
            "aopt" => {
                let $protocols = vec![
                    TracedProto {
                        inner: AOpt::new($params),
                        span: Span::ProtoAopt
                    };
                    $n
                ];
                $exec
            }
            "mingap" => {
                let $protocols = vec![
                    TracedProto {
                        inner: MinGapAOpt::new($params),
                        span: Span::ProtoMingap
                    };
                    $n
                ];
                $exec
            }
            "envelope" => {
                let $protocols = vec![
                    TracedProto {
                        inner: EnvelopeAOpt::new($params),
                        span: Span::ProtoEnvelope
                    };
                    $n
                ];
                $exec
            }
            "jump" => {
                let $protocols = vec![
                    TracedProto {
                        inner: AOptJump::new($params),
                        span: Span::ProtoJump
                    };
                    $n
                ];
                $exec
            }
            other => return Err(format!("algorithm `{other}` is not benchmarked")),
        }
    };
}

/// The inputs of one `gcs run` (the flags the benchmark passes).
#[derive(Clone, Debug)]
pub struct RunInput {
    pub topology: String,
    pub algo: String,
    pub eps: f64,
    pub t: f64,
    pub delays: String,
    pub rates: String,
    pub horizon: f64,
    pub seed: u64,
}

/// What a simulation path reports, in the CLI's terms.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    pub nodes: usize,
    pub diameter: u32,
    pub horizon: f64,
    pub global_skew: f64,
    pub local_skew: f64,
    pub global_bound: f64,
    pub local_bound: f64,
    pub stats: MessageStats,
    pub counts: Counts,
    /// `(kind, node, t)` of the watchdog's first violation (chaos only).
    pub violation: Option<(String, usize, f64)>,
    /// Whether an out-of-model clause licenses a violation (chaos only).
    pub violation_expected: bool,
}

/// Mirrors `cmd_run` with no optional observers and `--threads 1`.
pub fn run_cli(input: &RunInput, profiling: bool) -> Result<SimOutcome, String> {
    let graph = span(Span::GraphBuild, || {
        parse_topology(&input.topology, input.seed)
    })?;
    let n = graph.len();
    let d = graph.diameter();
    let drift = DriftBounds::new(input.eps).map_err(|e| e.to_string())?;
    let params = Params::recommended(input.eps, input.t).map_err(|e| e.to_string())?;
    let (delay, horizon, schedules) = span(Span::SweepBuild, || {
        let (delay, min_horizon) =
            build_delay(&input.delays, &graph, input.t, input.eps, input.seed)?;
        let horizon = input.horizon.max(min_horizon);
        let schedules = build_rates(&input.rates, &graph, drift, horizon, input.seed)?;
        Ok::<_, String>((delay, horizon, schedules))
    })?;
    let sink = span(Span::ObserversNew, || RunStack {
        observer: SkewObserver::new(&graph),
        recorder: RecorderSink::new(),
        dropped_model: 0,
        dropped_faults: 0,
    });
    let delay = traced(delay, Span::Delay);
    let (sink, stats, counts) = dispatch!(input.algo.as_str(), params, n, |protocols| {
        execute(graph, protocols, delay, schedules, sink, horizon, profiling)
    });
    Ok(SimOutcome {
        nodes: n,
        diameter: d,
        horizon,
        global_skew: sink.observer.worst_global(),
        local_skew: sink.observer.worst_local(),
        global_bound: params.global_skew_bound(d),
        local_bound: params.local_skew_bound(d),
        stats,
        counts,
        violation: None,
        violation_expected: false,
    })
}

/// Mirrors `gcs_chaos::run_scenario` at one thread.
pub fn run_chaos(spec: &gcs_chaos::ChaosSpec, profiling: bool) -> Result<SimOutcome, String> {
    let graph = span(Span::GraphBuild, || {
        parse_topology(&spec.topology, spec.seed)
    })?;
    let n = graph.len();
    let d = graph.diameter();
    let drift = DriftBounds::new(spec.eps).map_err(|e| e.to_string())?;
    let params = match spec.sigma {
        Some(sigma) => Params::with_sigma(spec.eps, spec.t, sigma),
        None => Params::recommended(spec.eps, spec.t),
    }
    .map_err(|e| e.to_string())?;
    let (delay, horizon, mut schedules) = span(Span::SweepBuild, || {
        let (delay, min_horizon) = build_delay(&spec.delay, &graph, spec.t, spec.eps, spec.seed)?;
        let horizon = spec.horizon.max(min_horizon);
        let schedules = build_rates(&spec.rates, &graph, drift, horizon, spec.seed)?;
        Ok::<_, String>((delay, horizon, schedules))
    })?;
    let delay = span(Span::ChaosSetup, || {
        apply_rate_faults(&mut schedules, &spec.faults)?;
        Ok::<_, String>(ChaosDelay::new(
            traced(delay, Span::Delay),
            spec.faults.clone(),
            spec.seed,
        ))
    })?;
    let delay = traced(delay, Span::ChaosDelay);
    let violation_expected = spec
        .faults
        .iter()
        .any(|c| c.violation_allowed(drift, Some(spec.t)));
    let watchdog = span(Span::WatchdogNew, || {
        InvariantWatchdog::new(&graph, params, drift)
    });
    let sink = span(Span::ObserversNew, || OracleStack {
        observer: SkewObserver::new(&graph),
        watchdog,
        recorder: RecorderSink::new(),
    });
    let (sink, stats, counts) = dispatch!(spec.algo.as_str(), params, n, |protocols| {
        execute(graph, protocols, delay, schedules, sink, horizon, profiling)
    });
    let violation = sink.watchdog.trip().map(|trip| {
        (
            trip.violation.kind().to_string(),
            trip.violation.node(),
            trip.violation.time(),
        )
    });
    Ok(SimOutcome {
        nodes: n,
        diameter: d,
        horizon,
        global_skew: sink.observer.worst_global(),
        local_skew: sink.observer.worst_local(),
        global_bound: params.global_skew_bound(d),
        local_bound: params.local_skew_bound(d),
        stats,
        counts,
        violation,
        violation_expected,
    })
}

/// Mirrors `gcs_sweep::run_job` for one grid point.
pub fn run_job(job: &JobSpec, profiling: bool) -> Result<(JobResult, Counts), String> {
    let graph = span(Span::GraphBuild, || parse_topology(&job.topology, job.seed))?;
    let n = graph.len();
    let d = graph.diameter();
    let drift = DriftBounds::new(job.eps).map_err(|e| e.to_string())?;
    let params = match job.sigma {
        Some(sigma) => Params::with_sigma(job.eps, job.t, sigma),
        None => Params::recommended(job.eps, job.t),
    }
    .map_err(|e| e.to_string())?;
    let base_horizon = job.horizon + job.horizon_per_diameter * d as f64 * job.t;
    let (delay, horizon, mut schedules) = span(Span::SweepBuild, || {
        let (delay, min_horizon) = build_delay(&job.delay, &graph, job.t, job.eps, job.seed)?;
        let horizon = base_horizon.max(min_horizon);
        let schedules = build_rates(&job.rates, &graph, drift, horizon, job.seed)?;
        Ok::<_, String>((delay, horizon, schedules))
    })?;
    let delay = span(Span::ChaosSetup, || {
        let clauses = resolve_chaos(&job.chaos)?;
        apply_rate_faults(&mut schedules, &clauses)?;
        Ok::<_, String>(ChaosDelay::new(
            traced(delay, Span::Delay),
            clauses,
            job.seed,
        ))
    })?;
    let delay = traced(delay, Span::ChaosDelay);
    let watchdog = job.watchdog.then(|| {
        span(Span::WatchdogNew, || {
            InvariantWatchdog::new(&graph, params, drift)
        })
    });
    let sink = span(Span::ObserversNew, || JobStack {
        observer: SkewObserver::new(&graph),
        metrics: MetricsSink::new(),
        watchdog,
        recorder: RecorderSink::new(),
    });
    let (mut sink, stats, counts) = dispatch!(job.algo.as_str(), params, n, |protocols| {
        execute(graph, protocols, delay, schedules, sink, horizon, profiling)
    });
    sink.metrics.flush_rate_window(horizon);
    let result = JobResult {
        nodes: n,
        diameter: d,
        horizon,
        global_skew: sink.observer.worst_global(),
        local_skew: sink.observer.worst_local(),
        global_bound: params.global_skew_bound(d),
        local_bound: params.local_skew_bound(d),
        send_events: stats.send_events,
        transmissions: stats.transmissions,
        deliveries: stats.deliveries,
        dropped: stats.dropped,
        dropped_model: stats.dropped_model,
        dropped_faults: stats.dropped_faults,
        duplicated: stats.duplicated,
        events_recorded: sink
            .metrics
            .registry()
            .counter_value("events.total")
            .unwrap_or(0),
        watchdog_tripped: sink.watchdog.as_ref().is_some_and(|w| w.tripped()),
    };
    Ok((result, counts))
}
