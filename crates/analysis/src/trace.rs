//! Exact skew observation over an execution.

use gcs_graph::Graph;
use gcs_sim::{DelayModel, Engine, EngineEvent, EventSink, Kinked, Protocol};

/// One decimated time-series point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewSample {
    /// Real time of the sample.
    pub t: f64,
    /// Largest pairwise logical skew at that instant.
    pub global: f64,
    /// Largest neighbour skew at that instant.
    pub local: f64,
}

/// Tracks the worst-case global and local skew of an execution, plus an
/// optional decimated time series.
///
/// Feed it from [`Engine::run_until_observed`]; because logical clocks are
/// piecewise linear between events, per-event observation captures exact
/// worst cases.
///
/// Installed as an [`EventSink`], it uses the engine's *kink cadence* (see
/// [`gcs_sim::sink`]): the global skew is evaluated at every kink snapshot,
/// the local skew only on the kinked nodes' incident edges, and both over
/// all nodes and edges at every `run_until` horizon. The running maxima —
/// values, times and pairs — are those of the per-event cadence, at a
/// fraction of the cost, up to floating-point rounding on stretches where
/// the sampled skew is flat (see the [`gcs_sim::sink`] docs). Between
/// horizons the maxima may lag: the global skew since the last kink, and
/// the local skew of edges whose endpoints have not kinked since. Read
/// them after a horizon (or after an
/// [`observe_clocks`](Self::observe_clocks) of the current state). With a
/// [time series](Self::with_series) the sink falls back to per-event
/// snapshots, because every sample needs the full local skew.
///
/// # Example
///
/// ```
/// use gcs_analysis::SkewObserver;
/// use gcs_core::{AOpt, Params};
/// use gcs_graph::topology;
/// use gcs_sim::{ConstantDelay, Engine};
///
/// let p = Params::recommended(1e-2, 0.1)?;
/// let g = topology::path(4);
/// let mut obs = SkewObserver::new(&g);
/// let mut engine = Engine::builder(g)
///     .protocols(vec![AOpt::new(p); 4])
///     .delay_model(ConstantDelay::new(0.05))
///     .build();
/// engine.wake_all_at(0.0);
/// engine.run_until_observed(30.0, |e| obs.observe(e));
/// assert!(obs.worst_global() <= p.global_skew_bound(3));
/// assert!(obs.worst_local() <= obs.worst_global() + 1e-12);
/// # Ok::<(), gcs_core::ParamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SkewObserver {
    edges: Vec<(usize, usize)>,
    /// Incident edge indices of node `v` (ascending):
    /// `incident[incident_start[v]..incident_start[v + 1]]`.
    incident_start: Vec<usize>,
    incident: Vec<usize>,
    worst_global: f64,
    worst_local: f64,
    worst_global_at: f64,
    worst_local_at: f64,
    worst_global_pair: (usize, usize),
    worst_local_pair: (usize, usize),
    series_interval: Option<f64>,
    next_sample_at: f64,
    series: Vec<SkewSample>,
    observations: u64,
}

impl SkewObserver {
    /// Creates an observer for executions on `graph`.
    pub fn new(graph: &Graph) -> Self {
        let edges: Vec<(usize, usize)> =
            graph.edges().map(|(a, b)| (a.index(), b.index())).collect();
        let mut incident_start = vec![0; graph.len() + 1];
        for &(a, b) in &edges {
            incident_start[a + 1] += 1;
            incident_start[b + 1] += 1;
        }
        for v in 0..graph.len() {
            incident_start[v + 1] += incident_start[v];
        }
        let mut fill = incident_start.clone();
        let mut incident = vec![0; 2 * edges.len()];
        for (e, &(a, b)) in edges.iter().enumerate() {
            for v in [a, b] {
                incident[fill[v]] = e;
                fill[v] += 1;
            }
        }
        SkewObserver {
            edges,
            incident_start,
            incident,
            worst_global: 0.0,
            worst_local: 0.0,
            worst_global_at: 0.0,
            worst_local_at: 0.0,
            worst_global_pair: (0, 0),
            worst_local_pair: (0, 0),
            series_interval: None,
            next_sample_at: 0.0,
            series: Vec::new(),
            observations: 0,
        }
    }

    /// Additionally records a time series, at most one point per
    /// `interval` of real time.
    ///
    /// # Panics
    ///
    /// Panics if `interval <= 0`.
    pub fn with_series(mut self, interval: f64) -> Self {
        assert!(interval > 0.0, "invalid series interval {interval}");
        self.series_interval = Some(interval);
        self
    }

    /// Records the engine's current state.
    pub fn observe<P: Protocol, D: DelayModel, S: EventSink>(&mut self, engine: &Engine<P, D, S>) {
        self.observe_clocks(engine.now(), &engine.logical_values());
    }

    /// Records a clock vector sampled at time `t` (e.g. from an
    /// [`EventSink::snapshot`] callback): every node and every edge,
    /// `O(n + m)`.
    pub fn observe_clocks(&mut self, t: f64, clocks: &[f64]) {
        let local = self.max_edge_skew(clocks, 0..self.edges.len());
        self.record(t, clocks, local);
    }

    /// Records a kink snapshot: the global skew over all of `clocks`, the
    /// local skew over the edges incident to `kinked` only.
    pub fn observe_kinks(&mut self, t: f64, clocks: &[f64], kinked: Kinked<'_>) {
        let Kinked::Nodes(nodes) = kinked else {
            return self.observe_clocks(t, clocks);
        };
        let incident = nodes.iter().flat_map(|v| {
            let v = v.index();
            self.incident[self.incident_start[v]..self.incident_start[v + 1]]
                .iter()
                .copied()
        });
        let local = self.max_edge_skew(clocks, incident);
        self.record(t, clocks, local);
    }

    /// The largest `|L_a − L_b|` over the given edge indices, with its
    /// `(ahead, behind)` pair; among equal skews the lowest edge index
    /// wins, so any subset reports what a full scan in edge order would.
    fn max_edge_skew(
        &self,
        clocks: &[f64],
        edges: impl Iterator<Item = usize>,
    ) -> (f64, (usize, usize)) {
        let mut local: f64 = 0.0;
        let mut best = usize::MAX;
        for e in edges {
            let (a, b) = self.edges[e];
            let skew = (clocks[a] - clocks[b]).abs();
            if skew > local || (skew == local && skew > 0.0 && e < best) {
                local = skew;
                best = e;
            }
        }
        let pair = match self.edges.get(best) {
            Some(&(a, b)) if clocks[a] >= clocks[b] => (a, b),
            Some(&(a, b)) => (b, a),
            None => (0, 0),
        };
        (local, pair)
    }

    /// Folds one observation into the running maxima: the global skew of
    /// `clocks` and the already-evaluated `local` skew.
    fn record(&mut self, t: f64, clocks: &[f64], (local, local_pair): (f64, (usize, usize))) {
        self.observations += 1;
        let mut max = f64::MIN;
        let mut min = f64::MAX;
        let mut argmax = 0;
        let mut argmin = 0;
        for (i, &c) in clocks.iter().enumerate() {
            if c > max {
                max = c;
                argmax = i;
            }
            if c < min {
                min = c;
                argmin = i;
            }
        }
        let global = max - min;
        if global > self.worst_global {
            self.worst_global = global;
            self.worst_global_at = t;
            self.worst_global_pair = (argmax, argmin);
        }
        if local > self.worst_local {
            self.worst_local = local;
            self.worst_local_at = t;
            self.worst_local_pair = local_pair;
        }
        if let Some(interval) = self.series_interval {
            if t >= self.next_sample_at {
                self.series.push(SkewSample { t, global, local });
                self.next_sample_at = t + interval;
            }
        }
    }

    /// The largest pairwise skew seen so far.
    pub fn worst_global(&self) -> f64 {
        self.worst_global
    }

    /// The largest neighbour skew seen so far.
    pub fn worst_local(&self) -> f64 {
        self.worst_local
    }

    /// When the worst global skew occurred.
    pub fn worst_global_at(&self) -> f64 {
        self.worst_global_at
    }

    /// When the worst local skew occurred.
    pub fn worst_local_at(&self) -> f64 {
        self.worst_local_at
    }

    /// The `(argmax, argmin)` node pair attaining the worst global skew
    /// (`(0, 0)` before any observation).
    pub fn worst_global_pair(&self) -> (usize, usize) {
        self.worst_global_pair
    }

    /// The `(ahead, behind)` edge attaining the worst local skew
    /// (`(0, 0)` before any observation).
    pub fn worst_local_pair(&self) -> (usize, usize) {
        self.worst_local_pair
    }

    /// The decimated time series (empty unless enabled).
    pub fn series(&self) -> &[SkewSample] {
        &self.series
    }

    /// Number of observations recorded.
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

/// As a sink, the observer ignores the event stream and samples exact skew
/// at the kink cadence — or per event when it keeps a time series. A direct
/// [`EventSink::snapshot`] call is always a full `O(n + m)` observation.
impl EventSink for SkewObserver {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: &EngineEvent) {}

    fn wants_snapshots(&self) -> bool {
        self.series_interval.is_some()
    }

    fn snapshot(&mut self, t: f64, clocks: &[f64], _queue_depth: usize) {
        self.observe_clocks(t, clocks);
    }

    fn wants_kink_snapshots(&self) -> bool {
        self.series_interval.is_none()
    }

    fn kink_snapshot(&mut self, t: f64, clocks: &[f64], kinked: Kinked<'_>, _queue_depth: usize) {
        self.observe_kinks(t, clocks, kinked);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_core::NoSync;
    use gcs_graph::topology;
    use gcs_sim::ConstantDelay;
    use gcs_time::RateSchedule;

    #[test]
    fn tracks_divergence_of_unsynchronized_clocks() {
        let g = topology::path(3);
        let schedules = vec![
            RateSchedule::constant(1.1).unwrap(),
            RateSchedule::constant(1.0).unwrap(),
            RateSchedule::constant(0.9).unwrap(),
        ];
        let mut obs = SkewObserver::new(&g).with_series(1.0);
        let mut engine = Engine::builder(g)
            .protocols(vec![NoSync; 3])
            .delay_model(ConstantDelay::new(0.0))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until_observed(10.0, |e| obs.observe(e));
        assert!((obs.worst_global() - 2.0).abs() < 1e-9); // 0.2/s for 10s
        assert!((obs.worst_local() - 1.0).abs() < 1e-9); // 0.1/s per edge
        assert!((obs.worst_global_at() - 10.0).abs() < 1e-9);
        assert_eq!(obs.worst_global_pair(), (0, 2), "fastest vs slowest");
        let (ahead, behind) = obs.worst_local_pair();
        assert!(ahead < behind, "earlier node drifts ahead on this path");
        assert!(!obs.series().is_empty());
        let last = obs.series().last().unwrap();
        assert!(last.global <= obs.worst_global() + 1e-12);
    }

    #[test]
    fn series_is_decimated() {
        let g = topology::path(2);
        let mut obs = SkewObserver::new(&g).with_series(5.0);
        let mut engine = Engine::builder(g)
            .protocols(vec![NoSync; 2])
            .delay_model(ConstantDelay::new(0.0))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until_observed(20.0, |e| obs.observe(e));
        assert!(obs.series().len() <= 6);
    }

    #[test]
    fn local_never_exceeds_global() {
        let g = topology::cycle(5);
        let mut obs = SkewObserver::new(&g);
        let drift = gcs_time::DriftBounds::new(0.1).unwrap();
        let schedules = gcs_sim::rates::random_walk(5, drift, 1.0, 30.0, 9);
        let mut engine = Engine::builder(g)
            .protocols(vec![NoSync; 5])
            .delay_model(ConstantDelay::new(0.0))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until_observed(30.0, |e| obs.observe(e));
        assert!(obs.worst_local() <= obs.worst_global() + 1e-12);
        assert!(obs.observations() > 0);
    }
}
