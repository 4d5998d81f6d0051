//! The legal-state invariant (paper Definition 5.6).
//!
//! A system is in a *legal state* at time `t` if for every level `s ∈ ℕ₀`
//! and every pair `v, w` at distance `d(v, w) ≥ C_s = (2𝒢/κ)·σ^{−s}`:
//!
//! ```text
//! L_v(t) − L_w(t) ≤ d(v, w) · (s + ½) · κ
//! ```
//!
//! Theorem 5.10 is proved by showing `A^opt` never leaves the legal state;
//! this module checks the invariant directly on simulated executions
//! (experiment F10). For a pair at distance `d`, the binding level is the
//! *smallest* `s` with `C_s ≤ d` — larger levels only weaken the bound — so
//! each distance carries one precomputed level and bound, and the pairs are
//! stored grouped by distance.
//!
//! Two checks share the pair table. [`LegalStateChecker::observe_clocks`]
//! scans every pair on every sample and tracks the worst margin per level;
//! it is the reference. [`LegalStateChecker::observe_due`] evaluates only
//! the pairs that could have crossed their bound since they were last
//! evaluated. Under the paper's Condition (2), `α ≤ dL/dt ≤ β` for every
//! node, so `|d(L_v − L_w)/dt| ≤ β − α`: a pair's skew moves by at most
//! the growth of a caller-supplied potential `Φ` (for the watchdog,
//! `(β − α)·t` plus the per-sample tolerances and a rounding guard). A pair
//! evaluated at potential `Φ₀` with margin `m` therefore cannot fall below
//! `−tol` before `Φ` reaches `Φ₀ + m + tol`, its *deadline*; a min-heap of
//! deadlines yields the due pairs. Both checks report the same first
//! violation, bit for bit.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use gcs_core::Params;
use gcs_graph::{Graph, NodeId};
use gcs_sim::{DelayModel, Engine, EventSink, Protocol};

/// A detected violation of the legal-state invariant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LegalStateViolation {
    /// Real time of the violation.
    pub t: f64,
    /// The ahead node (index).
    pub v: usize,
    /// The behind node (index).
    pub w: usize,
    /// Their distance.
    pub distance: u32,
    /// The binding level `s`.
    pub level: u32,
    /// The observed skew.
    pub skew: f64,
    /// The violated bound `d(s + ½)κ`.
    pub bound: f64,
}

/// A pair's deadline on the potential scale: pair `pair` of the distance
/// `d` group. Ordered so that [`BinaryHeap`] (a max-heap) yields the
/// earliest deadline first.
#[derive(Debug, Clone, Copy)]
struct Deadline {
    at: f64,
    d: u32,
    pair: u32,
}

impl Ord for Deadline {
    fn cmp(&self, other: &Self) -> Ordering {
        other.at.total_cmp(&self.at)
    }
}

impl PartialOrd for Deadline {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Deadline {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Deadline {}

/// Checks the Definition 5.6 invariant over an execution and tracks the
/// worst margin per level.
///
/// # Example
///
/// ```
/// use gcs_analysis::LegalStateChecker;
/// use gcs_core::{AOpt, Params};
/// use gcs_graph::topology;
/// use gcs_sim::{ConstantDelay, Engine};
///
/// let p = Params::recommended(1e-2, 0.1)?;
/// let g = topology::path(5);
/// let mut checker = LegalStateChecker::new(&g, p);
/// let mut engine = Engine::builder(g)
///     .protocols(vec![AOpt::new(p); 5])
///     .delay_model(ConstantDelay::new(0.05))
///     .build();
/// engine.wake_all_at(0.0);
/// engine.run_until_observed(20.0, |e| { checker.observe(e); });
/// assert!(checker.first_violation().is_none());
/// # Ok::<(), gcs_core::ParamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LegalStateChecker {
    table: PairTable,
    /// Worst (smallest) slack `bound − skew` seen per level.
    margins: Vec<f64>,
    first_violation: Option<LegalStateViolation>,
    tolerance: f64,
    /// Per-pair deadlines for [`LegalStateChecker::observe_due`]; empty
    /// until its first call.
    deadlines: BinaryHeap<Deadline>,
}

impl LegalStateChecker {
    /// Builds the checker for a graph and parameter set (`𝒢` is computed
    /// from the graph's diameter).
    ///
    /// # Panics
    ///
    /// Panics if the graph has `2^32` nodes or more.
    pub fn new(graph: &Graph, params: Params) -> Self {
        let n = graph.len();
        assert!(u32::try_from(n).is_ok(), "node ids fit in u32");
        // One bucket of pairs per distance; distance 0 holds none.
        let mut buckets: Vec<Vec<(u32, u32)>> = vec![Vec::new()];
        for v in 0..n {
            let dist = graph.distances_from(NodeId(v));
            for (w, &d) in dist.iter().enumerate().skip(v + 1) {
                let d = d as usize;
                if buckets.len() <= d {
                    buckets.resize_with(d + 1, Vec::new);
                }
                buckets[d].push((v as u32, w as u32));
            }
        }
        let diameter = (buckets.len() - 1) as u32;
        let sigma = params.sigma() as f64;
        let kappa = params.kappa();
        let c0 = 2.0 * params.global_skew_bound(diameter) / kappa;
        let groups: Vec<Group> = buckets
            .into_iter()
            .enumerate()
            .map(|(d, mut pairs)| {
                // Smallest s with C_s = c0·σ^{−s} ≤ d, i.e.
                // s ≥ log_σ(c0/d); no constraint binds pairs further than
                // C_0 only via s = 0 (nor the empty distance-0 group).
                let level = if d == 0 || d as f64 >= c0 {
                    0
                } else {
                    (c0 / d as f64).log(sigma).ceil().max(0.0) as u32
                };
                pairs.shrink_to_fit();
                Group {
                    level,
                    bound: d as f64 * (level as f64 + 0.5) * kappa,
                    pairs,
                }
            })
            .collect();
        let max_level = groups[1..].iter().map(|g| g.level).max().unwrap_or(0);
        LegalStateChecker {
            table: PairTable { groups },
            margins: vec![f64::INFINITY; (max_level + 1) as usize],
            first_violation: None,
            tolerance: 1e-9,
            deadlines: BinaryHeap::new(),
        }
    }

    /// Records the engine's state; returns `false` on (the first) violation.
    pub fn observe<P: Protocol, D: DelayModel, S: EventSink>(
        &mut self,
        engine: &Engine<P, D, S>,
    ) -> bool {
        self.observe_clocks(engine.now(), &engine.logical_values())
    }

    /// Records a clock vector sampled at time `t` (e.g. from an
    /// [`EventSink::snapshot`] callback), scanning every pair; returns
    /// `false` on violation.
    ///
    /// # Panics
    ///
    /// Panics (via indexing) if `clocks` has fewer entries than the graph
    /// the checker was built for.
    pub fn observe_clocks(&mut self, t: f64, clocks: &[f64]) -> bool {
        let Some(at) = self.table.scan(clocks, &mut self.margins, self.tolerance) else {
            return true;
        };
        if self.first_violation.is_none() {
            self.first_violation = Some(self.table.violation(t, at, clocks));
        }
        false
    }

    /// Records a clock vector sampled at time `t`, evaluating only the
    /// pairs whose deadline `potential` has reached; returns `false` on
    /// violation. Reports the same violations as
    /// [`LegalStateChecker::observe_clocks`] (the first pair in row-major
    /// order when several break at once) but leaves
    /// [`LegalStateChecker::margins`] alone. The first call evaluates every
    /// pair and seeds the deadlines.
    ///
    /// The caller guarantees, for every pair and every two calls, that the
    /// pair's `|L_v − L_w|` grew by at most the growth of `potential`
    /// between them, rounding included, and that `potential` strictly
    /// increases from call to call. Under Condition (2) the
    /// [`crate::InvariantWatchdog`] supplies such a potential.
    ///
    /// # Panics
    ///
    /// Panics (via indexing) if `clocks` has fewer entries than the graph
    /// the checker was built for.
    pub fn observe_due(&mut self, t: f64, potential: f64, clocks: &[f64]) -> bool {
        let tol = self.tolerance;
        // The potential at which a pair with `margin` now is due again. A
        // pair within rounding of its bound is due at the next call, never
        // at this one, so the loop over the due pairs ends.
        let deadline = |margin: f64| (potential + margin + tol).max(potential.next_up());
        let table = &self.table;
        let mut violator: Option<PairAt> = None;
        let mut check = |at: PairAt| {
            let margin = table.margin(at, clocks);
            if margin < -tol {
                violator = Some(table.earlier(violator, at));
            }
            deadline(margin)
        };
        if self.deadlines.is_empty() {
            let seeded: Vec<Deadline> = table
                .pairs()
                .map(|at| Deadline {
                    at: check(at),
                    d: at.0 as u32,
                    pair: u32::try_from(at.1).expect("a distance has fewer than 2^32 pairs"),
                })
                .collect();
            self.deadlines = BinaryHeap::from(seeded);
        } else {
            while let Some(mut due) = self.deadlines.peek_mut() {
                if due.at > potential {
                    break;
                }
                // Dropping `due` restores the heap order.
                due.at = check((due.d as usize, due.pair as usize));
            }
        }
        let Some(at) = violator else {
            return true;
        };
        if self.first_violation.is_none() {
            self.first_violation = Some(table.violation(t, at, clocks));
        }
        false
    }

    /// The first violation seen, if any.
    pub fn first_violation(&self) -> Option<LegalStateViolation> {
        self.first_violation
    }

    /// Worst slack (`bound − skew`, possibly negative) per level `s`, over
    /// the samples given to [`LegalStateChecker::observe_clocks`].
    pub fn margins(&self) -> &[f64] {
        &self.margins
    }

    /// The largest bound of any pair.
    pub(crate) fn max_bound(&self) -> f64 {
        self.table
            .groups
            .iter()
            .map(|g| g.bound)
            .fold(0.0, f64::max)
    }
}

/// The largest `|L_v − L_w|` over `pairs` (`−∞` if none; NaN skews are
/// skipped). Four independent maxima keep the loop from waiting on one
/// `max` chain; `max` is exact, so the order does not change the result.
fn widest(pairs: &[(u32, u32)], clocks: &[f64]) -> f64 {
    let skew = |&(v, w): &(u32, u32)| (clocks[v as usize] - clocks[w as usize]).abs();
    let mut acc = [f64::NEG_INFINITY; 4];
    let mut quads = pairs.chunks_exact(4);
    for quad in &mut quads {
        for (a, p) in acc.iter_mut().zip(quad) {
            *a = a.max(skew(p));
        }
    }
    for p in quads.remainder() {
        acc[0] = acc[0].max(skew(p));
    }
    acc[0].max(acc[1]).max(acc[2].max(acc[3]))
}

/// A pair as (distance, index within that distance's group).
type PairAt = (usize, usize);

/// The pairs at one distance, with their binding level and bound.
#[derive(Debug, Clone)]
struct Group {
    level: u32,
    bound: f64,
    /// Every pair `(v, w)`, `v < w`, at this distance, in row-major order.
    pairs: Vec<(u32, u32)>,
}

/// Every unordered node pair, grouped by distance (`groups[d]`; distance
/// 0 holds none). One bound per group lets the full scan reduce each
/// group to its widest skew.
#[derive(Debug, Clone)]
struct PairTable {
    groups: Vec<Group>,
}

impl PairTable {
    /// Every pair, group by group.
    fn pairs(&self) -> impl Iterator<Item = PairAt> + '_ {
        self.groups
            .iter()
            .enumerate()
            .flat_map(|(d, g)| (0..g.pairs.len()).map(move |i| (d, i)))
    }

    /// Folds every group's worst margin into `margins` (the worst per
    /// level) and returns the first pair in row-major order below `−tol`.
    /// Since `bound − skew` falls as `skew` grows, a group's worst margin
    /// is `bound − (widest skew)`, bit for bit.
    fn scan(&self, clocks: &[f64], margins: &mut [f64], tol: f64) -> Option<PairAt> {
        let mut first = None;
        for (d, g) in self.groups.iter().enumerate() {
            let margin = g.bound - widest(&g.pairs, clocks);
            let worst = &mut margins[g.level as usize];
            if margin < *worst {
                *worst = margin;
            }
            if margin < -tol {
                let below = |&i: &usize| self.margin((d, i), clocks) < -tol;
                if let Some(i) = (0..g.pairs.len()).find(below) {
                    first = Some(self.earlier(first, (d, i)));
                }
            }
        }
        first
    }

    /// Of `a` and `b`, the pair that comes first in row-major order.
    fn earlier(&self, a: Option<PairAt>, b: PairAt) -> PairAt {
        let nodes = |(d, i): PairAt| self.groups[d].pairs[i];
        match a {
            Some(a) if nodes(a) < nodes(b) => a,
            _ => b,
        }
    }

    /// The pair's slack `bound − |L_v − L_w|`.
    fn margin(&self, (d, i): PairAt, clocks: &[f64]) -> f64 {
        let g = &self.groups[d];
        let (v, w) = g.pairs[i];
        g.bound - (clocks[v as usize] - clocks[w as usize]).abs()
    }

    fn violation(&self, t: f64, (d, i): PairAt, clocks: &[f64]) -> LegalStateViolation {
        let g = &self.groups[d];
        let (v, w) = g.pairs[i];
        let (v, w) = (v as usize, w as usize);
        let (ahead, behind) = if clocks[v] >= clocks[w] {
            (v, w)
        } else {
            (w, v)
        };
        LegalStateViolation {
            t,
            v: ahead,
            w: behind,
            distance: d as u32,
            level: g.level,
            skew: (clocks[v] - clocks[w]).abs(),
            bound: g.bound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_core::{AOpt, NoSync};
    use gcs_graph::topology;
    use gcs_sim::{ConstantDelay, UniformDelay};
    use gcs_time::DriftBounds;

    #[test]
    fn a_opt_stays_legal_under_adversity() {
        let params = Params::recommended(0.02, 0.2).unwrap();
        let g = topology::path(7);
        let drift = DriftBounds::new(0.02).unwrap();
        let schedules = gcs_sim::rates::split(7, drift, |v| v < 3);
        let mut checker = LegalStateChecker::new(&g, params);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(params); 7])
            .delay_model(UniformDelay::new(0.2, 13))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until_observed(150.0, |e| {
            assert!(
                checker.observe(e),
                "legal state violated: {:?}",
                checker.first_violation()
            );
        });
        // Margins were actually exercised (finite).
        assert!(checker.margins().iter().all(|m| m.is_finite()));
    }

    #[test]
    fn unsynchronized_clocks_eventually_violate() {
        // NoSync on a long path with max drift split: skew grows at 2ε/s
        // without bound and must break the neighbour-level constraint.
        let params = Params::recommended(0.02, 0.2).unwrap();
        let n = 7;
        let g = topology::path(n);
        let drift = DriftBounds::new(0.02).unwrap();
        let schedules = gcs_sim::rates::split(n, drift, |v| v < n / 2);
        let mut checker = LegalStateChecker::new(&g, params);
        let mut engine = Engine::builder(g)
            .protocols(vec![NoSync; n])
            .delay_model(ConstantDelay::new(0.0))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        let mut violated = false;
        engine.run_until_observed(3000.0, |e| {
            if !checker.observe(e) {
                violated = true;
            }
        });
        assert!(violated, "margins: {:?}", checker.margins());
        let v = checker.first_violation().unwrap();
        assert!(v.skew > v.bound);
    }

    #[test]
    fn a_pair_within_rounding_of_minus_tol_is_rechecked_at_the_next_call() {
        // A margin in [−tol, 0) so close to −tol that `Φ + margin + tol`
        // rounds back to Φ: the pair must come due at the next call, not
        // again at this one (which would loop), and not later either.
        let params = Params::recommended(0.02, 0.2).unwrap();
        let g = topology::path(2);
        let mut checker = LegalStateChecker::new(&g, params);
        let bound = checker.table.groups[1].bound;
        let tol = checker.tolerance;
        let mut ahead = bound + tol;
        while bound - ahead < -tol {
            ahead = ahead.next_down();
        }
        let margin = bound - ahead;
        assert!((-tol..0.0).contains(&margin));
        assert!(2.0 + margin + tol <= 2.0, "the case must hit the rounding");
        let mut oracle = checker.clone();
        for (potential, clocks) in [
            (1.0, [ahead, 0.0]),
            (2.0, [ahead, 0.0]),
            (2.0f64.next_up(), [ahead, 0.0]),
            (3.0, [ahead + 2.0 * tol, 0.0]),
        ] {
            let t = potential;
            assert_eq!(
                checker.observe_due(t, potential, &clocks),
                oracle.observe_clocks(t, &clocks),
                "at potential {potential}"
            );
        }
        assert_eq!(checker.first_violation(), oracle.first_violation());
        assert_eq!(checker.first_violation().unwrap().t, 3.0);
        assert!(checker.margins().iter().all(|m| m.is_infinite()));
    }

    #[test]
    fn grouped_scan_matches_a_row_major_scan_of_every_pair() {
        // The parent's scan, written out: every pair in row-major order,
        // the first one below −tol reported, the worst margin per level.
        let params = Params::recommended(0.02, 0.2).unwrap();
        let g = topology::grid(3, 4);
        let dist = g.all_pairs_distances();
        let mut seed = 7u64;
        for round in 0..50 {
            let clocks: Vec<f64> = (0..g.len())
                .map(|_| {
                    seed = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (seed >> 11) as f64 / (1u64 << 53) as f64 * round as f64
                })
                .collect();
            let mut scan = LegalStateChecker::new(&g, params);
            let mut due = scan.clone();
            let mut margins = vec![f64::INFINITY; scan.margins.len()];
            let mut first = None;
            for v in 0..g.len() {
                for w in v + 1..g.len() {
                    let group = &scan.table.groups[dist[v][w] as usize];
                    let margin = group.bound - (clocks[v] - clocks[w]).abs();
                    let worst = &mut margins[group.level as usize];
                    *worst = worst.min(margin);
                    if margin < -scan.tolerance && first.is_none() {
                        first = Some((v, w, dist[v][w]));
                    }
                }
            }
            let t = round as f64;
            assert_eq!(scan.observe_clocks(t, &clocks), first.is_none());
            assert_eq!(due.observe_due(t, 1.0, &clocks), first.is_none());
            assert_eq!(scan.margins(), &margins[..], "round {round}");
            let found = |c: &LegalStateChecker| {
                c.first_violation()
                    .map(|x| (x.v.min(x.w), x.v.max(x.w), x.distance))
            };
            assert_eq!(found(&scan), first, "round {round}");
            assert_eq!(scan.first_violation(), due.first_violation());
        }
    }

    #[test]
    fn binding_level_shrinks_with_distance() {
        // Closer pairs must carry higher (tighter-per-hop) levels.
        let params = Params::recommended(0.02, 0.2).unwrap();
        let g = topology::path(9);
        let checker = LegalStateChecker::new(&g, params);
        let level_of = |d: usize| checker.table.groups[d].level;
        assert!(level_of(1) >= level_of(8));
    }
}
