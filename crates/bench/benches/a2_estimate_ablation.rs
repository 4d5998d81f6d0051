//! A2 — ablation: Algorithm 2's estimate bookkeeping. `A^opt` advances its
//! neighbour estimates `L_v^w` at the hardware rate between messages, which
//! keeps estimate staleness at `𝒪(𝒯 + H̄₀)`; freezing the estimates at the
//! raw received values degrades staleness to `𝒪(𝒯 + H₀)` — visibly, once
//! `H₀ ≫ H̄₀`.

use gcs_analysis::{SkewObserver, Table};
use gcs_bench::banner;
use gcs_core::{AOpt, Params};
use gcs_graph::{topology, NodeId};
use gcs_sim::{rates, DirectionalDelay, Engine, Protocol};
use gcs_time::DriftBounds;

/// Worst local skew of `protocols` on a path with split drift and
/// directional worst-case delays.
fn worst_local<P: Protocol>(
    protocols: Vec<P>,
    drift: DriftBounds,
    t_max: f64,
    horizon: f64,
) -> f64 {
    let graph = topology::path(protocols.len());
    let d = graph.len() - 1;
    let dist = graph.distances_from(NodeId(0));
    let schedules = rates::split(graph.len(), drift, |v| dist[v] < (d / 2) as u32);
    let delay = DirectionalDelay::new(&graph, NodeId(0), 0.0, t_max);
    let mut observer = SkewObserver::new(&graph);
    let mut engine = Engine::builder(graph)
        .protocols(protocols)
        .delay_model(delay)
        .rate_schedules(schedules)
        .build();
    engine.wake_all_at(0.0);
    engine.run_until_observed(horizon, |e| observer.observe(e));
    observer.worst_local()
}

fn main() {
    banner(
        "A2",
        "ablation: freezing neighbour estimates between messages (Algorithm 2)",
    );
    let eps = 0.02;
    let t_max = 0.25;
    let d = 16usize;
    let drift = DriftBounds::new(eps).unwrap();
    println!("path D = {d}; sweep H₀ — frozen estimates go stale by H₀, advancing ones by H̄₀ = (2ε+μ)H₀\n");

    let mut table = Table::new(vec![
        "H₀/𝒯",
        "faithful local",
        "frozen local",
        "frozen − faithful",
        "local bound",
    ]);
    for h0_factor in [1.0f64, 4.0, 16.0, 64.0] {
        let mu = 14.0 * eps / (1.0 - eps);
        let params = Params::with_h0_mu(eps, t_max, h0_factor * t_max, mu).unwrap();
        let horizon = 100.0 + 20.0 * h0_factor;
        let faithful = worst_local(vec![AOpt::new(params); d + 1], drift, t_max, horizon);
        let frozen = worst_local(
            vec![AOpt::with_frozen_estimates(params); d + 1],
            drift,
            t_max,
            horizon,
        );
        let bound = params.local_skew_bound(d as u32);
        assert!(
            faithful <= bound + 1e-9,
            "faithful algorithm broke its bound"
        );
        table.row(vec![
            format!("{h0_factor}"),
            format!("{faithful:.4}"),
            format!("{frozen:.4}"),
            format!("{:.4}", frozen - faithful),
            format!("{bound:.4}"),
        ]);
    }
    println!("{table}");
    println!("an honest (nuanced) ablation: the measured gap is small, because");
    println!("setClockRate only runs at message arrival, when estimates are fresh");
    println!("either way. Advancing the estimates matters for the *analysis* —");
    println!("Lemma 5.1's idempotence, which lets the proof reason about the clock");
    println!("rate between messages, holds only with advancing estimates — and for");
    println!("any deployment that reads Λ↑/Λ↓ between messages. The worst-case");
    println!("κ accounting (Eq. 4 with H̄₀ rather than H₀) is proof-driven, not");
    println!("something a generic adversary exhibits.");
}
