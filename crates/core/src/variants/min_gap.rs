//! Bounded minimum message frequency (paper Section 6.1).
//!
//! Plain `A^opt` guarantees a bounded *amortized* frequency, but a burst of
//! ever-larger `L^max` estimates can trigger up to `Θ(𝒢/H₀)` forwards in a
//! short window. The paper's fix: force at least `H₀` of local hardware
//! time between consecutive sends, and let estimates ride locally in the
//! meantime. The price is that information now travels up to `𝒪(D·H₀)`
//! slower, adding `Θ(ε·D·H₀)` to the global skew — a trade-off the paper
//! calls optimal up to constants (a pair at distance `D` deprived of
//! updates for `Θ(D·H₀)` time can always be driven `Θ(ε·D·H₀)` apart).

use crate::aopt::{plain_wire, AOptCore, Policy, Trigger};

/// The policy: [`Trigger::MinGap`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MinGap;

impl Policy for MinGap {
    plain_wire!();
    const TRIGGER: Trigger = Trigger::MinGap;
}

/// `A^opt` with a hard minimum gap of `H₀` local time between sends.
///
/// # Example
///
/// ```
/// use gcs_core::{MinGapAOpt, Params};
///
/// let p = Params::recommended(1e-2, 0.1)?;
/// let node = MinGapAOpt::new(p);
/// assert_eq!(node.sends(), 0);
/// # Ok::<(), gcs_core::ParamError>(())
/// ```
pub type MinGapAOpt = AOptCore<MinGap>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Params;
    use gcs_graph::{topology, NodeId};
    use gcs_sim::{ConstantDelay, DelayCtx, Delivery, Engine, FnDelay};
    use gcs_time::DriftBounds;

    fn params() -> Params {
        Params::recommended(0.02, 0.1).unwrap()
    }

    #[test]
    fn never_sends_faster_than_one_per_h0() {
        // Even under an estimate storm (zero delays, fast neighbour), the
        // per-node send count is hard-capped by elapsed-hw / H₀ (+1).
        let p = params();
        let n = 6;
        let g = topology::path(n);
        let drift = DriftBounds::new(0.02).unwrap();
        let schedules = gcs_sim::rates::split(n, drift, |v| v == 0);
        let delay = FnDelay::new(|_: &DelayCtx<'_>| Delivery::After(0.0), Some(0.0));
        let mut engine = Engine::builder(g)
            .protocols(vec![MinGapAOpt::new(p); n])
            .delay_model(delay)
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        let horizon = 100.0;
        engine.run_until(horizon);
        for v in 0..n {
            let hw = engine.hardware_value(NodeId(v));
            let cap = (hw / p.h0()).floor() as u64 + 2;
            let sends = engine.protocol(NodeId(v)).sends();
            assert!(sends <= cap, "node {v} sent {sends} times, hard cap {cap}");
        }
    }

    #[test]
    fn still_synchronizes_with_the_documented_penalty() {
        let p = params();
        let n = 8;
        let g = topology::path(n);
        let drift = DriftBounds::new(0.02).unwrap();
        let schedules = gcs_sim::rates::split(n, drift, |v| v < n / 2);
        let mut engine = Engine::builder(g)
            .protocols(vec![MinGapAOpt::new(p); n])
            .delay_model(ConstantDelay::new(0.05))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        let mut worst: f64 = 0.0;
        engine.run_until_observed(200.0, |e| {
            let clocks = e.logical_values();
            let max = clocks.iter().cloned().fold(f64::MIN, f64::max);
            let min = clocks.iter().cloned().fold(f64::MAX, f64::min);
            worst = worst.max(max - min);
        });
        let penalty = 2.0 * 0.02 * (n as f64) * p.h0();
        assert!(
            worst <= p.global_skew_bound((n - 1) as u32) + penalty + 1e-9,
            "worst {worst} beyond bound + εDH₀ penalty"
        );
    }

    #[test]
    fn deferred_forward_eventually_happens() {
        // Node 1 receives a large estimate right after sending; it must
        // forward it within H₀ local time.
        let p = params();
        let g = topology::path(3);
        let drift = DriftBounds::new(0.02).unwrap();
        let schedules = gcs_sim::rates::split(3, drift, |v| v == 0);
        let mut engine = Engine::builder(g)
            .protocols(vec![MinGapAOpt::new(p); 3])
            .delay_model(ConstantDelay::new(0.01))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(50.0);
        // Node 2 only learns about node 0's fast clock through node 1's
        // (possibly deferred) forwards; its estimate must stay fresh.
        let hw2 = engine.hardware_value(NodeId(2));
        let lmax2 = engine.protocol(NodeId(2)).lmax_value(hw2);
        let l0 = engine.logical_value(NodeId(0));
        assert!(
            l0 - lmax2 <= 3.0 * p.h0() + 1.0,
            "estimate stale: l0 = {l0}, node 2 lmax = {lmax2}"
        );
    }
}
