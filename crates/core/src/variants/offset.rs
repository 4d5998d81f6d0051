//! Lower-bounded delays `[𝒯₁, 𝒯₂]` (paper Section 8.3).
//!
//! When every delay is known to be at least `𝒯₁`, a received clock value is
//! at least `(1 − ε)·𝒯₁` stale, so the receiver may add `(1 − ε̂)·𝒯₁` to
//! everything it receives and only the *uncertainty* `𝒯₂ − 𝒯₁` remains in
//! the skew bounds. Because adjusted estimates no longer sit on the `H₀`
//! grid, this variant sends purely periodically (every `H₀` of hardware
//! time), as the paper suggests; strictly larger maximum estimates are still
//! flooded immediately.

use gcs_graph::NodeId;
use gcs_sim::Context;

use crate::aopt::{AOptCore, Cause, Policy, Trigger};
use crate::{AOptMsg, Params};

/// The policy: received values compensated, sent periodically.
#[derive(Debug, Clone, Copy)]
pub struct Offset {
    t1: f64,
}

impl Policy for Offset {
    type Msg = AOptMsg;
    const TRIGGER: Trigger = Trigger::Periodic;

    fn emit(core: &mut AOptCore<Self>, ctx: &mut Context<'_, Self::Msg>, lmax: f64, _: Cause) {
        let logical = core.logical.value_at_hw(ctx.hw());
        ctx.send_all(AOptMsg { logical, lmax });
    }

    fn receive(
        core: &mut AOptCore<Self>,
        _: &mut Context<'_, Self::Msg>,
        _: NodeId,
        msg: AOptMsg,
    ) -> Option<(f64, f64)> {
        let c = core.compensation();
        Some((msg.logical + c, msg.lmax + c))
    }
}

/// `A^opt` adapted for delays in `[𝒯₁, 𝒯₂]`.
///
/// Construct `params` with `𝒯̂ ≥ 𝒯₂ − 𝒯₁`: only the uncertainty enters
/// Eq. (4); the common part `𝒯₁` is compensated by the receive-side offset.
///
/// # Example
///
/// ```
/// use gcs_core::{OffsetAOpt, Params};
///
/// // Link delay 1.0 ± 0.05: uncertainty 0.1, known floor 0.9.
/// let p = Params::recommended(1e-3, 0.1)?;
/// let node = OffsetAOpt::new(p, 0.9);
/// assert_eq!(node.t1(), 0.9);
/// # Ok::<(), gcs_core::ParamError>(())
/// ```
pub type OffsetAOpt = AOptCore<Offset>;

impl OffsetAOpt {
    /// Creates a node that assumes every delay is at least `t1`.
    ///
    /// # Panics
    ///
    /// Panics if `t1` is negative or non-finite.
    pub fn new(params: Params, t1: f64) -> Self {
        assert!(t1.is_finite() && t1 >= 0.0, "invalid delay floor {t1}");
        AOptCore::with_policy(params, Offset { t1 })
    }

    /// The known delay floor `𝒯₁`.
    pub fn t1(&self) -> f64 {
        self.policy.t1
    }

    /// The receive-side compensation `(1 − ε̂)·𝒯₁` added to received values.
    pub fn compensation(&self) -> f64 {
        (1.0 - self.params.epsilon_hat()) * self.policy.t1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_graph::topology;
    use gcs_sim::{DelayCtx, Delivery, Engine, FnDelay};
    use gcs_time::RateSchedule;
    use rand::{Rng, SeedableRng};

    /// Delays uniform in [t1, t2].
    fn banded_delay(
        t1: f64,
        t2: f64,
        seed: u64,
    ) -> FnDelay<impl FnMut(&DelayCtx<'_>) -> Delivery + Clone> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        FnDelay::new(
            move |_: &DelayCtx<'_>| Delivery::After(rng.gen_range(t1..=t2)),
            Some(t2),
        )
    }

    #[test]
    fn compensation_removes_the_floor() {
        // Delays in [1.0, 1.1]: uncertainty only 0.1. The offset variant
        // must synchronize about as tightly as plain A^opt would with
        // 𝒯 = 0.1, far tighter than D·𝒯₂.
        let t1 = 1.0;
        let p = Params::recommended(0.001, 0.1).unwrap();
        let n = 5;
        let g = topology::path(n);
        let schedules = vec![
            RateSchedule::constant(1.001).unwrap(),
            RateSchedule::constant(0.999).unwrap(),
            RateSchedule::constant(1.001).unwrap(),
            RateSchedule::constant(0.999).unwrap(),
            RateSchedule::constant(1.001).unwrap(),
        ];
        let mut engine = Engine::builder(g)
            .protocols(vec![OffsetAOpt::new(p, t1); n])
            .delay_model(banded_delay(t1, 1.1, 5))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(400.0);
        let clocks = engine.logical_values();
        let spread = clocks.iter().cloned().fold(f64::MIN, f64::max)
            - clocks.iter().cloned().fold(f64::MAX, f64::min);
        // Without compensation the estimates would lag by ≥ (n−1)·𝒯₁ ≈ 4;
        // with it the spread reflects only the 0.1 uncertainty (plus H₀
        // staleness terms).
        assert!(spread < 1.0, "spread {spread} suggests 𝒯₁ not compensated");
    }

    #[test]
    fn estimates_remain_conservative() {
        // The adjusted estimate must never exceed the neighbour's true
        // clock: L_v^w ≤ L_w(t) (the paper's safety direction).
        let t1 = 0.5;
        let p = Params::recommended(0.01, 0.2).unwrap();
        let g = topology::path(2);
        let mut engine = Engine::builder(g)
            .protocols(vec![OffsetAOpt::new(p, t1); 2])
            .delay_model(banded_delay(t1, 0.7, 8))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until_observed(100.0, |e| {
            for (v, w) in [(0usize, 1usize), (1, 0)] {
                let hw = e.hardware_value(NodeId(v));
                let node = e.protocol(NodeId(v));
                if let Some(est) = node.neighbor_estimate(NodeId(w), hw) {
                    let actual = e.logical_value(NodeId(w));
                    assert!(
                        est <= actual + 1e-9,
                        "estimate {est} overtook actual {actual}"
                    );
                }
            }
        });
    }

    #[test]
    fn zero_floor_degenerates_to_periodic_a_opt() {
        let p = Params::recommended(0.01, 0.1).unwrap();
        let g = topology::path(3);
        let mut engine = Engine::builder(g)
            .protocols(vec![OffsetAOpt::new(p, 0.0); 3])
            .delay_model(gcs_sim::ConstantDelay::new(0.05))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(100.0);
        let clocks = engine.logical_values();
        let spread = clocks.iter().cloned().fold(f64::MIN, f64::max)
            - clocks.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread <= p.global_skew_bound(2) + 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid delay floor")]
    fn rejects_negative_floor() {
        let p = Params::recommended(0.01, 0.1).unwrap();
        let _ = OffsetAOpt::new(p, -1.0);
    }
}
