//! The hardware-envelope condition (paper Section 8.6).
//!
//! Condition (1) bounds logical clocks by an *affine* envelope of real
//! time. Section 8.6 sharpens it: every logical clock must stay between the
//! smallest and the largest **hardware** clock value in the system,
//!
//! ```text
//! min_w H_w(t) ≤ L_v(t) ≤ max_w H_w(t).
//! ```
//!
//! The adaptation: whenever a node's maximum-clock estimate `L_v^max`
//! exceeds its own hardware clock, the estimate is advanced at the damped
//! rate `(1 − ε̂)h_v/(1 + ε̂) ≤ 1 − ε̂` — at most the growth rate of
//! `max_w H_w` — and `L_v` is still never raised past `L_v^max`. When the
//! estimate rides `H_v` itself (the node *is* the maximum), it advances at
//! the full hardware rate. The lower side is automatic: the logical rate
//! multiplier never drops below 1 except while riding the (larger)
//! estimate, so `L_v ≥ H_v ≥ min_w H_w`.

use gcs_sim::{Context, TimerId};

use crate::aopt::{plain_wire, AOptCore, Lmax, Policy, Trigger, CROSS_TIMER};
use crate::AOptMsg;

/// The policy: a damped `L_v^max` floored at `H_v`, sent periodically.
#[derive(Debug, Clone, Copy, Default)]
pub struct Envelope;

impl Policy for Envelope {
    plain_wire!();
    const TRIGGER: Trigger = Trigger::Periodic;
    const DAMPED: bool = true;

    fn adopt(core: &mut AOptCore<Self>, ctx: &mut Context<'_, Self::Msg>, lmax: f64) {
        core.lmax = Lmax::new(lmax, ctx.hw(), 1.0);
        retune_lmax(core, ctx);
    }

    fn on_timer(core: &mut AOptCore<Self>, ctx: &mut Context<'_, Self::Msg>, timer: TimerId) {
        assert_eq!(timer, EnvelopeAOpt::MAX_CROSS_TIMER, "unknown timer slot");
        // H_v caught the damped estimate: L^max rides H_v again.
        retune_lmax(core, ctx);
        // If L was riding L^max, it must pick up the new scale.
        let hw = ctx.hw();
        let headroom = core.lmax_value(hw) - core.logical.value_at_hw(hw);
        if headroom <= 1e-12 {
            core.logical.set_multiplier(hw, core.lmax.scale);
        }
    }
}

/// Chooses the estimate's growth scale for its current position relative
/// to `H_v`, re-anchoring it and arming the `L^max = H` crossing timer when
/// the damped estimate will be caught by the hardware clock.
fn retune_lmax(core: &mut AOptCore<Envelope>, ctx: &mut Context<'_, AOptMsg>) {
    let hw = ctx.hw();
    let value = core.lmax_value(hw).max(hw); // L^max ≥ H_v invariant
    let above = value > hw + 1e-12;
    let eps = core.params.epsilon_hat();
    let scale = if above {
        (1.0 - eps) / (1.0 + eps)
    } else {
        1.0
    };
    core.lmax = Lmax::new(value, hw, scale);
    if above {
        // H grows at rate 1·h, the estimate at scale·h < h: they meet at
        // hw* with value + (hw* − hw)·scale = hw*.
        let cross = (value - hw * scale) / (1.0 - scale);
        ctx.set_timer(EnvelopeAOpt::MAX_CROSS_TIMER, cross);
    } else {
        ctx.cancel_timer(EnvelopeAOpt::MAX_CROSS_TIMER);
    }
}

/// `A^opt` under the sharpened hardware-envelope condition of Section 8.6.
///
/// # Example
///
/// ```
/// use gcs_core::{EnvelopeAOpt, Params};
/// use gcs_graph::topology;
/// use gcs_sim::{ConstantDelay, Engine};
///
/// let p = Params::recommended(1e-2, 0.1)?;
/// let mut engine = Engine::builder(topology::path(3))
///     .protocols(vec![EnvelopeAOpt::new(p); 3])
///     .delay_model(ConstantDelay::new(0.05))
///     .build();
/// engine.wake_all_at(0.0);
/// engine.run_until(20.0);
/// // All clocks between the extreme hardware values (here all rates are 1,
/// // so everything sits at 20).
/// for v in 0..3 {
///     let l = engine.logical_value(gcs_graph::NodeId(v));
///     assert!((l - 20.0).abs() < 1e-9);
/// }
/// # Ok::<(), gcs_core::ParamError>(())
/// ```
pub type EnvelopeAOpt = AOptCore<Envelope>;

impl EnvelopeAOpt {
    /// Timer slot for the `L_v = L_v^max` crossing.
    pub const CROSS_TIMER: TimerId = CROSS_TIMER;
    /// Timer slot for the `L_v^max = H_v` crossing (switch the estimate
    /// back to the full hardware rate).
    pub const MAX_CROSS_TIMER: TimerId = TimerId(3);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Params;
    use gcs_graph::{topology, NodeId};
    use gcs_sim::{Engine, UniformDelay};
    use gcs_time::DriftBounds;

    /// Checks the §8.6 invariant min_w H_w ≤ L_v ≤ max_w H_w over a run.
    fn check_envelope(n: usize, seed: u64, horizon: f64) {
        let eps = 0.02;
        let params = Params::recommended(eps, 0.1).unwrap();
        let drift = DriftBounds::new(eps).unwrap();
        let g = topology::path(n);
        let schedules = gcs_sim::rates::random_walk(n, drift, 4.0, horizon, seed);
        let mut engine = Engine::builder(g)
            .protocols(vec![EnvelopeAOpt::new(params); n])
            .delay_model(UniformDelay::new(0.1, seed))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until_observed(horizon, |e| {
            let hws: Vec<f64> = (0..n).map(|v| e.hardware_value(NodeId(v))).collect();
            let h_min = hws.iter().cloned().fold(f64::MAX, f64::min);
            let h_max = hws.iter().cloned().fold(f64::MIN, f64::max);
            for v in 0..n {
                let l = e.logical_value(NodeId(v));
                assert!(
                    l >= h_min - 1e-9,
                    "node {v}: L = {l} below min H = {h_min} at t = {}",
                    e.now()
                );
                assert!(
                    l <= h_max + 1e-9,
                    "node {v}: L = {l} above max H = {h_max} at t = {}",
                    e.now()
                );
            }
        });
    }

    #[test]
    fn clocks_stay_within_hardware_envelope() {
        check_envelope(5, 3, 120.0);
        check_envelope(4, 11, 120.0);
    }

    #[test]
    fn still_synchronizes() {
        let eps = 0.02;
        let params = Params::recommended(eps, 0.1).unwrap();
        let drift = DriftBounds::new(eps).unwrap();
        let n = 6;
        let g = topology::path(n);
        let schedules = gcs_sim::rates::split(n, drift, |v| v < n / 2);
        let mut engine = Engine::builder(g)
            .protocols(vec![EnvelopeAOpt::new(params); n])
            .delay_model(UniformDelay::new(0.1, 5))
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
        // Rate changes are damped by only 1 − 𝒪(ε̂), so the usual bounds
        // hold up to a constant; check against the standard 𝒢 plus slack.
        let slack = 2.0 * eps * 200.0 * 0.1;
        assert!(
            worst <= params.global_skew_bound((n - 1) as u32) + slack,
            "worst skew {worst}"
        );
        assert!(worst > 0.0);
    }

    #[test]
    fn lmax_never_below_own_hardware_clock() {
        let params = Params::recommended(0.02, 0.1).unwrap();
        let n = 4;
        let g = topology::path(n);
        let drift = DriftBounds::new(0.02).unwrap();
        let schedules = gcs_sim::rates::alternating(n, drift, 7.0, 100.0);
        let mut engine = Engine::builder(g)
            .protocols(vec![EnvelopeAOpt::new(params); n])
            .delay_model(UniformDelay::new(0.1, 9))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until_observed(100.0, |e| {
            for v in 0..n {
                let hw = e.hardware_value(NodeId(v));
                let lmax = e.protocol(NodeId(v)).lmax_value(hw);
                assert!(lmax >= hw - 1e-9, "L^max {lmax} fell below H {hw}");
            }
        });
    }
}
