//! Discretized message encoding with `O(log 1/μ̂)` bit complexity
//! (paper Section 6.2).
//!
//! Instead of unbounded real clock values, nodes transmit per broadcast:
//!
//! * `dl` — the progress of their logical clock since the previous
//!   broadcast, rounded *down* to multiples of the quantum `q = μ·H₀` and
//!   capped at `⌈(1 + μ)/μ⌉` steps (the most the clock can gain in one `H₀`
//!   period), needing `O(log 1/μ)` bits;
//! * `dmax` — how many whole `H₀` units their announced maximum-clock
//!   estimate advanced, capped at `⌈(1 + ε̂)(1 + μ)/(1 − ε̂)⌉` units per
//!   broadcast, needing `O(1)` bits. A larger backlog is carried over to
//!   subsequent broadcasts — the paper's argument is that `L^max` itself
//!   grows at most at rate `1 + ε`, so a capped-but-persistent update stream
//!   never falls behind in the executions that matter for Theorem 5.5.
//!
//! Receivers reconstruct cumulative values (all clocks start at 0, and
//! links are reliable), so rounding errors never accumulate: the receiver's
//! estimate is the sender's true value rounded down by less than one
//! quantum. The quantization is absorbed by enlarging `κ` by two quanta.
//!
//! **FIFO requirement.** Differential encoding requires per-link in-order
//! delivery (in a real deployment the link layer provides this; sequence
//! numbers travel for free). Use FIFO-preserving delay models (e.g.
//! [`gcs_sim::ConstantDelay`]); out-of-order delivery panics.

use gcs_graph::NodeId;
use gcs_sim::Context;

use crate::aopt::{slot, AOptCore, Cause, Policy};
use crate::Params;

/// The quantized differential message of [`DiscreteAOpt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiscreteMsg {
    /// Logical-clock progress since the previous broadcast, in quanta
    /// `q = μ·H₀`.
    pub dl: u32,
    /// Announced maximum-estimate progress, in `H₀` units.
    pub dmax: u32,
    /// Broadcast sequence number (free in a FIFO link layer; not counted
    /// toward the bit complexity).
    pub seq: u64,
}

/// Per-neighbour reconstruction state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Reconstruction {
    /// Reconstructed cumulative logical value of the sender.
    cum_logical: f64,
    /// Reconstructed cumulative announced `H₀` units.
    cum_units: u64,
    /// Next expected sequence number.
    next_seq: u64,
}

/// The policy: the quantized encoding and `κ` enlarged by `2q = 2μH₀` to
/// absorb the quantization, per the paper's remark.
#[derive(Debug, Clone, Default)]
pub struct Discrete {
    /// `H₀` units already announced to neighbours.
    announced_units: u64,
    /// Cumulative logical value already conveyed to neighbours.
    sent_logical: f64,
    seq: u64,
    links: Vec<(NodeId, Reconstruction)>,
}

impl Policy for Discrete {
    type Msg = DiscreteMsg;
    // The reconstructed value is monotone, so it always refreshes the
    // estimate (it plays the role of both L_w and the ℓ_v^w guard).
    const GUARDED: bool = false;

    fn kappa(core: &AOptCore<Self>) -> f64 {
        core.params.kappa() + 2.0 * core.params.mu() * core.params.h0()
    }

    /// Encodes from the current `L_v^max` (the announced `lmax` is implied
    /// by the unit count).
    fn emit(core: &mut AOptCore<Self>, ctx: &mut Context<'_, Self::Msg>, _: f64, _: Cause) {
        let hw = ctx.hw();
        let q = core.quantum();
        let params = core.params;
        let logical = core.logical.value_at_hw(hw);
        let available_units = (core.lmax_value(hw) / params.h0() + 1e-9).floor().max(0.0) as u64;
        let p = &mut core.policy;
        let dl_raw = ((logical - p.sent_logical) / q).floor().max(0.0) as u32;
        let dl = dl_raw.min(DiscreteAOpt::dl_cap(&params));
        p.sent_logical += dl as f64 * q;

        let backlog = available_units.saturating_sub(p.announced_units);
        let dmax = backlog.min(DiscreteAOpt::dmax_cap(&params) as u64) as u32;
        p.announced_units += dmax as u64;

        let seq = p.seq;
        p.seq += 1;
        ctx.send_all(DiscreteMsg { dl, dmax, seq });
    }

    fn receive(
        core: &mut AOptCore<Self>,
        _: &mut Context<'_, Self::Msg>,
        from: NodeId,
        msg: DiscreteMsg,
    ) -> Option<(f64, f64)> {
        let q = core.quantum();
        let h0 = core.params.h0();
        let links = &mut core.policy.links;
        let i = slot(links, from, Reconstruction::default);
        let rec = &mut links[i].1;
        assert_eq!(
            msg.seq, rec.next_seq,
            "DiscreteAOpt requires FIFO links (got seq {} from {from}, expected {})",
            msg.seq, rec.next_seq
        );
        rec.next_seq += 1;
        rec.cum_logical += msg.dl as f64 * q;
        rec.cum_units += msg.dmax as u64;
        // A larger reconstructed L^max is forwarded immediately, as in base
        // A^opt — but the *encoded* increment per message stays capped; any
        // excess is carried to subsequent broadcasts (paper Section 6.2).
        Some((rec.cum_logical, rec.cum_units as f64 * h0))
    }
}

/// `A^opt` with the paper's low-bit-complexity message encoding.
///
/// # Example
///
/// ```
/// use gcs_core::{DiscreteAOpt, Params};
///
/// let p = Params::recommended(1e-3, 1.0)?;
/// // ~ log2(1/μ) + O(1) bits per message:
/// assert!(DiscreteAOpt::bits_per_message(&p) <= 10);
/// # Ok::<(), gcs_core::ParamError>(())
/// ```
pub type DiscreteAOpt = AOptCore<Discrete>;

impl DiscreteAOpt {
    /// The logical quantum `q = μ·H₀`.
    pub fn quantum(&self) -> f64 {
        self.params.mu() * self.params.h0()
    }

    /// Maximum `dl` steps per broadcast: `⌈(1 + μ)/μ⌉`.
    pub fn dl_cap(params: &Params) -> u32 {
        ((1.0 + params.mu()) / params.mu()).ceil() as u32
    }

    /// Maximum `dmax` units per broadcast:
    /// `⌈(1 + ε̂)(1 + μ)/(1 − ε̂)⌉`.
    pub fn dmax_cap(params: &Params) -> u32 {
        ((1.0 + params.epsilon_hat()) * (1.0 + params.mu()) / (1.0 - params.epsilon_hat())).ceil()
            as u32
    }

    /// Bits needed per message: `⌈log₂(dl_cap + 1)⌉ + ⌈log₂(dmax_cap + 1)⌉`.
    pub fn bits_per_message(params: &Params) -> u32 {
        let bits = |cap: u32| 32 - (cap + 1).leading_zeros();
        bits(Self::dl_cap(params)) + bits(Self::dmax_cap(params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_graph::topology;
    use gcs_sim::{ConstantDelay, Engine};
    use gcs_time::RateSchedule;

    fn params() -> Params {
        Params::recommended(0.01, 0.1).unwrap()
    }

    #[test]
    fn bit_complexity_is_logarithmic_in_one_over_mu() {
        // μ ≈ 14ε̂: halving ε̂ adds about one bit to the dl field.
        let coarse = Params::recommended(0.01, 1.0).unwrap();
        let fine = Params::recommended(0.0001, 1.0).unwrap();
        let b_coarse = DiscreteAOpt::bits_per_message(&coarse);
        let b_fine = DiscreteAOpt::bits_per_message(&fine);
        assert!(b_fine > b_coarse);
        assert!(b_fine <= b_coarse + 9, "growth must be logarithmic");
        assert!(b_coarse <= 8);
    }

    #[test]
    fn caps_match_formulas() {
        let p = params();
        assert_eq!(
            DiscreteAOpt::dl_cap(&p),
            ((1.0 + p.mu()) / p.mu()).ceil() as u32
        );
        assert!(DiscreteAOpt::dmax_cap(&p) >= 1);
    }

    #[test]
    fn synchronizes_with_quantized_messages() {
        let p = params();
        let n = 5;
        let g = topology::path(n);
        let schedules = vec![
            RateSchedule::constant(1.01).unwrap(),
            RateSchedule::constant(0.99).unwrap(),
            RateSchedule::constant(1.01).unwrap(),
            RateSchedule::constant(0.99).unwrap(),
            RateSchedule::constant(1.01).unwrap(),
        ];
        let mut engine = Engine::builder(g)
            .protocols(vec![DiscreteAOpt::new(p); n])
            .delay_model(ConstantDelay::new(0.05))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(300.0);
        let clocks = engine.logical_values();
        let spread = clocks.iter().cloned().fold(f64::MIN, f64::max)
            - clocks.iter().cloned().fold(f64::MAX, f64::min);
        // Periodic-only propagation costs O(εDH₀) extra global skew.
        let slack = 2.0 * 0.01 * (n as f64) * p.h0();
        assert!(
            spread <= p.global_skew_bound((n - 1) as u32) + slack + 1e-9,
            "spread {spread} too large"
        );
        assert!(spread < 1.0);
    }

    #[test]
    fn reconstruction_tracks_true_clock_within_quantum_plus_staleness() {
        let p = params();
        let g = topology::path(2);
        let mut engine = Engine::builder(g)
            .protocols(vec![DiscreteAOpt::new(p); 2])
            .delay_model(ConstantDelay::new(0.02))
            .build();
        engine.wake_all_at(0.0);
        let q = p.mu() * p.h0();
        engine.run_until_observed(100.0, |e| {
            let hw0 = e.hardware_value(NodeId(0));
            let node0 = e.protocol(NodeId(0));
            if let Some(est) = node0.neighbor_estimate(NodeId(1), hw0) {
                let actual = e.logical_value(NodeId(1));
                // Conservative: estimate never overtakes the truth…
                assert!(est <= actual + 1e-9);
                // …and is fresh to within delay + send period + quanta.
                let staleness_allowance = (1.0 + p.mu()) * (0.02 + p.h0() / 0.99) + 2.0 * q + 0.1;
                assert!(actual - est <= staleness_allowance);
            }
        });
    }

    #[test]
    #[should_panic(expected = "FIFO")]
    fn out_of_order_delivery_is_rejected() {
        // A delay model that reverses the order of the first two messages.
        use gcs_sim::{DelayCtx, Delivery, FnDelay};
        let mut count = 0;
        let delay = FnDelay::new(
            move |_: &DelayCtx<'_>| {
                count += 1;
                // First transmission slow, second fast: guaranteed reorder.
                if count == 1 {
                    Delivery::After(1.0)
                } else {
                    Delivery::After(0.0)
                }
            },
            Some(1.0),
        );
        let p = params();
        let g = topology::path(2);
        let mut engine = Engine::builder(g)
            .protocols(vec![DiscreteAOpt::new(p); 2])
            .delay_model(delay)
            .build();
        engine.wake(NodeId(0), 0.0);
        engine.run_until(5.0);
    }
}
