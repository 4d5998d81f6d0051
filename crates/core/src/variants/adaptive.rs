//! Unknown delay bound: adaptive `𝒯̂` (paper Section 8.1).
//!
//! The paper argues that assuming `𝒯` completely unknown is no restriction:
//! nodes acknowledge messages, measure round-trip times on their hardware
//! clocks, convert them to an upper bound on real time by dividing by
//! `1 − ε̂`, and **flood the largest estimate through the system, adjusting
//! `κ` (and `H₀`) whenever it grows**. To keep the number of adjustments
//! logarithmic, estimates grow by doubling.
//!
//! This variant implements the full pipeline inside the synchronization
//! protocol itself: periodic broadcasts double as probes, receivers
//! acknowledge them immediately (the ack carries sync fields too, so it is
//! not wasted), and closed round trips update the estimate; the current
//! `𝒯̂` travels in every message — flooded values are adopted verbatim,
//! measured ones with doubling, keeping the network in lockstep while the
//! number of parameter changes stays logarithmic. Parameter changes (`κ`,
//! `H₀`) take effect immediately and monotonically
//! — underestimation is safe, as the paper notes, because "until the time
//! when larger delays actually occur, the skew bounds hold with respect to
//! the smaller delays and thus the smaller κ".

use gcs_graph::NodeId;
use gcs_sim::Context;

use crate::aopt::{slot, AOptCore, Cause, Policy, Trigger};
use crate::Params;

/// The role of an adaptive message in the round-trip measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// A periodic broadcast requesting an immediate acknowledgement.
    Probe {
        /// Per-link sequence number of this probe.
        seq: u64,
    },
    /// The immediate reply to a probe (closes the round trip; never
    /// answered itself).
    Ack {
        /// The probe sequence number being acknowledged.
        of: u64,
    },
    /// Any other sync message (e.g. an estimate forward); not probed.
    Plain,
}

/// A sync message with the adaptive machinery attached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveMsg {
    /// Sender's logical clock at send time.
    pub logical: f64,
    /// Sender's maximum-clock estimate at send time.
    pub lmax: f64,
    /// Sender's current delay-bound estimate `𝒯̂` (the flooded maximum).
    pub t_hat: f64,
    /// Probe/ack role of this message.
    pub kind: MsgKind,
}

/// Per-neighbour probe state.
#[derive(Debug, Clone, Default)]
struct Link {
    /// Last probe sequence number used toward this neighbour.
    next_seq: u64,
    /// `(seq, hw at send)` of recent unacknowledged probes.
    in_flight: Vec<(u64, f64)>,
}

/// The policy: probes, acks, a flooded `𝒯̂` and re-derived [`Params`].
#[derive(Debug, Clone)]
pub struct Adaptive {
    epsilon_hat: f64,
    links: Vec<(NodeId, Link)>,
    /// Number of times the parameters were re-derived.
    adaptations: u64,
}

impl Adaptive {
    /// A message with this node's sync fields at `hw`.
    fn msg(core: &AOptCore<Self>, hw: f64, lmax: f64, kind: MsgKind) -> AdaptiveMsg {
        let (logical, t_hat) = (core.logical.value_at_hw(hw), core.params.t_hat());
        AdaptiveMsg {
            logical,
            lmax,
            t_hat,
            kind,
        }
    }

    fn link(&mut self, w: NodeId) -> &mut Link {
        let i = slot(&mut self.links, w, Link::default);
        &mut self.links[i].1
    }

    /// Re-derives the parameters for a larger delay estimate.
    fn rederive(core: &mut AOptCore<Self>, new_t: f64) {
        core.params = Params::recommended(core.policy.epsilon_hat, new_t)
            .expect("adapted parameters remain valid");
        core.policy.adaptations += 1;
    }
}

impl Policy for Adaptive {
    type Msg = AdaptiveMsg;
    const TRIGGER: Trigger = Trigger::Heartbeat;

    fn emit(core: &mut AOptCore<Self>, ctx: &mut Context<'_, Self::Msg>, lmax: f64, cause: Cause) {
        let hw = ctx.hw();
        if cause == Cause::Forward {
            // Estimate forwards are plain: probing them would storm acks.
            ctx.send_all(Self::msg(core, hw, lmax, MsgKind::Plain));
            return;
        }
        // Per-neighbour probes (each carries that link's seq).
        for i in 0..ctx.neighbors().len() {
            let w = ctx.neighbors()[i];
            let link = core.policy.link(w);
            link.next_seq += 1;
            let seq = link.next_seq;
            link.in_flight.push((seq, hw));
            // Keep the in-flight window small; dropping stale unanswered
            // probes is safe (closing them could only grow the estimate,
            // and later probes will measure the same links again).
            if link.in_flight.len() > 32 {
                link.in_flight.remove(0);
            }
            ctx.send(w, Self::msg(core, hw, lmax, MsgKind::Probe { seq }));
        }
    }

    fn receive(
        core: &mut AOptCore<Self>,
        ctx: &mut Context<'_, Self::Msg>,
        from: NodeId,
        msg: AdaptiveMsg,
    ) -> Option<(f64, f64)> {
        let hw = ctx.hw();
        // Adopt a *flooded* estimate verbatim: another node already holds
        // this value, so matching it exactly converges the network.
        if msg.t_hat > core.params.t_hat() {
            Self::rederive(core, msg.t_hat);
        }
        match msg.kind {
            MsgKind::Probe { seq } => {
                // Acknowledge immediately; the ack carries our sync fields
                // too (they are nearly free) but is never answered itself.
                let ack = Self::msg(core, hw, core.lmax_value(hw), MsgKind::Ack { of: seq });
                ctx.send(from, ack);
            }
            MsgKind::Ack { of } => {
                let link = core.policy.link(from);
                if let Some(pos) = link.in_flight.iter().position(|&(s, _)| s == of) {
                    let (_, sent_hw) = link.in_flight[pos];
                    link.in_flight.drain(..=pos);
                    // A single delay is at most the round trip containing it.
                    let rtt_upper = (hw - sent_hw) / (1.0 - core.policy.epsilon_hat);
                    // Adopt a *measured* round trip, growing at least by
                    // doubling so the number of parameter changes stays
                    // logarithmic in 𝒯/𝒯̂₀.
                    if rtt_upper > core.params.t_hat() {
                        Self::rederive(core, rtt_upper.max(2.0 * core.params.t_hat()));
                    }
                }
            }
            MsgKind::Plain => {}
        }
        Some((msg.logical, msg.lmax))
    }
}

/// `A^opt` with a fully adaptive delay bound (Section 8.1).
///
/// # Example
///
/// ```
/// use gcs_core::AdaptiveAOpt;
///
/// // Start with a wild underestimate of the delay bound.
/// let node = AdaptiveAOpt::new(1e-2, 0.001);
/// assert_eq!(node.t_hat(), 0.001);
/// ```
pub type AdaptiveAOpt = AOptCore<Adaptive>;

impl AdaptiveAOpt {
    /// Creates a node with drift bound `epsilon_hat` and an *initial* delay
    /// estimate `t_hat_initial` (any positive value; it will grow to fit).
    ///
    /// # Panics
    ///
    /// Panics if the initial parameters are invalid.
    pub fn new(epsilon_hat: f64, t_hat_initial: f64) -> Self {
        let params =
            Params::recommended(epsilon_hat, t_hat_initial).expect("invalid initial parameters");
        let policy = Adaptive {
            epsilon_hat,
            links: Vec::new(),
            adaptations: 0,
        };
        AOptCore::with_policy(params, policy)
    }

    /// The current delay-bound estimate `𝒯̂`.
    pub fn t_hat(&self) -> f64 {
        self.params.t_hat()
    }

    /// How many times this node re-derived its parameters.
    pub fn adaptations(&self) -> u64 {
        self.policy.adaptations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_graph::topology;
    use gcs_sim::{rates, Engine, UniformDelay};
    use gcs_time::DriftBounds;

    #[test]
    fn t_hat_converges_to_an_o_t_upper_bound() {
        let eps = 0.02;
        let t_true = 0.4;
        let n = 5;
        let g = topology::path(n);
        let mut engine = Engine::builder(g)
            .protocols(vec![AdaptiveAOpt::new(eps, 0.001); n])
            .delay_model(UniformDelay::new(t_true, 9))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(120.0);
        for v in 0..n {
            let t_hat = engine.protocol(NodeId(v)).t_hat();
            // Upper bound on 2𝒯 after hardware-rate conversion, possibly
            // doubled once more by the doubling rule.
            assert!(
                t_hat <= 4.2 * t_true / (1.0 - eps),
                "node {v}: 𝒯̂ = {t_hat} overshoots O(𝒯)"
            );
            // Large enough to have seen real round trips.
            assert!(t_hat >= 0.05, "node {v}: 𝒯̂ = {t_hat} still tiny");
        }
    }

    #[test]
    fn adaptation_count_is_logarithmic() {
        // Doubling: from 0.001 to ~1.6, at most ~12 adaptations.
        let eps = 0.02;
        let n = 4;
        let g = topology::cycle(n);
        let mut engine = Engine::builder(g)
            .protocols(vec![AdaptiveAOpt::new(eps, 0.001); n])
            .delay_model(UniformDelay::new(0.4, 4))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(150.0);
        for v in 0..n {
            let a = engine.protocol(NodeId(v)).adaptations();
            assert!(a >= 1, "node {v} never adapted");
            assert!(a <= 14, "node {v} adapted {a} times — not logarithmic");
        }
    }

    #[test]
    fn estimates_converge_across_the_network() {
        // The flooded maximum makes all nodes agree (within one doubling).
        let eps = 0.02;
        let n = 6;
        let g = topology::path(n);
        let mut engine = Engine::builder(g)
            .protocols(vec![AdaptiveAOpt::new(eps, 0.01); n])
            .delay_model(UniformDelay::new(0.3, 5))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(200.0);
        let t_hats: Vec<f64> = (0..n).map(|v| engine.protocol(NodeId(v)).t_hat()).collect();
        let max = t_hats.iter().cloned().fold(f64::MIN, f64::max);
        let min = t_hats.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min <= 2.0 + 1e-9, "estimates diverged: {t_hats:?}");
    }

    #[test]
    fn synchronizes_after_convergence() {
        let eps = 0.02;
        let t_true = 0.25;
        let n = 6;
        let g = topology::path(n);
        let drift = DriftBounds::new(eps).unwrap();
        let schedules = rates::split(n, drift, |v| v < n / 2);
        let mut engine = Engine::builder(g)
            .protocols(vec![AdaptiveAOpt::new(eps, 0.001); n])
            .delay_model(UniformDelay::new(t_true, 6))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        // Let the estimate converge, then measure skews against the bounds
        // of the *converged* parameters.
        engine.run_until(150.0);
        let converged = *engine.protocol(NodeId(0)).params();
        let mut worst: f64 = 0.0;
        engine.run_until_observed(400.0, |e| {
            let clocks = e.logical_values();
            let max = clocks.iter().cloned().fold(f64::MIN, f64::max);
            let min = clocks.iter().cloned().fold(f64::MAX, f64::min);
            worst = worst.max(max - min);
        });
        assert!(
            worst <= converged.global_skew_bound((n - 1) as u32) + 1e-9,
            "worst {worst} beyond converged bound"
        );
    }
}
