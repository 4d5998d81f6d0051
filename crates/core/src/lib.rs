//! The `A^opt` gradient clock-synchronization algorithm of Lenzen, Locher &
//! Wattenhofer, *Tight Bounds for Clock Synchronization* (PODC 2009 /
//! J. ACM 2010), together with its model variants and baseline algorithms.
//!
//! # The algorithm
//!
//! [`AOpt`] implements the paper's Algorithms 1–4 exactly: nodes broadcast
//! `⟨L_v, L_v^max⟩` whenever their maximum-clock estimate reaches a multiple
//! of `H₀`, immediately forward larger estimates, and switch their logical
//! clock between the hardware rate and `(1 + μ)` times the hardware rate
//! according to the integer-multiple-of-`κ` balancing rule of `setClockRate`
//! ([`rate_rule`]). [`Params`] validates the constraints (Eqs. 4–6) and
//! computes the proven bounds: global skew `𝒢 = (1+ε̂)D𝒯̂ + 2ε̂/(1+ε̂)H₀`
//! (Theorem 5.5) and local skew `κ(⌈log_σ(2𝒢/κ)⌉ + ½)` (Theorem 5.10).
//!
//! # One core, one policy per variant
//!
//! Every variant below is the same [`AOptCore`] with a different
//! [`Policy`]. The core owns the logical clock, `L_v^max`, the
//! neighbour-estimate table with its incremental `Λ↑`/`Λ↓` trackers,
//! broadcast and the send counter, `setClockRate` and the Algorithm 4 rate
//! timer. A policy supplies only its hooks: message encoding and decoding
//! ([`Policy::emit`], [`Policy::receive`], where received values may be
//! compensated), the send [`Trigger`] ([`Policy::TRIGGER`], and
//! [`Policy::send_due`] to skip a grid send), the `L_v^max` model (plain
//! offset, or damped with crossing timers: [`Policy::DAMPED`],
//! [`Policy::adopt`]), the effective `κ` ([`Policy::kappa`]), and jump vs.
//! rate boost ([`Policy::JUMP`]). The variant types are aliases of the
//! core (`AOptJump = AOptCore<Jump>`, …), so each keeps its name and
//! constructor.
//!
//! # Variants (paper Section 8 and remarks)
//!
//! * [`AOptJump`] — unbounded logical rates (`β = ∞`): the computed increase
//!   `R_v` is applied instantly (remark after Theorem 5.10). Policy
//!   [`Jump`]: [`Policy::JUMP`].
//! * [`ExternalAOpt`] — external synchronization against a real-time source
//!   node (Section 8.5). Policy [`External`]: a damped `L_v^max`, the
//!   periodic trigger, and a reference node that ignores what it receives.
//! * [`OffsetAOpt`] — delays bounded away from zero, `[𝒯₁, 𝒯₂]`
//!   (Section 8.3). Policy [`Offset`]: received values compensated by
//!   `(1 − ε̂)𝒯₁`, the periodic trigger.
//! * [`EnvelopeAOpt`] — the sharpened hardware-envelope condition
//!   `min_w H_w ≤ L_v ≤ max_w H_w` (Section 8.6). Policy [`Envelope`]: a
//!   damped `L_v^max` floored at `H_v`, the periodic trigger.
//! * [`MinGapAOpt`] — a hard minimum gap of `H₀` between sends, bounding
//!   the instantaneous (not just amortized) message frequency
//!   (Section 6.1). Policy [`MinGap`]: [`Trigger::MinGap`].
//! * [`DiscreteAOpt`] — discretized message encoding with `O(log 1/μ̂)` bit
//!   complexity (Section 6.2). Policy [`Discrete`]: the encoding, `κ`
//!   enlarged by two quanta, unguarded reconstructed estimates.
//! * [`PiggybackAOpt`] — sync fields riding on application traffic
//!   (Section 1). Policy [`Piggyback`]: the grid trigger skipped under
//!   application cover.
//! * [`AdaptiveAOpt`] — an unknown `𝒯`, estimated by probe/ack round trips
//!   and flooded (Section 8.1). Policy [`Adaptive`]: the message
//!   machinery, re-derived [`Params`], [`Trigger::Heartbeat`].
//! * [`AOpt::with_frozen_estimates`] — the estimate ablation. Policy
//!   [`Frozen`]: [`Policy::FROZEN`].
//! * [`rtt`] — round-trip-time estimation of an unknown `𝒯` (Section 8.1).
//!
//! # Baselines
//!
//! * [`MaxAlgorithm`] — Srikanth–Toueg-style maximum forwarding: optimal
//!   global skew, but `Θ(D)`-ish local skew under adversarial delays.
//! * [`MidpointAlgorithm`] — the "obvious" bounded-rate averaging strategy
//!   the paper warns about (Section 4.2): no sublinear gradient property.
//! * [`NoSync`] — hardware passthrough (control).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aopt;
mod baselines;
mod params;
pub mod rate_rule;
pub mod rtt;
mod variants;

pub use aopt::{AOpt, AOptCore, AOptMsg, Cause, Frozen, Jump, Plain, Policy, Trigger};
pub use baselines::{MaxAlgorithm, MaxMsg, MidpointAlgorithm, MidpointMsg, NoSync};
pub use params::{ParamError, Params};
pub use variants::{
    AOptJump, Adaptive, AdaptiveAOpt, AdaptiveMsg, Discrete, DiscreteAOpt, DiscreteMsg, Envelope,
    EnvelopeAOpt, External, ExternalAOpt, ExternalMsg, MinGap, MinGapAOpt, MsgKind, Offset,
    OffsetAOpt, Piggyback, PiggybackAOpt, PiggybackMsg,
};
