//! The `A^opt` algorithm (paper Section 4, Algorithms 1–4) and the one
//! core every variant runs on.
//!
//! Every node maintains:
//!
//! * its logical clock `L_v`, run at `ρ_v · h_v` with `ρ_v ∈ {1, 1 + μ}`,
//! * `L_v^max` — its estimate of the largest clock value in the system,
//!   advanced at the hardware rate between updates (represented here as a
//!   constant offset from `H_v`),
//! * per heard-from neighbour `w`: the estimate `L_v^w` (also advanced at
//!   the hardware rate; a constant offset from `H_v`) and `ℓ_v^w`, the
//!   largest raw clock value received from `w` (static between messages).
//!
//! Events:
//!
//! * **Algorithm 1** — when `L_v^max` reaches an integer multiple of `H₀`,
//!   broadcast `⟨L_v, L_v^max⟩` (timer slot [`AOptCore::SEND_TIMER`]).
//! * **Algorithm 2** — on receiving `⟨L_w, L_w^max⟩`: adopt and immediately
//!   forward a strictly larger `L_w^max`; adopt a larger `L_w` into
//!   `L_v^w`/`ℓ_v^w`; recompute `Λ↑`, `Λ↓`; call `setClockRate`.
//! * **Algorithm 3** — `setClockRate` (see [`crate::rate_rule`]) decides the
//!   multiplier and, if `R_v > 0`, the hardware value `H_v^R = H_v + R_v/μ`
//!   at which to fall back to the nominal rate.
//! * **Algorithm 4** — when `H_v` reaches `H_v^R`, reset `ρ_v := 1` (timer
//!   slot [`AOptCore::RATE_TIMER`]).
//!
//! Initialization follows the paper's scheme: a node waking spontaneously
//! sends `⟨0, 0⟩`; a node initialized by its first received message starts
//! its clocks at 0 and processes that message (forwarding a larger estimate
//! immediately). Until a first message from a neighbour arrives, the node is
//! oblivious to that neighbour.
//!
//! [`AOptCore`] implements all of this once; a variant differs only in its
//! [`Policy`] (see the crate docs). [`AOpt`] is the core with [`Plain`].

use std::fmt::Debug;

use gcs_graph::NodeId;
use gcs_sim::{Context, Protocol, TimerId};
use gcs_time::LogicalClock;

use crate::rate_rule::clamped_increase;
use crate::Params;

/// Sentinel for "no tracked entry" in the incremental Λ fold caches.
const NO_ENTRY: u32 = u32::MAX;

/// Timer slot of the `L_v = L_v^max` crossing under a damped `L_v^max`.
pub(crate) const CROSS_TIMER: TimerId = TimerId(2);

/// The synchronization message `⟨L_v, L_v^max⟩`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AOptMsg {
    /// The sender's logical clock value at send time.
    pub logical: f64,
    /// The sender's maximum-clock estimate at send time (an integer multiple
    /// of `H₀`).
    pub lmax: f64,
}

/// When a variant broadcasts, besides `⟨0, 0⟩` at start and forwarding a
/// strictly larger received `L^max`. DESIGN.md maps each variant to its
/// trigger and the paper section behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Algorithm 1: when `L_v^max` reaches the next multiple of `H₀`,
    /// broadcast that multiple; a forward announces the received value and
    /// re-arms for the next multiple.
    Grid,
    /// Every `H₀` of hardware time; forwards leave the timer be.
    Periodic,
    /// `H₀` after the node's last broadcast of any kind.
    Heartbeat,
    /// Section 6.1: as [`Trigger::Heartbeat`], but a forward less than `H₀`
    /// after the last broadcast waits for the heartbeat.
    MinGap,
}

/// Why the core broadcasts (passed to [`Policy::emit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// The start broadcast or the send trigger.
    Trigger,
    /// A strictly larger received `L^max` is forwarded.
    Forward,
    /// Application traffic carrying the sync fields (piggybacking).
    App,
}

/// What one variant changes about Algorithms 1–4.
///
/// Hooks are associated functions on the whole [`AOptCore`]; the defaults
/// are the plain algorithm's. Only the wire format has none. The core's
/// fields are crate-private, so the policies are this crate's variants.
pub trait Policy: Clone + Debug + Sized {
    /// The message type on the wire.
    type Msg: Clone + Debug;
    /// The send trigger.
    const TRIGGER: Trigger = Trigger::Grid;
    /// Apply a positive `R_v` as an instantaneous jump (`β = ∞`) instead of
    /// a rate boost, leaving the rate timer alone.
    const JUMP: bool = false;
    /// Keep neighbour estimates at the raw received `ℓ_v^w` instead of
    /// advancing them at the hardware rate (an ablation).
    const FROZEN: bool = false;
    /// Update `L_v^w` only from a value larger than `ℓ_v^w` (Algorithm 2,
    /// line 5); off when received values are monotone by construction.
    const GUARDED: bool = true;
    /// `L_v^max` is damped (Sections 8.5 and 8.6): `L_v` rides it at its
    /// scale instead of overtaking it, armed by a crossing timer.
    const DAMPED: bool = false;

    /// Sends one (already counted) broadcast announcing `lmax`.
    fn emit(core: &mut AOptCore<Self>, ctx: &mut Context<'_, Self::Msg>, lmax: f64, cause: Cause);

    /// Decodes a message into the `(L_w, L_w^max)` to act on (compensated
    /// if the policy says so), or `None` to ignore it.
    fn receive(
        core: &mut AOptCore<Self>,
        ctx: &mut Context<'_, Self::Msg>,
        from: NodeId,
        msg: Self::Msg,
    ) -> Option<(f64, f64)>;

    /// The `κ` of `setClockRate`.
    fn kappa(core: &AOptCore<Self>) -> f64 {
        core.params.kappa()
    }

    /// Adopts a strictly larger received `L^max`, before forwarding it.
    fn adopt(core: &mut AOptCore<Self>, ctx: &mut Context<'_, Self::Msg>, lmax: f64) {
        core.lmax = Lmax::new(lmax - ctx.hw(), 0.0, 1.0);
    }

    /// Whether a [`Trigger::Grid`] send or forward goes out (the timer is
    /// re-armed either way).
    fn send_due(_core: &AOptCore<Self>, _hw: f64, _lmax: f64, _cause: Cause) -> bool {
        true
    }

    /// Runs at the end of start, after `L_v^max = 0` is set, the start
    /// broadcast sent and the send trigger armed.
    fn started(_core: &mut AOptCore<Self>, _ctx: &mut Context<'_, Self::Msg>) {}

    /// Handles timer slots other than the send and rate timers.
    fn on_timer(_core: &mut AOptCore<Self>, _ctx: &mut Context<'_, Self::Msg>, timer: TimerId) {
        unreachable!("unknown timer slot {timer:?}")
    }
}

/// The plain `⟨L_v, L_v^max⟩` wire ([`AOptMsg`]) inside a `Policy` impl.
macro_rules! plain_wire {
    () => {
        type Msg = $crate::AOptMsg;

        fn emit(
            core: &mut $crate::AOptCore<Self>,
            ctx: &mut ::gcs_sim::Context<'_, $crate::AOptMsg>,
            lmax: f64,
            _: $crate::Cause,
        ) {
            let logical = core.logical.value_at_hw(ctx.hw());
            ctx.send_all($crate::AOptMsg { logical, lmax });
        }

        fn receive(
            _: &mut $crate::AOptCore<Self>,
            _: &mut ::gcs_sim::Context<'_, $crate::AOptMsg>,
            _: ::gcs_graph::NodeId,
            msg: $crate::AOptMsg,
        ) -> Option<(f64, f64)> {
            Some((msg.logical, msg.lmax))
        }
    };
}
pub(crate) use plain_wire;

/// `L_v^max = anchor + (H_v − anchor_hw)·scale`. Algorithm 2's estimate is
/// an offset from `H_v` (`anchor_hw = 0`, `scale = 1`, which evaluates bit
/// for bit as `H_v + offset`); Sections 8.5 and 8.6 damp it (`scale < 1`).
/// Before start (and at the Section 8.5 reference) all fields are 0, so it
/// reads 0.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Lmax {
    anchor: f64,
    anchor_hw: f64,
    pub(crate) scale: f64,
}

impl Lmax {
    pub(crate) fn new(anchor: f64, anchor_hw: f64, scale: f64) -> Self {
        Lmax {
            anchor,
            anchor_hw,
            scale,
        }
    }

    fn value(self, hw: f64) -> f64 {
        self.anchor + (hw - self.anchor_hw) * self.scale
    }
}

/// Index of `w`'s entry in a per-neighbour table, appending `fresh()` if it
/// has none. Node degrees are small, so a linear scan beats hashing.
pub(crate) fn slot<T>(table: &mut Vec<(NodeId, T)>, w: NodeId, fresh: impl FnOnce() -> T) -> usize {
    table.iter().position(|&(v, _)| v == w).unwrap_or_else(|| {
        table.push((w, fresh()));
        table.len() - 1
    })
}

/// Per-neighbour bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
struct NeighborEstimate {
    /// `L_v^w − H_v`: the estimate advances at the hardware rate, so its
    /// offset from the hardware clock is constant between messages.
    offset: f64,
    /// `ℓ_v^w`: largest raw clock value received from `w` (monotone guard —
    /// only more recent, larger values update the estimate).
    ell: f64,
}

/// One node of `A^opt` or of a variant: the state of Algorithms 1–4 plus
/// the variant's [`Policy`].
///
/// # Example
///
/// ```
/// use gcs_core::{AOpt, Params};
/// use gcs_graph::topology;
/// use gcs_sim::{ConstantDelay, Engine};
///
/// let params = Params::recommended(1e-3, 0.1)?;
/// let graph = topology::path(4);
/// let mut engine = Engine::builder(graph)
///     .protocols(vec![AOpt::new(params); 4])
///     .delay_model(ConstantDelay::new(0.05))
///     .build();
/// engine.wake(gcs_graph::NodeId(0), 0.0);
/// engine.run_until(50.0);
/// let clocks = engine.logical_values();
/// let spread = clocks.iter().cloned().fold(f64::MIN, f64::max)
///     - clocks.iter().cloned().fold(f64::MAX, f64::min);
/// assert!(spread <= params.global_skew_bound(3));
/// # Ok::<(), gcs_core::ParamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AOptCore<P: Policy> {
    pub(crate) params: Params,
    pub(crate) logical: LogicalClock,
    pub(crate) lmax: Lmax,
    /// Index of the next `H₀` multiple at which to send (Algorithm 1).
    pub(crate) next_multiple: u64,
    /// Per-neighbour estimates, keyed by a linear scan: node degrees are
    /// small, so this beats hashing on the engine's per-message hot path
    /// (and the skew folds over it are order-insensitive `max`es).
    estimates: Vec<(NodeId, NeighborEstimate)>,
    /// Index into `estimates` of the entry with the **largest** fold key
    /// (see [`AOptCore::fold_key`]) — the argmax behind `Λ↑`. Incrementally
    /// maintained: entries only mutate in `on_message`, and between
    /// messages every estimate advances by the same hardware offset, so
    /// the cached argmax stays the argmax and yields a `Λ↑` bit-identical
    /// to the linear fold. [`NO_ENTRY`] until a neighbour is heard from.
    arg_hi: u32,
    /// Argmin twin of `arg_hi` (the entry behind `Λ↓`).
    arg_lo: u32,
    /// Count of messages this node broadcast (diagnostics).
    sends: u64,
    /// Hardware reading at this node's last broadcast.
    pub(crate) last_send_hw: f64,
    pub(crate) policy: P,
}

/// The `A^opt` protocol state of one node (the core with [`Plain`]).
pub type AOpt = AOptCore<Plain>;

/// Algorithms 1–4 as the paper states them, with the two switches the
/// experiments flip: `JUMP` ([`Jump`]) and `FROZEN` ([`Frozen`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Plain<const JUMP: bool = false, const FROZEN: bool = false>;

/// The policy of [`crate::AOptJump`].
pub type Jump = Plain<true, false>;

/// The policy of [`AOpt::with_frozen_estimates`].
pub type Frozen = Plain<false, true>;

impl<const J: bool, const F: bool> Policy for Plain<J, F> {
    plain_wire!();
    const JUMP: bool = J;
    const FROZEN: bool = F;
}

impl<P: Policy + Default> AOptCore<P> {
    /// Creates a node with the given parameters (for the policies that take
    /// no further configuration).
    pub fn new(params: Params) -> Self {
        AOptCore::with_policy(params, P::default())
    }
}

impl AOpt {
    /// Ablated variant for the `a2_estimate_ablation` experiment: neighbour
    /// estimates are frozen at the raw received values instead of advancing
    /// at the hardware rate (Algorithm 2's bookkeeping). The paper's κ
    /// (Eq. 4) assumes advancing estimates; freezing them inflates the
    /// staleness from `𝒪(𝒯 + H̄₀)` to `𝒪(𝒯 + H₀)` and the skew with it.
    /// Never use this to *run* a deployment.
    pub fn with_frozen_estimates(params: Params) -> AOptCore<Frozen> {
        AOptCore::with_policy(params, Plain)
    }
}

impl<P: Policy> AOptCore<P> {
    /// Timer slot for the send trigger (Algorithm 1).
    pub const SEND_TIMER: TimerId = TimerId(0);
    /// Timer slot for the Algorithm 4 rate reset.
    pub const RATE_TIMER: TimerId = TimerId(1);

    pub(crate) fn with_policy(params: Params, policy: P) -> Self {
        AOptCore {
            params,
            logical: LogicalClock::new(),
            lmax: Lmax::default(),
            next_multiple: 1,
            estimates: Vec::new(),
            arg_hi: NO_ENTRY,
            arg_lo: NO_ENTRY,
            sends: 0,
            last_send_hw: f64::NEG_INFINITY,
            policy,
        }
    }

    /// The parameters this node runs with.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The maximum-clock estimate `L_v^max` when the hardware clock reads
    /// `hw` (0 before initialization).
    pub fn lmax_value(&self, hw: f64) -> f64 {
        self.lmax.value(hw)
    }

    /// The estimate `L_v^w` of neighbour `w`'s clock at hardware reading
    /// `hw`, if a message from `w` has been received.
    pub fn neighbor_estimate(&self, w: NodeId, hw: f64) -> Option<f64> {
        self.estimates
            .iter()
            .find(|&&(v, _)| v == w)
            .map(|(_, e)| hw + e.offset)
    }

    /// The current rate multiplier `ρ_v`.
    pub fn multiplier(&self) -> f64 {
        if self.logical.is_started() {
            self.logical.multiplier()
        } else {
            1.0
        }
    }

    /// Number of broadcasts this node performed.
    pub fn sends(&self) -> u64 {
        self.sends
    }

    /// The estimate value for one neighbour entry (frozen estimates stay at
    /// the raw `ℓ_v^w`).
    fn estimate_value(e: &NeighborEstimate, hw: f64) -> f64 {
        if P::FROZEN {
            e.ell
        } else {
            hw + e.offset
        }
    }

    /// The key the incremental Λ trackers order entries by: `offset`, or
    /// the raw `ℓ_v^w` under a frozen policy. At any hardware reading the
    /// estimate value is `hw + offset` (resp. `ell` itself) — a weakly
    /// monotone function of this key — so the entry with the largest
    /// (smallest) key realizes the maximal (minimal) estimate, and
    /// `Λ↑`/`Λ↓` computed from the winners are **bit-for-bit** the linear
    /// fold's values: the winning entry's contribution is the exact
    /// expression the fold would have evaluated for it.
    fn fold_key(e: &NeighborEstimate) -> f64 {
        if P::FROZEN {
            e.ell
        } else {
            e.offset
        }
    }

    /// Re-points the Λ tracker caches after `estimates[i]` moved away from
    /// `old_key`. O(1) except when the updated entry owned a cache and
    /// moved *against* it (its decrease-path), which rescans the neighbour
    /// table — rare in steady state, making a wake O(1) amortized instead
    /// of a per-wake O(deg) fold.
    fn note_estimate_update(&mut self, i: usize, old_key: f64) {
        let new_key = Self::fold_key(&self.estimates[i].1);
        let i = i as u32;
        if self.arg_hi == NO_ENTRY {
            self.arg_hi = i;
            self.arg_lo = i;
            return;
        }
        if i == self.arg_hi {
            if new_key < old_key {
                self.rescan_trackers();
                return;
            }
        } else if new_key > Self::fold_key(&self.estimates[self.arg_hi as usize].1) {
            self.arg_hi = i;
        }
        if i == self.arg_lo {
            if new_key > old_key {
                self.rescan_trackers();
            }
        } else if new_key < Self::fold_key(&self.estimates[self.arg_lo as usize].1) {
            self.arg_lo = i;
        }
    }

    /// Full O(deg) rescan of both trackers (the owning entry's
    /// decrease-path fallback).
    fn rescan_trackers(&mut self) {
        let (mut hi, mut lo) = (0u32, 0u32);
        let (mut hi_key, mut lo_key) = (f64::NEG_INFINITY, f64::INFINITY);
        for (idx, (_, e)) in self.estimates.iter().enumerate() {
            let k = Self::fold_key(e);
            if k > hi_key {
                hi_key = k;
                hi = idx as u32;
            }
            if k < lo_key {
                lo_key = k;
                lo = idx as u32;
            }
        }
        self.arg_hi = hi;
        self.arg_lo = lo;
    }

    /// `Λ↑ = max_w (L_v^w − L_v)` over heard-from neighbours; `None` if none.
    pub fn lambda_up(&self, hw: f64) -> Option<f64> {
        let l = self.logical.value_at_hw(hw);
        self.estimates
            .iter()
            .map(|(_, e)| Self::estimate_value(e, hw) - l)
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// `Λ↓ = max_w (L_v − L_v^w)` over heard-from neighbours; `None` if none.
    pub fn lambda_down(&self, hw: f64) -> Option<f64> {
        let l = self.logical.value_at_hw(hw);
        self.estimates
            .iter()
            .map(|(_, e)| l - Self::estimate_value(e, hw))
            .fold(None, |acc, x| Some(acc.map_or(x, |a: f64| a.max(x))))
    }

    /// `(Λ↑, Λ↓)` in O(1) from the incremental trackers — the hot-path
    /// counterpart of [`AOptCore::lambda_up`]/[`AOptCore::lambda_down`],
    /// which retain the linear scan and serve as the oracle the trackers
    /// are property-tested against. `None` before any neighbour is heard
    /// from.
    pub fn lambda_pair(&self, hw: f64) -> Option<(f64, f64)> {
        if self.estimates.is_empty() {
            return None;
        }
        let l = self.logical.value_at_hw(hw);
        let hi = self.estimates[self.arg_hi as usize].1;
        let lo = self.estimates[self.arg_lo as usize].1;
        Some((
            Self::estimate_value(&hi, hw) - l,
            l - Self::estimate_value(&lo, hw),
        ))
    }

    /// Algorithm 2, lines 5–7: adopt a larger (hence more recent) clock
    /// value of `from` received when this node's hardware clock read `hw`
    /// (any value, if the policy is not [`Policy::GUARDED`]), and re-point
    /// the incremental Λ trackers. Public so tracker property tests can
    /// drive randomized estimate-update/wake sequences without an engine.
    pub fn record_estimate(&mut self, from: NodeId, logical: f64, hw: f64) {
        let idx = slot(&mut self.estimates, from, || NeighborEstimate {
            offset: f64::NEG_INFINITY,
            ell: f64::NEG_INFINITY,
        });
        let old_key = Self::fold_key(&self.estimates[idx].1);
        let entry = &mut self.estimates[idx].1;
        if !P::GUARDED || logical > entry.ell {
            entry.ell = logical;
            entry.offset = logical - hw;
            self.note_estimate_update(idx, old_key);
        }
    }

    /// Counts one broadcast and sends it through the policy.
    pub(crate) fn broadcast(&mut self, ctx: &mut Context<'_, P::Msg>, lmax: f64, cause: Cause) {
        self.sends += 1;
        self.last_send_hw = ctx.hw();
        P::emit(self, ctx, lmax, cause);
    }

    /// Broadcasts `lmax` and re-arms the send trigger: `H₀` of hardware time
    /// from now, or on the grid (where the policy may skip the broadcast)
    /// for the next multiple of `H₀` not yet reached by `L_v^max`.
    fn send(&mut self, ctx: &mut Context<'_, P::Msg>, lmax: f64, cause: Cause) {
        let (hw, h0) = (ctx.hw(), self.params.h0());
        if P::TRIGGER != Trigger::Grid {
            self.broadcast(ctx, lmax, cause);
            return ctx.set_timer(Self::SEND_TIMER, hw + h0);
        }
        if P::send_due(self, hw, lmax, cause) {
            self.broadcast(ctx, lmax, cause);
        }
        // Next strictly-future multiple (tolerating FP error at an exact hit).
        let k = (self.lmax_value(hw) / h0 + 1e-9).floor() as u64 + 1;
        self.next_multiple = k;
        debug_assert_eq!((self.lmax.anchor_hw, self.lmax.scale), (0.0, 1.0));
        // L_v^max = H_v + offset reaches k·H₀ when H_v = k·H₀ − offset.
        ctx.set_timer(Self::SEND_TIMER, k as f64 * h0 - self.lmax.anchor);
    }

    /// Algorithm 3: `setClockRate`.
    fn set_clock_rate(&mut self, ctx: &mut Context<'_, P::Msg>) {
        let hw = ctx.hw();
        let l = self.logical.value_at_hw(hw);
        // Λ↑ and Λ↓ from the incrementally tracked arg-extremes instead of
        // a per-wake O(deg) fold (this runs on every delivery). The
        // arithmetic on the winning entries is exactly `lambda_up` /
        // `lambda_down`'s — see `fold_key` for why the values are
        // bit-identical; the linear folds stay as the oracle. No neighbour
        // heard from yet means no skew information: stay nominal (but the
        // κ-tolerance toward L_v^max still applies below via Λ↓ = 0,
        // Λ↑ = 0 — the paper's line 2 uses max{κ − Λ↓, ·}).
        let (lambda_up, lambda_down) = match self.lambda_pair(hw) {
            Some((up, down)) => {
                debug_assert_eq!(Some(up), self.lambda_up(hw));
                debug_assert_eq!(Some(down), self.lambda_down(hw));
                (up, down)
            }
            None => (0.0, 0.0),
        };
        let headroom = self.lmax_value(hw) - l;
        let r = clamped_increase(lambda_up, lambda_down, P::kappa(self), headroom);
        if P::JUMP {
            if r > 0.0 {
                self.logical.jump(hw, r);
            }
        } else if r > 0.0 {
            ctx.set_timer(Self::RATE_TIMER, hw + r / self.params.mu());
            self.apply_rate(ctx, 1.0 + self.params.mu());
        } else {
            ctx.cancel_timer(Self::RATE_TIMER);
            self.apply_rate(ctx, 1.0);
        }
    }

    /// Sets the multiplier `setClockRate` or the rate timer asks for (the
    /// rate timer is already set or cancelled). Under a damped `L_v^max`,
    /// `L_v` rides the estimate at its own scale once it has (within
    /// floating-point slack) caught it, and the crossing timer is armed
    /// otherwise: this is where `L_v ≤ L_v^max` is kept between events.
    fn apply_rate(&mut self, ctx: &mut Context<'_, P::Msg>, desired: f64) {
        let hw = ctx.hw();
        if !P::DAMPED {
            self.logical.set_multiplier(hw, desired);
            return;
        }
        let scale = self.lmax.scale;
        let headroom = self.lmax_value(hw) - self.logical.value_at_hw(hw);
        if desired > scale && headroom <= 1e-12 {
            // Riding the estimate: any faster rate would overtake it.
            self.logical.set_multiplier(hw, scale);
            ctx.cancel_timer(CROSS_TIMER);
            ctx.cancel_timer(Self::RATE_TIMER);
        } else {
            self.logical.set_multiplier(hw, desired);
            if desired > scale {
                ctx.set_timer(CROSS_TIMER, hw + headroom / (desired - scale));
            } else {
                ctx.cancel_timer(CROSS_TIMER);
            }
        }
    }
}

impl<P: Policy> Protocol for AOptCore<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        let hw = ctx.hw();
        debug_assert_eq!(hw, 0.0, "hardware clocks start at zero");
        self.logical.start(hw);
        self.lmax = Lmax::new(0.0 - hw, 0.0, 1.0);
        // A node waking up by itself sends ⟨0, 0⟩ (L_v^max = 0 is the 0-th
        // multiple of H₀); a message-initialized node sends the same before
        // processing the initialization message, which subsumes the paper's
        // "trigger a sending event".
        self.send(ctx, 0.0, Cause::Trigger);
        P::started(self, ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, P::Msg>, from: NodeId, msg: P::Msg) {
        let hw = ctx.hw();
        let Some((logical, lmax)) = P::receive(self, ctx, from, msg) else {
            return;
        };
        // Algorithm 2, lines 1–4: adopt and forward a strictly larger
        // maximum-clock estimate. "Strictly larger" carries a 1e-9 slack so
        // that equal estimates reconstructed through different floating-point
        // routes are not treated as increases (which would duplicate sends).
        if lmax > self.lmax_value(hw) + 1e-9 {
            P::adopt(self, ctx, lmax);
            let now = self.lmax_value(hw);
            match P::TRIGGER {
                // The grid forwards the received value itself.
                Trigger::Grid => self.send(ctx, lmax, Cause::Forward),
                Trigger::Periodic => self.broadcast(ctx, now, Cause::Forward),
                Trigger::MinGap if hw - self.last_send_hw < self.params.h0() - 1e-12 => {
                    // Too soon: the heartbeat at last send + H₀ carries the
                    // freshest values then.
                    ctx.set_timer(Self::SEND_TIMER, self.last_send_hw + self.params.h0());
                }
                Trigger::Heartbeat | Trigger::MinGap => self.send(ctx, now, Cause::Forward),
            }
        }
        // Lines 5–7: adopt a larger (hence more recent) clock value of `w`.
        self.record_estimate(from, logical, hw);
        // Lines 8–10: recompute skews and adjust the clock rate.
        self.set_clock_rate(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, P::Msg>, timer: TimerId) {
        match timer {
            Self::SEND_TIMER => {
                // Algorithm 1: L_v^max reached the multiple; broadcast the
                // exact multiple to keep sent estimates on the H₀ grid.
                let lmax = match P::TRIGGER {
                    Trigger::Grid => self.next_multiple as f64 * self.params.h0(),
                    _ => self.lmax_value(ctx.hw()),
                };
                self.send(ctx, lmax, Cause::Trigger);
            }
            // Algorithm 4: H_v reached H_v^R.
            Self::RATE_TIMER => self.apply_rate(ctx, 1.0),
            CROSS_TIMER if P::DAMPED => {
                // L_v caught the damped L_v^max: ride it at its scale.
                self.logical.set_multiplier(ctx.hw(), self.lmax.scale);
                ctx.cancel_timer(Self::RATE_TIMER);
            }
            other => P::on_timer(self, ctx, other),
        }
    }

    fn logical_value(&self, hw: f64) -> f64 {
        self.logical.value_at_hw(hw)
    }

    fn rate_multiplier(&self) -> f64 {
        self.multiplier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_graph::topology;
    use gcs_sim::{ConstantDelay, DirectionalDelay, Engine, UniformDelay};

    fn params() -> Params {
        Params::recommended(0.01, 0.1).unwrap()
    }

    fn spread(values: &[f64]) -> f64 {
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        let min = values.iter().cloned().fold(f64::MAX, f64::min);
        max - min
    }

    #[test]
    fn single_node_tracks_hardware_clock() {
        let p = params();
        let g = topology::path(1);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(p)])
            .delay_model(ConstantDelay::new(0.0))
            .build();
        engine.wake(NodeId(0), 0.0);
        engine.run_until(10.0);
        assert!((engine.logical_value(NodeId(0)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn initialization_floods_through_path() {
        let p = params();
        let g = topology::path(5);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(p); 5])
            .delay_model(ConstantDelay::new(0.05))
            .build();
        engine.wake(NodeId(0), 0.0);
        engine.run_until(0.3);
        for v in 0..5 {
            assert!(engine.is_started(NodeId(v)), "node {v} not initialized");
        }
        // Node 4 started 4 hops later.
        assert!(engine.logical_value(NodeId(0)) > engine.logical_value(NodeId(4)));
    }

    #[test]
    fn synchronizes_under_benign_conditions() {
        let p = params();
        let g = topology::path(6);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(p); 6])
            .delay_model(ConstantDelay::new(0.02))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(100.0);
        let clocks = engine.logical_values();
        assert!(spread(&clocks) <= p.global_skew_bound(5) + 1e-9);
        // With zero drift, clocks should in fact be very tight.
        assert!(spread(&clocks) <= 2.0 * p.kappa());
    }

    #[test]
    fn respects_global_skew_bound_under_adversity() {
        let p = params();
        let g = topology::path(8);
        let schedules =
            gcs_sim::rates::split(8, gcs_time::DriftBounds::new(0.01).unwrap(), |v| v < 4);
        let delay = DirectionalDelay::new(&g, NodeId(0), 0.1, 0.0);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(p); 8])
            .delay_model(delay)
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        let bound = p.global_skew_bound(7);
        let mut worst: f64 = 0.0;
        engine.run_until_observed(200.0, |e| {
            let clocks = e.logical_values();
            let max = clocks.iter().cloned().fold(f64::MIN, f64::max);
            let min = clocks.iter().cloned().fold(f64::MAX, f64::min);
            worst = worst.max(max - min);
        });
        assert!(
            worst <= bound + 1e-9,
            "global skew {worst} exceeded bound {bound}"
        );
        assert!(worst > 0.0);
    }

    #[test]
    fn respects_envelope_condition() {
        // Condition (1): (1 − ε)(t − t_v) ≤ L_v(t) ≤ (1 + ε)t.
        let p = params();
        let g = topology::binary_tree(7);
        let drift = gcs_time::DriftBounds::new(0.01).unwrap();
        let schedules = gcs_sim::rates::random_walk(7, drift, 5.0, 100.0, 3);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(p); 7])
            .delay_model(UniformDelay::new(0.1, 8))
            .rate_schedules(schedules)
            .build();
        engine.wake(NodeId(0), 0.0);
        let mut checkers: Vec<Option<gcs_time::EnvelopeChecker>> = vec![None; 7];
        engine.run_until_observed(100.0, |e| {
            for (v, slot) in checkers.iter_mut().enumerate() {
                if e.is_started(NodeId(v)) {
                    let checker = slot.get_or_insert_with(|| {
                        gcs_time::EnvelopeChecker::new(drift, e.now(), 1e-9)
                    });
                    assert!(
                        checker.observe(e.now(), e.logical_value(NodeId(v))),
                        "envelope violated at node {v}, t = {}",
                        e.now()
                    );
                }
            }
        });
    }

    #[test]
    fn respects_progress_condition() {
        // Condition (2): α(t'−t) ≤ L(t') − L(t) ≤ β(t'−t) with
        // α = 1 − ε, β = (1 + ε)(1 + μ) (Corollary 5.3).
        let p = params();
        let drift = gcs_time::DriftBounds::new(0.01).unwrap();
        let g = topology::cycle(5);
        let schedules = gcs_sim::rates::alternating(5, drift, 7.0, 80.0);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(p); 5])
            .delay_model(UniformDelay::new(0.1, 21))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        let (alpha, beta) = p.rate_envelope();
        let env = gcs_time::RateEnvelope::new(alpha, beta);
        let mut checkers = vec![gcs_time::ProgressChecker::new(env, 1e-9); 5];
        engine.run_until_observed(80.0, |e| {
            for (v, checker) in checkers.iter_mut().enumerate() {
                assert!(
                    checker.observe(e.now(), e.logical_value(NodeId(v))),
                    "progress envelope violated at node {v}, t = {}",
                    e.now()
                );
            }
        });
    }

    #[test]
    fn logical_clock_never_exceeds_lmax() {
        // Corollary 5.2 (i): L_v ≤ L_v^max at all times.
        let p = params();
        let g = topology::path(5);
        let drift = gcs_time::DriftBounds::new(0.01).unwrap();
        let schedules = gcs_sim::rates::split(5, drift, |v| v % 2 == 0);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(p); 5])
            .delay_model(UniformDelay::new(0.1, 4))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until_observed(60.0, |e| {
            for v in 0..5 {
                let hw = e.hardware_value(NodeId(v));
                let node = e.protocol(NodeId(v));
                assert!(
                    node.logical_value(hw) <= node.lmax_value(hw) + 1e-9,
                    "L exceeded L^max at node {v}"
                );
            }
        });
    }

    #[test]
    fn sent_lmax_values_stay_on_h0_grid() {
        /// Records the `L^max` of every message its node receives.
        #[derive(Clone)]
        struct Tap {
            node: AOpt,
            heard: Vec<f64>,
        }
        impl Protocol for Tap {
            type Msg = AOptMsg;
            fn on_start(&mut self, ctx: &mut Context<'_, AOptMsg>) {
                self.node.on_start(ctx);
            }
            fn on_message(&mut self, ctx: &mut Context<'_, AOptMsg>, from: NodeId, msg: AOptMsg) {
                self.heard.push(msg.lmax);
                self.node.on_message(ctx, from, msg);
            }
            fn on_timer(&mut self, ctx: &mut Context<'_, AOptMsg>, timer: TimerId) {
                self.node.on_timer(ctx, timer);
            }
            fn logical_value(&self, hw: f64) -> f64 {
                self.node.logical_value(hw)
            }
        }
        // Split drift keeps larger estimates arriving, so the nodes both
        // send from the trigger and forward what they adopt.
        let p = params();
        let drift = gcs_time::DriftBounds::new(0.01).unwrap();
        let tap = Tap {
            node: AOpt::new(p),
            heard: Vec::new(),
        };
        let mut engine = Engine::builder(topology::path(3))
            .protocols(vec![tap; 3])
            .delay_model(ConstantDelay::new(0.03))
            .rate_schedules(gcs_sim::rates::split(3, drift, |v| v == 0))
            .build();
        engine.wake(NodeId(0), 0.0);
        engine.run_until(50.0);
        // With lossless links every message sent before the horizon (less
        // one delay) is heard, so this checks what the nodes sent.
        for v in 0..3 {
            let tap = engine.protocol(NodeId(v));
            assert!(tap.heard.len() > 10, "node {v} heard too little");
            for &lmax in &tap.heard {
                let k = lmax / p.h0();
                assert!(
                    (k - k.round()).abs() < 1e-9,
                    "node {v} heard L^max = {lmax}, off the H₀ grid"
                );
            }
        }
    }

    #[test]
    fn amortized_message_frequency_matches_h0() {
        // Section 6.1: amortized frequency Θ(1/H₀) per node.
        let p = params();
        let g = topology::path(4);
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(p); 4])
            .delay_model(ConstantDelay::new(0.05))
            .build();
        engine.wake_all_at(0.0);
        let horizon = 200.0;
        engine.run_until(horizon);
        let expected = horizon / p.h0();
        for v in 0..4 {
            let sends = engine.protocol(NodeId(v)).sends() as f64;
            assert!(
                sends <= 3.0 * expected + 5.0,
                "node {v} sent {sends} times, expected Θ({expected})"
            );
            assert!(sends >= expected / 3.0 - 5.0);
        }
    }

    #[test]
    fn fast_mode_engages_on_skew() {
        let p = params();
        let g = topology::path(2);
        // Node 1 drastically slower; node 0 pulls ahead, node 1 must boost.
        let schedules = vec![
            gcs_time::RateSchedule::constant(1.01).unwrap(),
            gcs_time::RateSchedule::constant(0.99).unwrap(),
        ];
        let mut engine = Engine::builder(g)
            .protocols(vec![AOpt::new(p); 2])
            .delay_model(ConstantDelay::new(0.05))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        let mut boosted = false;
        engine.run_until_observed(100.0, |e| {
            if e.protocol(NodeId(1)).multiplier() > 1.0 {
                boosted = true;
            }
        });
        assert!(boosted, "slow node never engaged fast mode");
        // And the final skew is small despite the drift.
        let skew = (engine.logical_value(NodeId(0)) - engine.logical_value(NodeId(1))).abs();
        assert!(skew <= p.local_skew_bound(1) + 1e-9);
    }
}
