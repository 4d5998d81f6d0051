//! Piggybacking sync information on application traffic (paper Section 1).
//!
//! The paper motivates its low bit complexity with piggybacking: the few
//! bits of `⟨L_v, L_v^max⟩` "can be included in (or appended to) any message
//! sent by another application". This variant simulates exactly that: the
//! node's application emits messages on its own schedule, every one of them
//! carries the sync fields for free, and a *dedicated* sync message is sent
//! only when Algorithm 1's trigger fires without recent application cover.
//!
//! The sync guarantees are unaffected — neighbours receive `⟨L, L^max⟩` at
//! least as often as under plain `A^opt` — while the dedicated-message rate
//! falls toward zero once the application chatter is denser than `1/H₀`
//! (experiment T3).

use gcs_graph::NodeId;
use gcs_sim::{Context, TimerId};

use crate::aopt::{AOptCore, Cause, Policy};
use crate::Params;

/// A message of the piggybacking variant: the application payload slot plus
/// the free-riding sync fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiggybackMsg {
    /// Sender's logical clock at send time.
    pub logical: f64,
    /// Sender's maximum-clock estimate at send time.
    pub lmax: f64,
    /// Whether this message existed for the application's sake (the sync
    /// fields rode along for free) or was a dedicated sync message.
    pub is_app: bool,
}

/// The policy: the grid trigger skipped under application cover.
#[derive(Debug, Clone, Copy)]
pub struct Piggyback {
    /// Mean application inter-send gap in hardware units.
    app_mean_gap: f64,
    /// xorshift64 state for the application jitter (deterministic per seed).
    rng: u64,
    /// Hardware reading at which the next application message departs.
    next_app_hw: f64,
    piggybacked: u64,
}

impl Piggyback {
    /// Schedules the next application message, a jittered gap from now.
    fn arm_app(core: &mut AOptCore<Self>, ctx: &mut Context<'_, PiggybackMsg>) {
        let p = &mut core.policy;
        // xorshift64: cheap, deterministic, good enough for jitter.
        let mut x = p.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        p.rng = x;
        let frac = (x >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        p.next_app_hw = ctx.hw() + p.app_mean_gap * (0.5 + frac);
        ctx.set_timer(PiggybackAOpt::APP_TIMER, p.next_app_hw);
    }
}

impl Policy for Piggyback {
    type Msg = PiggybackMsg;

    fn emit(core: &mut AOptCore<Self>, ctx: &mut Context<'_, Self::Msg>, lmax: f64, cause: Cause) {
        ctx.send_all(PiggybackMsg {
            logical: core.logical.value_at_hw(ctx.hw()),
            lmax,
            is_app: cause == Cause::App,
        });
    }

    fn receive(
        _: &mut AOptCore<Self>,
        _: &mut Context<'_, Self::Msg>,
        _: NodeId,
        msg: PiggybackMsg,
    ) -> Option<(f64, f64)> {
        Some((msg.logical, msg.lmax))
    }

    fn send_due(core: &AOptCore<Self>, hw: f64, lmax: f64, cause: Cause) -> bool {
        let h0 = core.params.h0();
        let app_cover = core.policy.next_app_hw - hw <= h0;
        if cause == Cause::Forward {
            // Unlike plain A^opt, incoming estimates are not confined to the
            // H₀ grid (application messages carry continuous values), so
            // forwarding every adoption would storm. Forward dedicated only
            // when the adoption crosses a new H₀ multiple — plain A^opt's
            // effective forwarding rate — and skip even that when an
            // application message departs within the next H₀ anyway (the
            // deferral costs 𝒪(H₀) of propagation latency per hop, the same
            // trade-off as the Section 6.1 minimum-gap variant).
            let k_new = (lmax / h0 + 1e-9).floor() as u64;
            k_new >= core.next_multiple && !app_cover
        } else {
            // Skip the dedicated send if an application message carried
            // the sync fields recently or will do so shortly.
            !(hw - core.last_send_hw < h0 || app_cover)
        }
    }

    fn started(core: &mut AOptCore<Self>, ctx: &mut Context<'_, Self::Msg>) {
        Self::arm_app(core, ctx);
    }

    fn on_timer(core: &mut AOptCore<Self>, ctx: &mut Context<'_, Self::Msg>, timer: TimerId) {
        assert_eq!(timer, PiggybackAOpt::APP_TIMER, "unknown timer slot");
        core.policy.piggybacked += 1;
        core.broadcast(ctx, core.lmax_value(ctx.hw()), Cause::App);
        Self::arm_app(core, ctx);
    }
}

/// `A^opt` with its messages piggybacked on application traffic.
///
/// # Example
///
/// ```
/// use gcs_core::{Params, PiggybackAOpt};
///
/// let p = Params::recommended(1e-2, 0.1)?;
/// // Application chatter every ~0.5 hardware units on average.
/// let node = PiggybackAOpt::new(p, 0.5, 7);
/// assert_eq!(node.dedicated_sends(), 0);
/// # Ok::<(), gcs_core::ParamError>(())
/// ```
pub type PiggybackAOpt = AOptCore<Piggyback>;

impl PiggybackAOpt {
    /// Timer slot for the application's own traffic.
    pub const APP_TIMER: TimerId = TimerId(2);

    /// Creates a node whose application sends roughly every `app_mean_gap`
    /// hardware units (jittered ±50%, deterministically from `seed`).
    ///
    /// # Panics
    ///
    /// Panics if `app_mean_gap` is not positive and finite.
    pub fn new(params: Params, app_mean_gap: f64, seed: u64) -> Self {
        assert!(
            app_mean_gap.is_finite() && app_mean_gap > 0.0,
            "invalid application gap {app_mean_gap}"
        );
        let policy = Piggyback {
            app_mean_gap,
            rng: seed | 1,
            next_app_hw: f64::INFINITY,
            piggybacked: 0,
        };
        AOptCore::with_policy(params, policy)
    }

    /// Dedicated (sync-only) broadcasts so far.
    pub fn dedicated_sends(&self) -> u64 {
        self.sends() - self.policy.piggybacked
    }

    /// Application broadcasts that carried the sync fields for free.
    pub fn piggybacked_sends(&self) -> u64 {
        self.policy.piggybacked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_graph::topology;
    use gcs_sim::{ConstantDelay, Engine};
    use gcs_time::DriftBounds;

    fn params() -> Params {
        Params::recommended(0.02, 0.1).unwrap()
    }

    fn run(app_gap: f64) -> Engine<PiggybackAOpt, ConstantDelay> {
        let p = params();
        let n = 6;
        let g = topology::path(n);
        let drift = DriftBounds::new(0.02).unwrap();
        let schedules = gcs_sim::rates::split(n, drift, |v| v < n / 2);
        let nodes: Vec<PiggybackAOpt> = (0..n)
            .map(|v| PiggybackAOpt::new(p, app_gap, v as u64 + 1))
            .collect();
        let mut engine = Engine::builder(g)
            .protocols(nodes)
            .delay_model(ConstantDelay::new(0.05))
            .rate_schedules(schedules)
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(150.0);
        engine
    }

    #[test]
    fn dense_app_traffic_suppresses_dedicated_sends() {
        let p = params();
        let engine = run(p.h0() / 4.0); // app 4× denser than 1/H₀
        for v in 0..6 {
            let node = engine.protocol(NodeId(v));
            assert!(
                node.dedicated_sends() * 4 < node.piggybacked_sends(),
                "node {v}: {} dedicated vs {} piggybacked",
                node.dedicated_sends(),
                node.piggybacked_sends()
            );
        }
    }

    #[test]
    fn sparse_app_traffic_keeps_the_sync_heartbeat() {
        let p = params();
        let engine = run(p.h0() * 20.0); // app far sparser than 1/H₀
        for v in 0..6 {
            let node = engine.protocol(NodeId(v));
            // The dedicated heartbeat must carry the protocol.
            assert!(node.dedicated_sends() > node.piggybacked_sends());
        }
    }

    #[test]
    fn synchronization_quality_is_unchanged() {
        let p = params();
        for app_gap in [p.h0() / 4.0, p.h0() * 4.0] {
            let engine = run(app_gap);
            let clocks = engine.logical_values();
            let spread = clocks.iter().cloned().fold(f64::MIN, f64::max)
                - clocks.iter().cloned().fold(f64::MAX, f64::min);
            assert!(
                spread <= p.global_skew_bound(5) + 1e-9,
                "spread {spread} beyond 𝒢 with app gap {app_gap}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid application gap")]
    fn rejects_bad_gap() {
        let _ = PiggybackAOpt::new(params(), 0.0, 1);
    }
}
