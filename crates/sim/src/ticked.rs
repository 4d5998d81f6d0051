//! Discrete clock ticks (paper Section 8.4).
//!
//! Real hardware clocks do not offer continuous time: they emit *ticks* at
//! some frequency `f`, and a node can act — read its clock, process a
//! message, send — only on a tick. [`Ticked`] wraps any [`Protocol`] with
//! that semantics:
//!
//! * messages arriving between ticks are buffered and handed to the inner
//!   protocol at the next tick boundary,
//! * timers the inner protocol arms are rounded *up* to the tick grid,
//! * the wrapped protocol therefore only ever observes tick-aligned
//!   hardware readings.
//!
//! The paper's Section 8.4 (citing the companion analysis) states the
//! effect: the achievable skew bounds replace `𝒯` by `max(1/f, 𝒯)` — the
//! granularity is free while ticks are finer than the delay uncertainty
//! and dominates beyond (experiment F13).

use gcs_graph::NodeId;

use crate::protocol::{Action, Context, Protocol, TimerId};

/// Reserved timer slot for the tick heartbeat (inner protocols must not
/// use it).
const TICK_SLOT: TimerId = TimerId(u32::MAX);

/// A protocol adapter imposing discrete clock ticks of the given hardware
/// period on the wrapped protocol.
///
/// # Example
///
/// ```
/// use gcs_sim::{ConstantDelay, Engine, Ticked};
/// # use gcs_sim::{Context, Protocol, TimerId};
/// # #[derive(Clone, Debug)]
/// # struct P { heard_at: Vec<f64> }
/// # impl Protocol for P {
/// #     type Msg = ();
/// #     fn on_start(&mut self, ctx: &mut Context<'_, ()>) { ctx.send_all(()); }
/// #     fn on_message(&mut self, ctx: &mut Context<'_, ()>, _: gcs_graph::NodeId, _: ()) {
/// #         self.heard_at.push(ctx.hw());
/// #     }
/// #     fn on_timer(&mut self, _: &mut Context<'_, ()>, _: TimerId) {}
/// #     fn logical_value(&self, hw: f64) -> f64 { hw }
/// # }
/// let graph = gcs_graph::topology::path(2);
/// let nodes = vec![Ticked::new(P { heard_at: vec![] }, 0.25); 2];
/// let mut engine = Engine::builder(graph)
///     .protocols(nodes)
///     .delay_model(ConstantDelay::new(0.1))
///     .build();
/// engine.wake_all_at(0.0);
/// engine.run_until(2.0);
/// // Every observation the inner protocol made sits on the 0.25 tick grid.
/// for &hw in &engine.protocol(gcs_graph::NodeId(1)).inner().heard_at {
///     assert!((hw / 0.25 - (hw / 0.25).round()).abs() < 1e-9);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Ticked<P: Protocol> {
    inner: P,
    period: f64,
    buffer: Vec<(NodeId, P::Msg)>,
    /// Scratch the tick handler drains `buffer` through, so both vectors
    /// keep their capacity across ticks (no steady-state allocation).
    batch: Vec<(NodeId, P::Msg)>,
}

impl<P: Protocol> Ticked<P> {
    /// Wraps `inner` with a tick period (hardware units).
    ///
    /// # Panics
    ///
    /// Panics if `period` is not positive and finite.
    pub fn new(inner: P, period: f64) -> Self {
        assert!(
            period.is_finite() && period > 0.0,
            "invalid tick period {period}"
        );
        Ticked {
            inner,
            period,
            buffer: Vec::new(),
            batch: Vec::new(),
        }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The tick period.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Smallest tick-grid value at or above `hw` (with floating-point
    /// forgiveness for values already on the grid).
    fn round_up(&self, hw: f64) -> f64 {
        (hw / self.period - 1e-9).ceil() * self.period
    }

    /// Rounds the targets of any timers the inner protocol armed up to the
    /// tick grid (the engine fires them exactly, so rounding here suffices).
    fn quantize_actions(&self, ctx: &mut Context<'_, P::Msg>) {
        for action in ctx.actions.iter_mut() {
            if let Action::SetTimer { timer, target_hw } = action {
                assert_ne!(*timer, TICK_SLOT, "inner protocol used the tick slot");
                *target_hw = self.round_up(*target_hw);
            }
        }
    }
}

impl<P: Protocol> Protocol for Ticked<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        // Hardware clocks start at 0, which is on every grid.
        self.inner.on_start(ctx);
        self.quantize_actions(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, P::Msg>, from: NodeId, msg: P::Msg) {
        // Buffer until the next tick; arm (or re-arm) the heartbeat.
        self.buffer.push((from, msg));
        ctx.set_timer(TICK_SLOT, self.round_up(ctx.hw()));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, P::Msg>, timer: TimerId) {
        if timer == TICK_SLOT {
            let mut batch = std::mem::take(&mut self.batch);
            std::mem::swap(&mut batch, &mut self.buffer);
            for (from, msg) in batch.drain(..) {
                self.inner.on_message(ctx, from, msg);
            }
            self.batch = batch;
        } else {
            self.inner.on_timer(ctx, timer);
        }
        self.quantize_actions(ctx);
    }

    fn logical_value(&self, hw: f64) -> f64 {
        self.inner.logical_value(hw)
    }

    fn rate_multiplier(&self) -> f64 {
        self.inner.rate_multiplier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstantDelay, Engine};

    #[derive(Debug, Clone, Default)]
    struct Probe {
        message_hws: Vec<f64>,
        timer_hws: Vec<f64>,
    }

    impl Protocol for Probe {
        type Msg = u8;

        fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
            ctx.send_all(1);
            ctx.set_timer(TimerId(0), 0.37); // off-grid target
        }

        fn on_message(&mut self, ctx: &mut Context<'_, u8>, _from: NodeId, _msg: u8) {
            self.message_hws.push(ctx.hw());
        }

        fn on_timer(&mut self, ctx: &mut Context<'_, u8>, _timer: TimerId) {
            self.timer_hws.push(ctx.hw());
        }

        fn logical_value(&self, hw: f64) -> f64 {
            hw
        }
    }

    fn on_grid(x: f64, period: f64) -> bool {
        (x / period - (x / period).round()).abs() < 1e-9
    }

    #[test]
    fn messages_are_deferred_to_tick_boundaries() {
        let g = gcs_graph::topology::path(2);
        let period = 0.25;
        let mut engine = Engine::builder(g)
            .protocols(vec![Ticked::new(Probe::default(), period); 2])
            .delay_model(ConstantDelay::new(0.1))
            .build();
        engine.wake_all_at(0.0);
        engine.run_until(3.0);
        for v in 0..2 {
            let probe = engine.protocol(NodeId(v)).inner();
            assert!(!probe.message_hws.is_empty());
            for &hw in &probe.message_hws {
                assert!(on_grid(hw, period), "message handled off-grid at {hw}");
            }
            // Message sent at hw 0 with 0.1 delay arrives at hw 0.1, so the
            // inner protocol sees it at the 0.25 tick.
            assert!((probe.message_hws[0] - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn timers_are_rounded_up_to_the_grid() {
        let g = gcs_graph::topology::path(1);
        let period = 0.25;
        let mut engine = Engine::builder(g)
            .protocols(vec![Ticked::new(Probe::default(), period)])
            .delay_model(ConstantDelay::new(0.0))
            .build();
        engine.wake(NodeId(0), 0.0);
        engine.run_until(2.0);
        let probe = engine.protocol(NodeId(0)).inner();
        assert_eq!(probe.timer_hws.len(), 1);
        // Requested 0.37 → fires at 0.5.
        assert!((probe.timer_hws[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn on_grid_targets_stay_put() {
        let t = Ticked::new(Probe::default(), 0.25);
        assert!((t.round_up(0.5) - 0.5).abs() < 1e-12);
        assert!(
            (t.round_up(0.500000001) - 0.75).abs() < 1e-9
                || (t.round_up(0.500000001) - 0.5).abs() < 1e-9
        );
        assert!((t.round_up(0.51) - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid tick period")]
    fn rejects_zero_period() {
        let _ = Ticked::new(Probe::default(), 0.0);
    }
}
