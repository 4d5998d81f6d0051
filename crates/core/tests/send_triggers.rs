//! Each variant's send trigger, checked against the engine's event stream.
//!
//! The variants deliberately differ in when they broadcast (DESIGN.md has
//! the table and the paper section behind each choice). These tests pin
//! the differences down on an adversarial execution (split drift, random
//! delays, a staggered start):
//!
//! * grid variants broadcast from their timer exactly when `L_v^max`
//!   reaches a multiple of `H₀` (Algorithm 1);
//! * periodic variants broadcast from their timer every `H₀` of hardware
//!   time since start, whatever forwards happen in between;
//! * the heartbeat variant re-arms its timer `H₀` after every broadcast;
//! * the minimum-gap variant never broadcasts twice within `H₀`.

use gcs_core::{
    AOpt, AOptCore, AOptJump, AdaptiveAOpt, DiscreteAOpt, EnvelopeAOpt, ExternalAOpt, MinGapAOpt,
    OffsetAOpt, Params, PiggybackAOpt, Policy, Trigger,
};
use gcs_graph::{topology, NodeId};
use gcs_sim::{
    rates, ConstantDelay, DelayModel, Engine, EngineEvent, EventSink, TimerId, UniformDelay,
};
use gcs_time::{DriftBounds, RateSchedule};

const EPS: f64 = 0.02;
const T_MAX: f64 = 0.2;
const N: usize = 9;
const SEND: TimerId = TimerId(0);

fn params() -> Params {
    Params::recommended(EPS, T_MAX).unwrap()
}

/// What made a node act: its wake, a delivery, or a timer slot firing.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Why {
    Wake,
    Deliver,
    Timer(TimerId),
}

/// One send action: node, hardware reading, and the event that caused it.
#[derive(Debug, Clone, Copy)]
struct SendRecord {
    node: usize,
    hw: f64,
    why: Why,
}

/// Records every send with its cause, every firing of the send timer,
/// and every arming of it (with its cause, the hardware reading of the
/// node's last send, and the target). A node's first arming is its start,
/// even when a delivery initialized it.
#[derive(Default)]
struct TriggerLog {
    why: Vec<Option<Why>>,
    sends: Vec<SendRecord>,
    fires: Vec<(usize, f64)>,
    arms: Vec<(usize, Why, f64, f64)>,
    last_send_hw: Vec<f64>,
    armed: Vec<bool>,
}

impl EventSink for TriggerLog {
    fn record(&mut self, event: &EngineEvent) {
        match *event {
            EngineEvent::Wake { node, .. } => self.why[node.index()] = Some(Why::Wake),
            EngineEvent::Deliver { dst, .. } => self.why[dst.index()] = Some(Why::Deliver),
            EngineEvent::TimerFire {
                node, timer, hw, ..
            } => {
                self.why[node.index()] = Some(Why::Timer(timer));
                if timer == SEND {
                    self.fires.push((node.index(), hw));
                }
            }
            EngineEvent::Send { node, hw, .. } => {
                let why = self.why[node.index()].expect("a send has a cause");
                self.sends.push(SendRecord {
                    node: node.index(),
                    hw,
                    why,
                });
                self.last_send_hw[node.index()] = hw;
            }
            EngineEvent::TimerSet {
                node,
                timer,
                target_hw,
                ..
            } if timer == SEND => {
                let v = node.index();
                let why = match std::mem::replace(&mut self.armed[v], true) {
                    false => Why::Wake,
                    true => self.why[v].expect("an arming has a cause"),
                };
                self.arms.push((v, why, self.last_send_hw[v], target_hw));
            }
            _ => {}
        }
    }
}

/// What an execution left behind: the trigger log, and `L_v^max` at every
/// send (read right after the handler that sent).
struct Run {
    log: TriggerLog,
    lmax_at_send: Vec<f64>,
    h0: f64,
}

fn run<P: Policy, D: DelayModel>(
    nodes: Vec<AOptCore<P>>,
    delay: D,
    schedules: Vec<RateSchedule>,
) -> Run {
    let h0 = nodes[0].params().h0();
    let log = TriggerLog {
        why: vec![None; N],
        last_send_hw: vec![f64::NAN; N],
        armed: vec![false; N],
        ..TriggerLog::default()
    };
    let mut engine = Engine::builder(topology::grid(3, 3))
        .protocols(nodes)
        .delay_model(delay)
        .rate_schedules(schedules)
        .event_sink(log)
        .build();
    engine.wake(NodeId(0), 0.0);
    engine.wake(NodeId(8), 0.5);
    let mut lmax_at_send = Vec::new();
    engine.run_until_observed(60.0, |e| {
        for s in &e.sink().sends[lmax_at_send.len()..] {
            lmax_at_send.push(e.protocol(NodeId(s.node)).lmax_value(s.hw));
        }
    });
    Run {
        log: engine.into_sink(),
        lmax_at_send,
        h0,
    }
}

fn split() -> Vec<RateSchedule> {
    rates::split(N, DriftBounds::new(EPS).unwrap(), |v| v % 3 < 1)
}

fn uniform() -> UniformDelay {
    UniformDelay::new(T_MAX, 5)
}

fn off_grid(x: f64, unit: f64) -> f64 {
    let k = x / unit;
    (k - k.round()).abs()
}

/// Checks the behaviour `P::TRIGGER` promises, after checking that it is
/// the trigger DESIGN.md lists for the variant.
fn check<P: Policy>(name: &str, expected: Trigger, run: Run) {
    assert_eq!(
        P::TRIGGER,
        expected,
        "{name}: trigger differs from DESIGN.md"
    );
    let Run {
        log,
        lmax_at_send,
        h0,
    } = run;
    let forwards = log.sends.iter().filter(|s| s.why == Why::Deliver).count();
    assert!(
        log.fires.len() > 5 * N,
        "{name}: the send timer rarely fired"
    );
    assert!(forwards > 0, "{name}: the execution forwarded nothing");
    match P::TRIGGER {
        Trigger::Grid => {
            // Algorithm 1: the timer fires when L_v^max reaches k·H₀.
            let mut timed = 0;
            for (s, &lmax) in log.sends.iter().zip(&lmax_at_send) {
                if s.why == Why::Timer(SEND) {
                    timed += 1;
                    assert!(
                        off_grid(lmax, h0) < 1e-6,
                        "{name}: node {} sent at L^max = {lmax}, off the H₀ grid",
                        s.node
                    );
                }
            }
            assert!(timed > 0, "{name}: no timer-triggered send");
        }
        Trigger::Periodic => {
            // Every H₀ of hardware time since start: the timer fires on the
            // k·H₀ lattice, and forwards never touch it.
            let rearmed = log.arms.iter().filter(|a| a.1 == Why::Deliver).count();
            assert_eq!(rearmed, 0, "{name}: a forward re-armed the send timer");
            for &(v, hw) in &log.fires {
                assert!(
                    off_grid(hw, h0) < 1e-6,
                    "{name}: node {v} fired at H = {hw}, off the k·H₀ lattice"
                );
            }
        }
        Trigger::Heartbeat => {
            // Every broadcast, forwards included, re-arms the timer H₀ later.
            let rearmed = log.arms.iter().filter(|a| a.1 == Why::Deliver).count();
            assert!(rearmed > 0, "{name}: no forward re-armed the send timer");
            for &(v, _, last, target) in &log.arms {
                assert!(
                    (target - last - h0).abs() < 1e-9,
                    "{name}: node {v} armed for {target}, not H₀ after its send at {last}"
                );
            }
        }
        Trigger::MinGap => {
            // Section 6.1: no two sends of a node less than H₀ apart.
            for v in 0..N {
                let hws: Vec<f64> = log
                    .sends
                    .iter()
                    .filter(|s| s.node == v)
                    .map(|s| s.hw)
                    .collect();
                for pair in hws.windows(2) {
                    assert!(
                        pair[1] - pair[0] >= h0 - 1e-9,
                        "{name}: node {v} sent at {} and {}, less than H₀ apart",
                        pair[0],
                        pair[1]
                    );
                }
            }
        }
    }
}

#[test]
fn grid_variants_send_when_lmax_reaches_the_h0_grid() {
    let p = params();
    check::<gcs_core::Plain>(
        "aopt",
        Trigger::Grid,
        run(vec![AOpt::new(p); N], uniform(), split()),
    );
    check::<gcs_core::Jump>(
        "jump",
        Trigger::Grid,
        run(vec![AOptJump::new(p); N], uniform(), split()),
    );
    check::<gcs_core::Frozen>(
        "frozen",
        Trigger::Grid,
        run(vec![AOpt::with_frozen_estimates(p); N], uniform(), split()),
    );
    // Differential encoding needs FIFO links: constant delay.
    let discrete = run(
        vec![DiscreteAOpt::new(p); N],
        ConstantDelay::new(T_MAX / 2.0),
        split(),
    );
    check::<gcs_core::Discrete>("discrete", Trigger::Grid, discrete);
    let piggyback = (0..N)
        .map(|v| PiggybackAOpt::new(p, 1.5 * p.h0(), v as u64 + 1))
        .collect();
    check::<gcs_core::Piggyback>(
        "piggyback",
        Trigger::Grid,
        run(piggyback, uniform(), split()),
    );
}

#[test]
fn periodic_variants_send_every_h0_whatever_they_forward() {
    let p = params();
    check::<gcs_core::Offset>(
        "offset",
        Trigger::Periodic,
        run(vec![OffsetAOpt::new(p, 0.0); N], uniform(), split()),
    );
    check::<gcs_core::Envelope>(
        "envelope",
        Trigger::Periodic,
        run(vec![EnvelopeAOpt::new(p); N], uniform(), split()),
    );
    let mut external = vec![ExternalAOpt::reference(p)];
    external.extend(vec![ExternalAOpt::new(p); N - 1]);
    let mut schedules = split();
    schedules[0] = RateSchedule::constant(1.0).unwrap();
    check::<gcs_core::External>(
        "external",
        Trigger::Periodic,
        run(external, uniform(), schedules),
    );
}

#[test]
fn adaptive_rearms_h0_after_every_broadcast() {
    // 𝒯̂ = 1 already exceeds every round trip (≤ 2·T_MAX), so H₀ stays put.
    let nodes = vec![AdaptiveAOpt::new(EPS, 1.0); N];
    let run = run(nodes, uniform(), split());
    check::<gcs_core::Adaptive>("adaptive", Trigger::Heartbeat, run);
}

#[test]
fn min_gap_never_sends_twice_within_h0() {
    let p = params();
    check::<gcs_core::MinGap>(
        "mingap",
        Trigger::MinGap,
        run(vec![MinGapAOpt::new(p); N], uniform(), split()),
    );
}
