//! Golden executions of every `A^opt` variant.
//!
//! Each variant runs one fixed adversarial execution on a 3×3 grid (split
//! or random-walk drift, randomized delays, a staggered start) and the test
//! pins what the execution produced, bit for bit: every node's send count
//! and final logical-clock bits, the engine's [`MessageStats`], and the
//! worst global and local skew observed after every event. Any change to
//! a variant's estimates, send trigger, rate decisions or message encoding
//! moves at least one of these values; a refactor that keeps them is
//! behaviour-preserving for that execution.
//!
//! The expected strings are recorded once and never re-recorded to make a
//! change pass.

use clock_sync::core::{
    AOpt, AOptJump, AdaptiveAOpt, DiscreteAOpt, EnvelopeAOpt, ExternalAOpt, MinGapAOpt, OffsetAOpt,
    Params, PiggybackAOpt,
};
use clock_sync::graph::{topology, Graph, NodeId};
use clock_sync::sim::{
    rates, ConstantDelay, DelayCtx, DelayModel, Delivery, Engine, FnDelay, MessageStats, Protocol,
    UniformDelay,
};
use clock_sync::time::{DriftBounds, RateSchedule};
use rand::{Rng, SeedableRng};

const EPS: f64 = 0.02;
const T_MAX: f64 = 0.2;
const HORIZON: f64 = 60.0;

fn params() -> Params {
    Params::recommended(EPS, T_MAX).unwrap()
}

fn graph() -> Graph {
    topology::grid(3, 3)
}

fn split() -> Vec<RateSchedule> {
    rates::split(9, DriftBounds::new(EPS).unwrap(), |v| v % 3 < 1)
}

fn random_walk(seed: u64) -> Vec<RateSchedule> {
    rates::random_walk(9, DriftBounds::new(EPS).unwrap(), 3.0, HORIZON, seed)
}

/// Runs one execution and renders everything the golden pins. Node 0
/// wakes at 0 and node 8 at 0.5; the rest are initialized by messages.
/// `sends` renders one node's own send counters.
fn execute<P: Protocol, D: DelayModel>(
    protocols: Vec<P>,
    delay: D,
    schedules: Vec<RateSchedule>,
    sends: impl Fn(&P) -> String,
) -> String {
    let g = graph();
    let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    let mut engine = Engine::builder(g)
        .protocols(protocols)
        .delay_model(delay)
        .rate_schedules(schedules)
        .build();
    engine.wake(NodeId(0), 0.0);
    engine.wake(NodeId(8), 0.5);
    let (mut global, mut local) = (0.0f64, 0.0f64);
    engine.run_until_observed(HORIZON, |e| {
        let clocks = e.logical_values();
        let max = clocks.iter().cloned().fold(f64::MIN, f64::max);
        let min = clocks.iter().cloned().fold(f64::MAX, f64::min);
        global = global.max(max - min);
        for &(u, v) in &edges {
            local = local.max((clocks[u.index()] - clocks[v.index()]).abs());
        }
    });
    let n = engine.logical_values().len();
    let node_sends: Vec<String> = (0..n).map(|v| sends(engine.protocol(NodeId(v)))).collect();
    let clocks: Vec<String> = engine
        .logical_values()
        .iter()
        .map(|l| format!("{:016x}", l.to_bits()))
        .collect();
    let s: &MessageStats = engine.message_stats();
    format!(
        "sends {}\nclocks {}\nstats send_events={} transmissions={} deliveries={} dropped={} \
         duplicated={} per_node_sends={:?} per_node_deliveries={:?}\n\
         skew global={:016x} local={:016x}",
        node_sends.join(" "),
        clocks.join(" "),
        s.send_events,
        s.transmissions,
        s.deliveries,
        s.dropped,
        s.duplicated,
        s.per_node_sends,
        s.per_node_deliveries,
        global.to_bits(),
        local.to_bits(),
    )
}

/// Delays uniform in `[t1, t2]` (the Section 8.3 model).
fn banded(t1: f64, t2: f64, seed: u64) -> FnDelay<impl FnMut(&DelayCtx<'_>) -> Delivery + Clone> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    FnDelay::new(
        move |_: &DelayCtx<'_>| Delivery::After(rng.gen_range(t1..=t2)),
        Some(t2),
    )
}

fn check(name: &str, actual: String, expected: &str) {
    assert_eq!(actual, expected, "golden execution of `{name}` moved");
}

#[test]
fn aopt_golden() {
    let actual = execute(
        vec![AOpt::new(params()); 9],
        UniformDelay::new(T_MAX, 11),
        split(),
        |p| p.sends().to_string(),
    );
    check("aopt", actual, AOPT);
}

#[test]
fn frozen_estimates_golden() {
    let actual = execute(
        vec![AOpt::with_frozen_estimates(params()); 9],
        UniformDelay::new(T_MAX, 12),
        random_walk(2),
        |p| p.sends().to_string(),
    );
    check("frozen", actual, FROZEN);
}

#[test]
fn jump_golden() {
    let actual = execute(
        vec![AOptJump::new(params()); 9],
        UniformDelay::new(T_MAX, 13),
        split(),
        |p| p.inner().sends().to_string(),
    );
    check("jump", actual, JUMP);
}

#[test]
fn min_gap_golden() {
    let actual = execute(
        vec![MinGapAOpt::new(params()); 9],
        UniformDelay::new(T_MAX, 14),
        random_walk(4),
        |p| p.sends().to_string(),
    );
    check("mingap", actual, MIN_GAP);
}

#[test]
fn envelope_golden() {
    let actual = execute(
        vec![EnvelopeAOpt::new(params()); 9],
        UniformDelay::new(T_MAX, 15),
        random_walk(5),
        |p| p.sends().to_string(),
    );
    check("envelope", actual, ENVELOPE);
}

#[test]
fn offset_golden() {
    let actual = execute(
        vec![OffsetAOpt::new(params(), 0.5); 9],
        banded(0.5, 0.5 + T_MAX, 16),
        split(),
        |p| p.sends().to_string(),
    );
    check("offset", actual, OFFSET);
}

#[test]
fn external_golden() {
    // Node 0 is the reference; its hardware clock is real time.
    let mut nodes = vec![ExternalAOpt::reference(params())];
    nodes.extend(vec![ExternalAOpt::new(params()); 8]);
    let mut schedules = random_walk(7);
    schedules[0] = RateSchedule::constant(1.0).unwrap();
    let actual = execute(nodes, UniformDelay::new(T_MAX, 17), schedules, |p| {
        p.sends().to_string()
    });
    check("external", actual, EXTERNAL);
}

#[test]
fn discrete_golden() {
    // Differential encoding needs FIFO links: constant delay.
    let actual = execute(
        vec![DiscreteAOpt::new(params()); 9],
        ConstantDelay::new(T_MAX / 2.0),
        split(),
        |p| p.sends().to_string(),
    );
    check("discrete", actual, DISCRETE);
}

#[test]
fn piggyback_golden() {
    let p = params();
    let nodes = (0..9)
        .map(|v| PiggybackAOpt::new(p, 1.5 * p.h0(), v as u64 + 1))
        .collect();
    let actual = execute(nodes, UniformDelay::new(T_MAX, 19), random_walk(9), |p| {
        format!("{}+{}", p.dedicated_sends(), p.piggybacked_sends())
    });
    check("piggyback", actual, PIGGYBACK);
}

#[test]
fn adaptive_golden() {
    let actual = execute(
        vec![AdaptiveAOpt::new(EPS, 0.01); 9],
        UniformDelay::new(T_MAX, 20),
        split(),
        |p| {
            format!(
                "{}/{}/{:016x}",
                p.sends(),
                p.adaptations(),
                p.t_hat().to_bits()
            )
        },
    );
    check("adaptive", actual, ADAPTIVE);
}

const AOPT: &str = "\
sends 88 88 88 88 88 88 88 88 88\n\
clocks 404e99999999999a 404e8acd0b7448d2 404e88bf6b940154 404e991880556290 404e907377301f18 404e877564923cf7 404e984935609b64 404e955312b89e8e 404e8100c50ccf5b\n\
stats send_events=792 transmissions=2112 deliveries=2110 dropped=0 duplicated=0 per_node_sends=[88, 88, 88, 88, 88, 88, 88, 88, 88] per_node_deliveries=[176, 264, 176, 264, 351, 263, 176, 264, 176]\n\
skew global=3fd2f670ec6dd2e8 local=3fca3b681c4bd078";
const FROZEN: &str = "\
sends 87 87 87 87 87 87 87 87 87\n\
clocks 404e46e19543a23b 404e44e18408c608 404e41097095ac2a 404e467ae0fb61fb 404e45a49a1efc78 404e43f80fd747c7 404e3b9e58bb3be5 404e44a343d25fc3 404e3cc9ee92775a\n\
stats send_events=783 transmissions=2088 deliveries=2088 dropped=0 duplicated=0 per_node_sends=[87, 87, 87, 87, 87, 87, 87, 87, 87] per_node_deliveries=[174, 261, 174, 261, 348, 261, 174, 261, 174]\n\
skew global=3fd6567684fd3534 local=3fc6c5e62c1e4668";
const JUMP: &str = "\
sends 88 88 88 88 88 88 88 88 88\n\
clocks 404e99999999999a 404e8593fc6f1596 404e84e83769b4cc 404e998c0f1dce6a 404e9310d9770c76 404e8c9f1651d00f 404e98b59f2d8b5e 404e91d66e931db3 404e9042aef63479\n\
stats send_events=792 transmissions=2112 deliveries=2110 dropped=0 duplicated=0 per_node_sends=[88, 88, 88, 88, 88, 88, 88, 88, 88] per_node_deliveries=[176, 264, 176, 264, 351, 263, 176, 264, 176]\n\
skew global=3fd30055b1c5955b local=3fcea202d3afdf1a";
const MIN_GAP: &str = "\
sends 86 86 86 86 86 86 86 86 86\n\
clocks 404e3bd4b816bb44 404e3e5ccd005c8c 404e400b55199838 404e336c3920eedd 404e33b5474b6b53 404e3892ff7b868f 404e3950bd402e16 404e3740e7b11a5d 404e37fbfd51dced\n\
stats send_events=774 transmissions=2064 deliveries=2063 dropped=0 duplicated=0 per_node_sends=[86, 86, 86, 86, 86, 86, 86, 86, 86] per_node_deliveries=[172, 258, 172, 258, 344, 258, 172, 257, 172]\n\
skew global=3fd1256832a34dac local=3fc9456fe24c4baa";
const ENVELOPE: &str = "\
sends 86 131 142 120 146 147 140 149 124\n\
clocks 404e0602848e8dc1 404dfa9f78bed4d7 404df0efbb2fea3c 404dfae8ceac7269 404def10673d9626 404defb8988c0fa1 404dee075d43e389 404dee435025e298 404df03b3ae25598\n\
stats send_events=1185 transmissions=3209 deliveries=3208 dropped=0 duplicated=0 per_node_sends=[86, 131, 142, 120, 146, 147, 140, 149, 124] per_node_deliveries=[251, 374, 278, 372, 547, 411, 269, 410, 296]\n\
skew global=3fd5beebeef202c0 local=3fc9291a416c5ee8";
const OFFSET: &str = "\
sends 88 131 150 91 136 145 92 139 140\n\
clocks 404e99999999999a 404e947ef85e1557 404e851f1b9be38b 404e96fba065557a 404e8d925bea79a2 404e82d7a3ad5385 404e94144f0b3326 404e8306e471b127 404e82b596a7147d\n\
stats send_events=1112 transmissions=3002 deliveries=2964 dropped=0 duplicated=0 per_node_sends=[88, 131, 150, 91, 136, 145, 92, 139, 140] per_node_deliveries=[219, 370, 272, 313, 500, 419, 227, 363, 281]\n\
skew global=3ff3240136f574ac local=3fe772a29d7366f6";
const EXTERNAL: &str = "\
sends 86 120 117 125 121 135 123 125 123\n\
clocks 404e000000000000 404dfda78a222aed 404dfca594386b20 404dfde8e9ace861 404df9307363c74b 404dfaa4072ba0e8 404df89fb9e6714e 404df2b5b58a627f 404df87ecfb07a92\n\
stats send_events=1075 transmissions=2897 deliveries=2893 dropped=0 duplicated=0 per_node_sends=[86, 120, 117, 125, 121, 135, 123, 125, 123] per_node_deliveries=[245, 323, 255, 329, 505, 360, 250, 366, 260]\n\
skew global=3fcde0a64fdaef50 local=3fc24898eae65d00";
const DISCRETE: &str = "\
sends 88 88 88 88 88 87 88 87 87\n\
clocks 404e99999999999a 404e8b8cd4829712 404e7edd95e7d358 404e8c8b43958106 404e7edd95e7d358 404e6ef2c9d41181 404e7f7ced916872 404e6ef2c9d41181 404e6267863e907b\n\
stats send_events=789 transmissions=2104 deliveries=2096 dropped=0 duplicated=0 per_node_sends=[88, 88, 88, 88, 88, 87, 88, 87, 87] per_node_deliveries=[176, 262, 175, 262, 350, 261, 175, 261, 174]\n\
skew global=3fdbde6dc9f2e980 local=3fc091d9879c1800";
const PIGGYBACK: &str = "\
sends 4+58 2+63 1+63 5+53 4+53 3+52 3+53 2+55 3+55\n\
clocks 404e311fb7a0211e 404e31acca9a0068 404e3d90543db922 404e332fcaa943d0 404e35cce2b02ed2 404e3156bbe0c646 404e36f22f337fa3 404e334882a85bd2 404e3c2b27404f91\n\
stats send_events=532 transmissions=1413 deliveries=1407 dropped=0 duplicated=0 per_node_sends=[62, 65, 64, 58, 57, 55, 56, 57, 58] per_node_deliveries=[123, 182, 120, 173, 235, 178, 115, 169, 112]\n\
skew global=3fd2947575e8ac7a local=3fcc3b2fbe475da0";
const ADAPTIVE: &str = "\
sends 50/2/3fd9b29f26d39e10 62/4/3fd9b29f26d39e10 73/4/3fd9b29f26d39e10 50/4/3fd9b29f26d39e10 69/4/3fd9b29f26d39e10 75/4/3fd9b29f26d39e10 52/4/3fd9b29f26d39e10 77/5/3fd9b29f26d39e10 79/4/3fd9b29f26d39e10\n\
clocks 404e99999999999a 404e8a14cf254c5e 404e88547a4be774 404e9966db0b3f1e 404e90642cf61c5e 404e8e19d2fd9017 404e98ee3e0a35f3 404e90c10ef7e89d 404e8afa83951aa5\n\
stats send_events=1764 transmissions=2309 deliveries=2309 dropped=0 duplicated=0 per_node_sends=[171, 205, 149, 261, 242, 196, 171, 216, 153] per_node_deliveries=[212, 261, 195, 315, 336, 293, 221, 272, 204]\n\
skew global=3fd28fdac606fea0 local=3fca5bfffd9cfd00";
