//! Property tests of the incremental Λ↑/Λ↓ trackers against the retained
//! linear-scan fold, over every policy's estimate path.
//!
//! The core no longer folds over its whole neighbour table on every wake:
//! `lambda_pair` reads two incrementally maintained arg-extremes instead.
//! The claim is not "approximately equal" but **bit-identical** — the
//! tracked entry's contribution is computed by the exact expression the
//! fold would have evaluated for it, and the fold key is a weakly monotone
//! image of the estimate value at every hardware reading. These tests
//! drive randomized estimate-update/wake sequences (including the
//! owner-decrease rescans: a neighbour's offset shrinks whenever the
//! hardware clock outruns its reported logical value) through
//! `record_estimate` and check the equality at every step. Every variant
//! keeps its estimates in the same table, so the schedules also drive the
//! paths that differ by policy: the Section 8.3 compensated values, the
//! Section 6.2 reconstructed values (unguarded, so a repeated value at a
//! later hardware reading lowers the offset), the Section 8.1 adaptive
//! node, and the frozen-estimate ablation.

use gcs_core::{AOpt, AOptCore, AdaptiveAOpt, DiscreteAOpt, OffsetAOpt, Params, Policy};
use gcs_graph::NodeId;
use proptest::prelude::*;

/// A randomized estimate-update schedule: per step, which neighbour
/// reports, the raw logical value it reports, and how far the local
/// hardware clock advanced since the previous step.
fn update_schedule() -> impl Strategy<Value = Vec<(usize, f64, f64)>> {
    prop::collection::vec((0usize..6, 0.0f64..100.0, 0.0f64..3.0), 1..120)
}

fn params() -> Params {
    Params::recommended(0.01, 0.1).unwrap()
}

fn oracle<P: Policy>(node: &AOptCore<P>, hw: f64) -> Option<(u64, u64)> {
    match (node.lambda_up(hw), node.lambda_down(hw)) {
        (Some(up), Some(down)) => Some((up.to_bits(), down.to_bits())),
        _ => None,
    }
}

fn tracked<P: Policy>(node: &AOptCore<P>, hw: f64) -> Option<(u64, u64)> {
    node.lambda_pair(hw)
        .map(|(up, down)| (up.to_bits(), down.to_bits()))
}

/// Feeds `ops` through `node`'s estimate table, recording `value(w, raw)`
/// for a report of `raw` from neighbour `w`, and checks the trackers
/// against the fold after every step and at a later wake.
fn drive<P: Policy>(
    mut node: AOptCore<P>,
    ops: &[(usize, f64, f64)],
    mut value: impl FnMut(usize, f64) -> f64,
) {
    let mut hw = 0.0;
    for &(w, logical, dhw) in ops {
        hw += dhw;
        node.record_estimate(NodeId(w), value(w, logical), hw);
        assert_eq!(tracked(&node, hw), oracle(&node, hw));
    }
    // Wakes strictly between messages see the same equality: offsets
    // are static, so the argmax is hardware-reading-independent.
    assert_eq!(tracked(&node, hw + 1.0), oracle(&node, hw + 1.0));
}

proptest! {
    #[test]
    fn tracker_matches_fold_bit_for_bit(ops in update_schedule()) {
        drive(AOpt::new(params()), &ops, |_, logical| logical);
        // Section 8.3: every received value is shifted by (1 − ε̂)·𝒯₁.
        let offset = OffsetAOpt::new(params(), 0.5);
        let c = offset.compensation();
        drive(offset, &ops, |_, logical| logical + c);
        // Section 6.2: cumulative reconstructed values, advancing by 0, 1
        // or 2 quanta per message and recorded without the ℓ guard.
        let discrete = DiscreteAOpt::new(params());
        let q = discrete.quantum();
        let mut cumulative = [0.0f64; 6];
        drive(discrete, &ops, |w, logical| {
            cumulative[w] += (logical % 3.0).floor() * q;
            cumulative[w]
        });
        // Section 8.1: the adaptive node's links.
        drive(AdaptiveAOpt::new(0.01, 0.1), &ops, |_, logical| logical);
    }

    #[test]
    fn frozen_estimate_tracker_matches_fold(ops in update_schedule()) {
        // The ablated variant tracks the raw `ℓ_v^w` instead of the
        // hardware-relative offset; the monotone-image argument holds for
        // the identity map too.
        drive(AOpt::with_frozen_estimates(params()), &ops, |_, logical| logical);
    }
}
