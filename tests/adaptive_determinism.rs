//! Adaptive observable promotion's determinism contract: only the trusted
//! model promotes, never the batch engine's copy. What that buys — a
//! batched search that is the sequential one, promotions included, and
//! adaptation that leaves a search that never stalls alone — is pinned by
//! `tests/search_digests.rs`, row by row.
//!
//! The stall-prone context is `PreparedCase::degraded`'s: the nearest
//! (strongest guidance) observable's entries stripped from the failure log
//! before preparation, simulating log rotation/rate limiting around the
//! failure.

mod common;

use anduril::trace::{StrategyNote, TraceEvent, VecTracer};
use anduril::{
    explore_traced, ExplorerConfig, FeedbackConfig, FeedbackStrategy, Oracle, RoundOutcome,
    SearchContext, Strategy,
};
use common::degraded_context;

/// One traced exploration of 300 rounds at most. Every run of a test
/// shares the test's one prepared context: a search leaves nothing behind
/// in it.
fn traced_run(ctx: &SearchContext, oracle: &Oracle, feedback: FeedbackConfig) -> Vec<TraceEvent> {
    let tracer = VecTracer::new();
    let mut s = FeedbackStrategy::new(feedback);
    let cfg = ExplorerConfig {
        max_rounds: 300,
        ..ExplorerConfig::default()
    };
    explore_traced(ctx, oracle, &mut s, &cfg, None, &tracer).expect("explore");
    tracer.take()
}

/// Adaptation rescues the degraded case the frozen observable set cannot
/// reproduce within the same round budget.
#[test]
fn adaptive_rescues_degraded_case() {
    let (ctx, oracle) = degraded_context("f18");

    let fixed = traced_run(&ctx, &oracle, FeedbackConfig::full());
    let fixed_success = fixed
        .iter()
        .any(|e| matches!(e, TraceEvent::RoundEnd { oracle: true, .. }));
    assert!(
        !fixed_success,
        "f18-degraded: the frozen set should not reproduce (else this test's premise is stale)"
    );

    let adaptive = traced_run(&ctx, &oracle, FeedbackConfig::full_adaptive());
    assert!(
        adaptive
            .iter()
            .any(|e| matches!(e, TraceEvent::RoundEnd { oracle: true, .. }),),
        "f18-degraded: adaptation must rescue the search"
    );

    // The promoted observable grows the `I_k` vector: feedback events
    // after the promotion carry the longer vector.
    let mut promoted_at = None;
    for (i, e) in adaptive.iter().enumerate() {
        match e {
            TraceEvent::Note {
                note: StrategyNote::ObservablePromoted { k, .. },
                ..
            } => {
                promoted_at = Some((i, *k));
            }
            TraceEvent::Feedback { i_k, .. } => {
                if let Some((at, k)) = promoted_at {
                    assert!(
                        i_k.len() > k,
                        "feedback after promotion (event {at}) must carry the grown I_k vector"
                    );
                }
            }
            _ => {}
        }
    }
    assert!(promoted_at.is_some(), "adaptive run must promote");
}

fn promotions(notes: &[StrategyNote]) -> usize {
    let promoted = |n: &&StrategyNote| matches!(n, StrategyNote::ObservablePromoted { .. });
    notes.iter().filter(promoted).count()
}

/// A `full-adaptive` model on degraded f5 and, each round, the copy the
/// batch engine would speculate on: both plan alike, and at the first
/// pass boundary both start the retry pass, but only the model promotes —
/// appending observables and queueing their notes right behind its
/// pass-0 `WindowExhausted` note — while the copy appends none and queues
/// none.
#[test]
fn a_speculative_copy_never_promotes() {
    let (ctx, _) = degraded_context("f5");
    let prepared = ctx.observables.len();
    let mut model = FeedbackStrategy::new(FeedbackConfig::full_adaptive());
    model.init(&ctx);
    for round in 0..300 {
        let mut copy = model.speculative_copy();
        let plan = model.plan_injection(&ctx, round);
        assert_eq!(copy.plan_injection(&ctx, round), plan, "round {round}");
        if model.passes() == 0 {
            let seed = ctx.base_seed + 1 + round as u64;
            let result = ctx.run_round(seed, plan.expect("a plan")).expect("run");
            model.feedback(&ctx, &RoundOutcome::new(&ctx, result));
            model.drain_notes();
            continue;
        }
        assert_eq!(copy.passes(), 1, "round {round}: both retry");
        let exhausted =
            |n: &StrategyNote| matches!(n, StrategyNote::WindowExhausted { pass: 0, .. });
        let notes = model.drain_notes();
        let stall = notes.iter().position(exhausted);
        let promoted = promotions(&notes);
        assert!(promoted > 0, "round {round}: the model promotes: {notes:?}");
        assert_eq!(model.observable_priorities().len(), prepared + promoted);
        assert!(matches!(
            notes[stall.expect("an exhausted window") + 1],
            StrategyNote::ObservablePromoted { .. }
        ));
        let copy_notes = copy.drain_notes();
        assert!(copy_notes.iter().any(exhausted));
        assert_eq!(promotions(&copy_notes), 0, "{copy_notes:?}");
        assert_eq!(copy.observable_priorities().len(), prepared);
        return;
    }
    panic!("degraded f5 never started a retry pass");
}
