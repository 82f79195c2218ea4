//! Adaptive observable promotion's determinism contract: with adaptation
//! on, the sequential and batched (`--threads 4`) explorers emit
//! byte-identical stable trace streams — promotions included — and with
//! adaptation off (the default) the stream is byte-identical to a run
//! that has no adaptive layer in play at all.
//!
//! The stall-prone context is manufactured the same way the
//! `anduril-bench` adaptive ablation does: strip the nearest (strongest
//! guidance) observable's entries from the failure log before
//! preparation, simulating log rotation/rate limiting around the failure.

mod common;

use anduril::trace::{TraceEvent, VecTracer};
use anduril::{
    explore_batched_traced, explore_traced, BatchExplorerConfig, ExplorerConfig, FeedbackConfig,
    FeedbackStrategy, Oracle, SearchContext,
};
use common::{degraded_context, stable_lines};

/// One traced exploration. Every run of a test shares the test's one
/// prepared context: a search leaves nothing behind in it.
fn traced_run(
    ctx: &SearchContext,
    oracle: &Oracle,
    cfg: &ExplorerConfig,
    threads: Option<usize>,
) -> Vec<TraceEvent> {
    let tracer = VecTracer::new();
    let mut s = FeedbackStrategy::new(FeedbackConfig::full());
    match threads {
        None => {
            explore_traced(ctx, oracle, &mut s, cfg, None, &tracer).expect("explore");
        }
        Some(threads) => {
            let batch = BatchExplorerConfig {
                batch_size: 8,
                threads,
            };
            explore_batched_traced(ctx, oracle, &mut s, cfg, &batch, None, &tracer)
                .expect("explore_batched");
        }
    }
    tracer.take()
}

fn promotion_count(lines: &[String]) -> usize {
    lines
        .iter()
        .filter(|l| l.contains("\"ev\":\"promoted\""))
        .count()
}

/// With adaptation on, a stall-prone degraded case promotes — and the
/// sequential and `threads = 4` batched streams stay byte-identical,
/// promotion events and all post-promotion planning included.
#[test]
fn adaptive_streams_sequential_equals_batched() {
    let (ctx, oracle) = degraded_context("f18");
    let mut cfg = ExplorerConfig {
        max_rounds: 300,
        ..ExplorerConfig::default()
    };
    cfg.adaptive.enabled = true;

    let seq = stable_lines(&traced_run(&ctx, &oracle, &cfg, None));
    assert!(
        promotion_count(&seq) > 0,
        "f18-degraded: the adaptive run must actually promote"
    );
    let bat = stable_lines(&traced_run(&ctx, &oracle, &cfg, Some(4)));
    assert_eq!(
        seq.len(),
        bat.len(),
        "f18-degraded: stream lengths differ (threads=4)"
    );
    for (i, (a, b)) in seq.iter().zip(&bat).enumerate() {
        assert_eq!(
            a, b,
            "f18-degraded: stream diverges at event {i} (threads=4)"
        );
    }
}

/// Adaptation rescues the degraded case the frozen observable set cannot
/// reproduce within the same round budget.
#[test]
fn adaptive_rescues_degraded_case() {
    let (ctx, oracle) = degraded_context("f18");
    let cfg = ExplorerConfig {
        max_rounds: 300,
        ..ExplorerConfig::default()
    };

    let fixed = traced_run(&ctx, &oracle, &cfg, None);
    let fixed_success = fixed
        .iter()
        .any(|e| matches!(e, TraceEvent::RoundEnd { oracle: true, .. }));
    assert!(
        !fixed_success,
        "f18-degraded: the frozen set should not reproduce (else this test's premise is stale)"
    );

    let mut adaptive_cfg = cfg;
    adaptive_cfg.adaptive.enabled = true;
    let adaptive = traced_run(&ctx, &oracle, &adaptive_cfg, None);
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
            TraceEvent::ObservablePromoted { k, .. } => {
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

/// `adaptive.enabled = false` (the default) is inert: no promotion events
/// appear on a search that stalls, and the stream repeats.
#[test]
fn adaptive_off_is_byte_identical() {
    let (ctx, oracle) = degraded_context("f18");
    let base = ExplorerConfig {
        max_rounds: 100,
        ..ExplorerConfig::default()
    };

    let a = stable_lines(&traced_run(&ctx, &oracle, &base, None));
    let b = stable_lines(&traced_run(&ctx, &oracle, &base, None));
    assert_eq!(
        a, b,
        "a disabled adaptive layer must leave the stream alone"
    );
    assert_eq!(promotion_count(&a), 0, "no promotions with adaptation off");
}
