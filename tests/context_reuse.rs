//! A prepared `SearchContext` is immutable: `explore(&ctx, …)` leaves
//! nothing behind that the next `explore(&ctx, …)` could see. What a
//! search mutates — the promoted observables above all — its strategy
//! owns, and `Strategy::init` resets.
//!
//! The degraded f5 and f18 contexts make this observable: their adaptive
//! searches promote (f5 takes 82 rounds, f18 12), and a promotion that
//! outlived its search would hand the next one a head start, whether it
//! stayed behind in the context or in a strategy searched with again. Nor
//! do two searches running at once on the one context disturb each other.

mod common;

use anduril::trace::{StrategyNote, TraceEvent, VecTracer};
use anduril::{
    explore_batched_traced, explore_traced, BatchExplorerConfig, ExplorerConfig, FeedbackConfig,
    FeedbackStrategy, Oracle, Reproduction, SearchContext,
};
use common::{degraded_context, stable_lines};

fn full() -> FeedbackStrategy {
    FeedbackStrategy::new(FeedbackConfig::full())
}

fn adaptive() -> FeedbackStrategy {
    FeedbackStrategy::new(FeedbackConfig::full_adaptive())
}

fn search(
    s: &mut FeedbackStrategy,
    ctx: &SearchContext,
    oracle: &Oracle,
    batch: Option<&BatchExplorerConfig>,
) -> (Reproduction, Vec<String>, usize) {
    let cfg = ExplorerConfig {
        max_rounds: 300,
        ..ExplorerConfig::default()
    };
    let tracer = VecTracer::new();
    let r = match batch {
        None => explore_traced(ctx, oracle, s, &cfg, None, &tracer),
        Some(batch) => explore_batched_traced(ctx, oracle, s, &cfg, batch, None, &tracer),
    }
    .expect("explore");
    let events = tracer.take();
    let promotions = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::Note {
                    note: StrategyNote::ObservablePromoted { .. },
                    ..
                }
            )
        })
        .count();
    (r, stable_lines(&events), promotions)
}

fn assert_same(
    id: &str,
    what: &str,
    a: &(Reproduction, Vec<String>, usize),
    b: &(Reproduction, Vec<String>, usize),
) {
    assert_eq!(a.0.success, b.0.success, "{id}: {what}: success");
    assert_eq!(a.0.rounds, b.0.rounds, "{id}: {what}: rounds");
    assert_eq!(a.0.script, b.0.script, "{id}: {what}: script");
    assert_eq!(a.0.replay_verified, b.0.replay_verified, "{id}: {what}");
    assert_eq!(
        a.0.injection_requests, b.0.injection_requests,
        "{id}: {what}"
    );
    assert_eq!(a.0.armed_requests, b.0.armed_requests, "{id}: {what}");
    assert_eq!(a.0.sim_time_total, b.0.sim_time_total, "{id}: {what}");
    assert_eq!(a.1, b.1, "{id}: {what}: stable trace");
}

#[test]
fn searches_on_one_context_do_not_see_each_other() {
    // One strategy value for both contexts: f18's first search comes after
    // two on f5, and is still the fresh value's search.
    let mut strategy = adaptive();
    for id in ["f5", "f18"] {
        let (ctx, oracle) = degraded_context(id);

        let first = search(&mut strategy, &ctx, &oracle, None);
        assert!(first.0.success, "{id}: the adaptive search reproduces");
        assert!(first.2 > 0, "{id}: and promotes on the way");
        let second = search(&mut adaptive(), &ctx, &oracle, None);
        assert_same(
            id,
            "second adaptive search on the same context",
            &first,
            &second,
        );
        // The promotions live in the strategy value: searching with it
        // again (`explore` calls `init` first, nothing else in between)
        // starts from the prepared observable set once more.
        let reused = search(&mut strategy, &ctx, &oracle, None);
        assert_same(
            id,
            "second adaptive search with the first one's strategy",
            &first,
            &reused,
        );

        // A sequential and a batched search at the same time (the barrier
        // starts them together; the batch workers share the context too):
        // each emits the solo search's stream, which carries every round's
        // decision, injection and verdict.
        let batch = BatchExplorerConfig {
            batch_size: 8,
            threads: 2,
        };
        let start = std::sync::Barrier::new(2);
        let together = |batch| {
            start.wait();
            search(&mut adaptive(), &ctx, &oracle, batch)
        };
        let (seq, bat) = std::thread::scope(|scope| {
            let seq = scope.spawn(|| together(None));
            let bat = scope.spawn(|| together(Some(&batch)));
            (
                seq.join().expect("sequential"),
                bat.join().expect("batched"),
            )
        });
        assert_same(id, "sequential search beside a batched one", &first, &seq);
        assert_same(id, "batched search beside a sequential one", &first, &bat);

        // After the promoting searches, a search with the frozen set still
        // sees the context as `prepare` left it.
        let (fresh, _) = degraded_context(id);
        let after = search(&mut full(), &ctx, &oracle, None);
        assert_same(
            id,
            "fixed-set search after them",
            &search(&mut full(), &fresh, &oracle, None),
            &after,
        );
        assert_eq!(after.2, 0, "{id}: the fixed set never grows");
    }
}
