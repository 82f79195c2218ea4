//! A prepared `SearchContext` is immutable: `explore(&ctx, …)` leaves
//! nothing behind that the next `explore(&ctx, …)` could see. What a
//! search mutates — the promoted observables above all — it owns.
//!
//! The degraded f5 and f18 contexts make this observable: their adaptive
//! searches promote (f5 takes 82 rounds, f18 12), and a promotion that
//! outlived its search would hand the next one a head start.

mod common;

use anduril::trace::{TraceEvent, VecTracer};
use anduril::{
    explore_traced, ExplorerConfig, FeedbackConfig, FeedbackStrategy, Oracle, Reproduction,
    SearchContext,
};
use common::{degraded_context, stable_lines};

fn search(
    ctx: &SearchContext,
    oracle: &Oracle,
    adaptive: bool,
) -> (Reproduction, Vec<String>, usize) {
    let mut cfg = ExplorerConfig {
        max_rounds: 300,
        verify_replay: false,
        ..ExplorerConfig::default()
    };
    cfg.adaptive.enabled = adaptive;
    let tracer = VecTracer::new();
    let mut s = FeedbackStrategy::new(FeedbackConfig::full());
    let r = explore_traced(ctx, oracle, &mut s, &cfg, None, &tracer).expect("explore");
    let events = tracer.take();
    let promotions = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::ObservablePromoted { .. }))
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
    assert_eq!(a.1, b.1, "{id}: {what}: stable trace");
}

#[test]
fn searches_on_one_context_do_not_see_each_other() {
    for id in ["f5", "f18"] {
        let (ctx, oracle) = degraded_context(id);

        let first = search(&ctx, &oracle, true);
        assert!(first.0.success, "{id}: the adaptive search reproduces");
        assert!(first.2 > 0, "{id}: and promotes on the way");
        let second = search(&ctx, &oracle, true);
        assert_same(
            id,
            "second adaptive search on the same context",
            &first,
            &second,
        );

        // After two promoting searches, a search with the frozen set still
        // sees the context as `prepare` left it.
        let (fresh, _) = degraded_context(id);
        let after = search(&ctx, &oracle, false);
        assert_same(
            id,
            "adaptive-off search after them",
            &search(&fresh, &oracle, false),
            &after,
        );
        assert_eq!(after.2, 0, "{id}: adaptive off never promotes");
    }
}
