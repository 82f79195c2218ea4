//! The interned structured diff is a pure representation change. On every
//! round log of three real searches, rendering the log to text, re-parsing
//! it and diffing `(level, body)` string keys (`logdiff::compare`, the
//! reference formulation) finds the same missing entries and the same
//! matches as `InternedLog::compare` over the structured entries — the
//! only path the explorer has.

use anduril::failures::case_by_id;
use anduril::logdiff::{compare, parse_log};
use anduril::{
    explore, ExplorerConfig, FeedbackConfig, FeedbackStrategy, RoundOutcome, SearchContext,
    Strategy,
};

/// Walks the search of `id` round by round (the explorer's loop, by hand,
/// so each round's `RunResult` is in reach) and checks both diffs on every
/// round log. Returns the rounds taken.
fn check_every_round(id: &str) -> usize {
    let case = case_by_id(id).expect("case");
    let failure_log = case.failure_log().expect("failure log");
    let ctx = SearchContext::prepare(case.scenario.clone(), &failure_log, 1_000).expect("context");
    let cfg = ExplorerConfig::default();

    let mut s = FeedbackStrategy::new(FeedbackConfig::full());
    s.init(&ctx);
    for round in 0..cfg.max_rounds {
        let plan = s.plan_injection(&ctx, round).expect("space not exhausted");
        s.drain_notes();
        let result = ctx
            .run_round(cfg.base_seed + 1 + round as u64, plan)
            .expect("round");

        let text = compare(&parse_log(&result.log_text()), &ctx.failure);
        let interned = ctx.failure_interned.compare(&result.log);
        assert_eq!(text.missing, interned.missing, "{id}: missing @{round}");
        assert_eq!(text.matches, interned.matches, "{id}: matches @{round}");

        if case.oracle.check(&result) && result.injected.is_some() {
            // The hand-walked loop is the search `explore` runs.
            let mut s = FeedbackStrategy::new(FeedbackConfig::full());
            let r = explore(&ctx, &case.oracle, &mut s, &cfg, None).expect("explore");
            assert!(r.success, "{id}: reproduced");
            assert_eq!(r.rounds, round + 1, "{id}: rounds");
            return r.rounds;
        }
        s.feedback(&ctx, &RoundOutcome::new(&ctx, result));
        s.drain_notes();
    }
    panic!("{id}: not reproduced");
}

/// Three cases spanning short and long searches: f3 (short), f9, and f17
/// (the motivating example, with a retry pass).
#[test]
fn fast_path_matches_text_baseline() {
    let rounds = ["f3", "f9", "f17"].map(check_every_round);
    assert!(rounds[2] > 10, "f17 is the long search: {rounds:?}");
}
