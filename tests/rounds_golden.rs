//! Rounds to reproduce each of the 22 tickets under `full-feedback` at
//! base seed 1000 — the paper's Table 2 metric, pinned exactly. The search
//! is deterministic, so any change to a number here is a change to the
//! search: a planner, diff, graph or simulator change moved it. Update the
//! table in the PR that causes the move, and say why.
//!
//! The sum is `e2e`'s `first_campaign` `rounds_total` on `tickets22`.

use anduril::failures::all_cases;
use anduril::{explore, ExplorerConfig, FeedbackConfig, FeedbackStrategy, NoopTracer};

const GOLDEN: [(&str, usize); 22] = [
    ("f1", 3),
    ("f2", 13),
    ("f3", 1),
    ("f4", 1),
    ("f5", 6),
    ("f6", 14),
    ("f7", 7),
    ("f8", 1),
    ("f9", 1),
    ("f10", 1),
    ("f11", 6),
    ("f12", 1),
    ("f13", 1),
    ("f14", 1),
    ("f15", 1),
    ("f16", 1),
    ("f17", 12),
    ("f18", 3),
    ("f19", 2),
    ("f20", 9),
    ("f21", 2),
    ("f22", 1),
];

#[test]
fn full_feedback_rounds_per_ticket_are_pinned() {
    let cfg = ExplorerConfig::default();
    let actual: Vec<(&str, usize)> = all_cases()
        .into_iter()
        .map(|case| {
            let ctx = case
                .prepare(cfg.base_seed, &NoopTracer)
                .expect("prepare")
                .ctx;
            let mut strategy = FeedbackStrategy::new(FeedbackConfig::full());
            let r = explore(&ctx, &case.oracle, &mut strategy, &cfg, None).expect("explore");
            assert!(r.success && r.replay_verified, "{}: reproduced", case.id);
            (case.id, r.rounds)
        })
        .collect();
    assert_eq!(actual, GOLDEN, "rounds to reproduce moved");
    assert_eq!(actual.iter().map(|&(_, r)| r).sum::<usize>(), 88);
}
