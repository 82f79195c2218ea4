//! What Table 2's shape needs beyond the registry's rows: the k / s
//! settings Table 3 varies, and one ticket per case. Where full feedback
//! beats the ablation variants and external comparators is read off the
//! pinned rows in `tests/search_digests.rs`.

use anduril::failures::{all_cases, case_by_id};
use anduril::{explore, ExplorerConfig, FeedbackConfig, FeedbackStrategy, NoopTracer};

#[test]
fn sensitivity_settings_still_reproduce_most_cases() {
    // Table 3's shape: k and s variations change rounds but rarely break
    // reproduction. Spot-check the extremes on three cases.
    let cfg = ExplorerConfig {
        max_rounds: 1_000,
        ..ExplorerConfig::default()
    };
    for id in ["f3", "f9", "f12"] {
        let case = case_by_id(id).expect("case exists");
        let prepared = case.prepare(cfg.base_seed, &NoopTracer).expect("prepare");
        for (k, s) in [(1usize, 1.0f64), (3, 2.0), (10, 10.0)] {
            let mut strat = FeedbackStrategy::new(FeedbackConfig::full_with(k, s));
            let r = explore(&prepared.ctx, &case.oracle, &mut strat, &cfg, None).expect("runs");
            assert!(r.success, "{id} with k={k}, s={s}");
        }
    }
}

#[test]
fn all_cases_have_unique_tickets() {
    let cases = all_cases();
    let mut tickets: Vec<_> = cases.iter().map(|c| c.ticket).collect();
    tickets.sort_unstable();
    tickets.dedup();
    assert_eq!(tickets.len(), 22);
}
