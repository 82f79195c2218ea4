//! Robustness: reproduction must not depend on one magic seed or one exact
//! workload — the paper's inputs are a *production* log (arbitrary run)
//! and any workload that exercises the affected feature.

use anduril::failures::{case_by_id, CaseError};
use anduril::sim::InjectionPlan;
use anduril::{explore, ExplorerConfig, FeedbackConfig, FeedbackStrategy, NoopTracer};

/// Reproduce a case whose "production" failure happened under a different
/// seed than the registered one.
fn reproduce_with_failure_seed(id: &str, failure_seed: u64) -> bool {
    let mut case = case_by_id(id).expect("case");
    case.failure_seed = failure_seed;
    // The ground truth scan may land on a different occurrence under the
    // new seed; some seeds may not reach the failure state at all (the
    // paper's probabilistic-reproduction caveat, §6). Skip those.
    let prepared = match case.prepare(1_000, &NoopTracer) {
        Ok(prepared) => prepared,
        Err(CaseError::NotReproducible(_)) => return true,
        Err(e) => panic!("{id}: {e}"),
    };
    let mut strategy = FeedbackStrategy::new(FeedbackConfig::full());
    let r = explore(
        &prepared.ctx,
        &case.oracle,
        &mut strategy,
        &ExplorerConfig::default(),
        Some(prepared.gt.site),
    )
    .expect("explore");
    r.success
}

#[test]
fn reproduction_is_not_seed_specific() {
    for id in ["f3", "f8", "f17", "f22"] {
        for seed in [7_777u64, 31_337, 424_242] {
            assert!(
                reproduce_with_failure_seed(id, seed),
                "{id} not reproduced for failure seed {seed}"
            );
        }
    }
}

#[test]
fn normal_runs_vary_across_seeds_but_stay_healthy() {
    // The flexible window exists because runs are nondeterministic across
    // rounds; verify the premise: different seeds produce different logs,
    // none of which satisfy the oracle.
    for id in ["f1", "f16", "f21"] {
        let case = case_by_id(id).expect("case");
        let mut texts = std::collections::HashSet::new();
        for seed in 0..5u64 {
            let r = case.scenario.run(seed, InjectionPlan::none()).expect("run");
            assert!(!case.oracle.check(&r), "{id}: healthy run satisfied oracle");
            texts.insert(r.log_text());
        }
        assert!(
            texts.len() >= 3,
            "{id}: only {} distinct logs across 5 seeds",
            texts.len()
        );
    }
}

#[test]
fn instance_counts_shift_across_seeds() {
    // The premise of the occurrence-targeted window: the same site has a
    // similar-but-not-identical number of dynamic instances per run.
    let case = case_by_id("f17").expect("case");
    let site = case.root_site().expect("site");
    let mut counts = std::collections::BTreeSet::new();
    for seed in 0..6u64 {
        let r = case.scenario.run(seed, InjectionPlan::none()).expect("run");
        counts.insert(r.site_occurrences[site.index()]);
    }
    let min = *counts.iter().next().unwrap();
    let max = *counts.iter().last().unwrap();
    assert!(max > 0);
    assert!(
        max - min <= min,
        "instance counts should be in the same ballpark: {counts:?}"
    );
    assert!(counts.len() >= 2, "and not perfectly constant: {counts:?}");
}
