//! The headline result (Table 2, first column): ANDURIL reproduces all 22
//! real-world failures, identifying the root-cause fault and timing.

use anduril::failures::all_cases;
use anduril::{explore, ExplorerConfig, FeedbackConfig, FeedbackStrategy, NoopTracer};

#[test]
fn every_case_is_fault_induced() {
    // The defining property: the workload alone never satisfies the
    // oracle — the failure needs its fault.
    for case in all_cases() {
        assert!(
            case.fault_free_run_is_healthy().expect("run ok"),
            "{}: oracle satisfied without any fault",
            case.id
        );
    }
}

#[test]
fn every_case_has_a_resolvable_ground_truth() {
    for case in all_cases() {
        let gt = case
            .ground_truth()
            .unwrap_or_else(|e| panic!("{}: {e}", case.id));
        assert_eq!(gt.exc, case.root_exc, "{}", case.id);
    }
}

#[test]
fn full_feedback_reproduces_all_22_failures() {
    let mut reproduced = 0;
    let mut total_rounds = Vec::new();
    for case in all_cases() {
        let prepared = case.prepare(1_000, &NoopTracer).expect("prepare");
        let mut strategy = FeedbackStrategy::new(FeedbackConfig::full());
        let repro = explore(
            &prepared.ctx,
            &case.oracle,
            &mut strategy,
            &ExplorerConfig::default(),
            Some(prepared.gt.site),
        )
        .expect("exploration runs");
        assert!(
            repro.success,
            "{} ({}) not reproduced within {} rounds",
            case.id, case.ticket, repro.rounds
        );
        assert!(
            repro.replay_verified,
            "{}: reproduction script must replay deterministically",
            case.id
        );
        let script = repro.script.expect("script");
        // The injected exception type is one the reproduced site declares
        // (for multi-exception sites like f5's image save, either declared
        // type satisfies the oracle — the handler is a multi-catch).
        let site_info = &case.scenario.program.sites[script.site.index()];
        assert!(
            site_info.exceptions.contains(&script.exc),
            "{}: {} not declared by {}",
            case.id,
            script.exc,
            site_info.desc
        );
        reproduced += 1;
        total_rounds.push(repro.rounds);
    }
    assert_eq!(reproduced, 22, "all 22 failures reproduce");
    total_rounds.sort_unstable();
    let median = total_rounds[total_rounds.len() / 2];
    // The paper's median is 11 rounds on systems ~1000x larger; ours must
    // at least stay in the same efficient regime.
    assert!(
        median <= 30,
        "median rounds {median} too high: {total_rounds:?}"
    );
}

#[test]
fn case_registry_is_consistent() {
    let cases = all_cases();
    assert_eq!(cases.len(), 22);
    for (i, c) in cases.iter().enumerate() {
        assert_eq!(c.id, format!("f{}", i + 1), "cases are ordered");
        assert!(!c.description.is_empty());
        // The declared root site exists in the program.
        assert!(
            c.root_site().is_ok(),
            "{}: root site {} missing",
            c.id,
            c.root_site_desc
        );
    }
    // Exactly five deeper-cause findings (Table 6).
    let deeper: usize = cases.iter().map(|c| c.deeper_causes.len()).sum();
    assert_eq!(deeper, 5);
    // All five systems are covered.
    let systems: std::collections::BTreeSet<_> = cases.iter().map(|c| c.system).collect();
    assert_eq!(systems.len(), 5);
}
