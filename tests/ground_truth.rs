//! Ground-truth resolution runs nothing twice, and finds what it found
//! when it did.
//!
//! `FailureCase::{ground_truth, failure_log, prepare}` compile the program
//! once, try occurrence after occurrence until a run stops injecting, and
//! keep the winning run's log. The path they replace — spelled out here as
//! the reference — counted occurrences with a fault-free run of its own,
//! recompiled for every candidate and ran the winner once more to render
//! its log. Same ground truth, same log, byte for byte, on the 22 tickets
//! and on `e2e --smoke`'s generated corpus.

use anduril::failures::{all_cases, FailureCase};
use anduril::gen::{generate_one, GenConfig, SizeClass};
use anduril::sim::InjectionPlan;
use anduril::NoopTracer;

/// `(occurrence, failure log)` the way resolution used to find them.
fn reference(case: &FailureCase) -> Option<(u32, String)> {
    let site = case.root_site().expect("root site");
    let run = |plan| case.scenario.run(case.failure_seed, plan).expect("run");
    let total = run(InjectionPlan::none()).site_occurrences[site.index()];
    (0..total.max(1)).find_map(|occurrence| {
        let r = run(InjectionPlan::exact(site, occurrence, case.root_exc));
        (r.injected.is_some() && case.oracle.check(&r)).then(|| {
            let again = run(InjectionPlan::exact(site, occurrence, case.root_exc));
            (occurrence, again.log_text())
        })
    })
}

fn check(case: &FailureCase) {
    let (occurrence, log) = reference(case).expect("reference resolves");
    let gt = case.ground_truth().expect("ground truth");
    assert_eq!(gt.site, case.root_site().expect("root site"), "{}", case.id);
    assert_eq!(gt.occurrence, occurrence, "{}", case.id);
    assert_eq!((gt.exc, gt.seed), (case.root_exc, case.failure_seed));
    assert_eq!(case.failure_log().expect("failure log"), log, "{}", case.id);
    let prepared = case.prepare(1_000, &NoopTracer).expect("prepare");
    assert_eq!(prepared.gt.occurrence, occurrence, "{}", case.id);
    assert_eq!(prepared.failure_log, log, "{}", case.id);
}

#[test]
fn every_ticket_resolves_as_it_did() {
    for case in all_cases() {
        check(&case);
    }
}

#[test]
fn every_generated_case_resolves_as_it_did() {
    for (size, count) in [
        (SizeClass::Small, 6),
        (SizeClass::Medium, 3),
        (SizeClass::Large, 1),
    ] {
        let cfg = GenConfig {
            seed: 0xA11D,
            size,
            multi_fault: false,
        };
        for index in 0..count {
            let gc = generate_one(&cfg, index).expect("generated case");
            check(&gc.case);
            // The generator plants what the packaged case resolves to.
            let gt = gc.case.ground_truth().expect("ground truth");
            assert_eq!(
                (gt.site, gt.occurrence),
                (gc.plant[0].site, gc.plant[0].occurrence)
            );
            assert_eq!(gc.case.failure_log().expect("failure log"), gc.failure_log);
        }
    }
}

/// A root site no occurrence of which satisfies the oracle ends the scan at
/// the first run that injects nothing, with the count that run saw.
#[test]
fn an_unreproducible_case_says_how_many_occurrences_it_tried() {
    let mut case = all_cases().swap_remove(0);
    case.oracle = anduril::Oracle::LogContains("no run ever logs this".into());
    let site = case.root_site().expect("root site");
    let normal = (case.scenario)
        .run(case.failure_seed, InjectionPlan::none())
        .expect("run");
    let total = normal.site_occurrences[site.index()];
    assert!(total > 0);
    let error = case
        .ground_truth()
        .expect_err("nothing satisfies the oracle");
    assert!(
        error.to_string().contains(&format!("(of {total})")),
        "{error}"
    );
}
