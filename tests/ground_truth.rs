//! Ground-truth resolution runs nothing twice, and finds what it found
//! when it did.
//!
//! `FailureCase::{ground_truth, failure_log, prepare}` compile the program
//! once, pause one run at the root site's first execution, try occurrence
//! after occurrence on copies of it, moving it on after each miss, until
//! it ends without pausing, and keep the winning copy's log. The path they replace — spelled out here as
//! the reference — counted occurrences with a fault-free run of its own,
//! recompiled for every candidate and ran the winner once more to render
//! its log. Same ground truth, same log, byte for byte, on the 22 tickets
//! and on `e2e`'s generated corpus.
//!
//! The generator plants by construction — it searches for the crossing of
//! the phase gate it built on copies of the fault-free run taken at the
//! site's hits, each probe cut once the gate has answered,
//! and reads a cascade's start off the fault-free trace — and the
//! same reference scan says it plants what walking from occurrence 0 finds,
//! in a pinned number of simulator runs and steps.

use anduril::failures::{all_cases, FailureCase};
use anduril::gen::{generate_one, GenConfig, GeneratedCase, SizeClass};
use anduril::sim::{Candidate, InjectionPlan};
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

/// Checks the case's three resolution paths against the reference, and
/// hands back what the reference found.
fn check(case: &FailureCase) -> (u32, String) {
    let (occurrence, log) = reference(case).expect("reference resolves");
    let gt = case.ground_truth().expect("ground truth");
    assert_eq!(gt.site, case.root_site().expect("root site"), "{}", case.id);
    assert_eq!(gt.occurrence, occurrence, "{}", case.id);
    assert_eq!((gt.exc, gt.seed), (case.root_exc, case.failure_seed));
    assert_eq!(case.failure_log().expect("failure log"), log, "{}", case.id);
    let prepared = case.prepare(1_000, &NoopTracer).expect("prepare");
    assert_eq!(prepared.gt.occurrence, occurrence, "{}", case.id);
    assert_eq!(prepared.failure_log, log, "{}", case.id);
    (occurrence, log)
}

#[test]
fn every_ticket_resolves_as_it_did() {
    for case in all_cases() {
        check(&case);
    }
}

/// The fault-free occurrence count of the case's root site.
fn root_total(case: &FailureCase) -> u32 {
    let site = case.root_site().expect("root site");
    let normal = (case.scenario)
        .run(case.failure_seed, InjectionPlan::none())
        .expect("run");
    normal.site_occurrences[site.index()]
}

/// A single-fault batch: every plant and log is what the linear scan from
/// occurrence 0 finds, in a logarithm of the site's fault-free count of
/// runs, and no cut probe ran again to the end. Returns the runs and the
/// steps the batch's generation made: a run is a world started or a branch
/// off a copy of a paused one (a copy kept is none), and a prefix the
/// branches share counts its steps once.
fn check_single_batch(seed: u64, size: SizeClass, count: usize) -> (usize, u64) {
    let cfg = GenConfig {
        seed,
        size,
        multi_fault: false,
    };
    let (mut runs, mut steps) = (0, 0);
    for index in 0..count {
        let gc = generate_one(&cfg, index).expect("generated case");
        let id = format!("{seed:#x} {size} {}", gc.case.id);
        // The generator plants what the packaged case resolves to.
        let (occurrence, log) = check(&gc.case);
        let root = gc.case.root_site().expect("root site");
        assert_eq!(gc.plant.len(), 1, "{id}");
        assert_eq!(
            (gc.plant[0].site, gc.plant[0].occurrence, gc.plant[0].exc),
            (root, occurrence, gc.case.root_exc),
            "{id}"
        );
        assert_eq!(gc.failure_log, log, "{id}");
        // The fault-free run, walked over the site's hits, and a branch off
        // its copy at occurrence 0 that injects — or, behind a phase gate
        // (the handler can log the warmup line), with L = ⌈log₂(total + 1)⌉,
        // a gallop down the copies at 0, 1, 3, 7, … from the furthest, each
        // probe a cut branch, to the gap between two of them that holds the
        // crossing, the j-th (L − j probes), and a bisection of that gap
        // (at most j < L probes, each a branch moved on to its occurrence
        // and a cut branch off that), then the crossing's whole run.
        assert_eq!(gc.probe_fallbacks, 0, "{id}");
        let gated = (gc.case.scenario.program)
            .template_named("journal commit retried in warmup")
            .is_some();
        if gated {
            let total = root_total(&gc.case);
            let log = (total + 1).next_power_of_two().trailing_zeros() as usize;
            assert!(
                gc.runs <= 1 + 2 * log,
                "{id}: {} runs for {total} occurrences",
                gc.runs
            );
        } else {
            assert_eq!(gc.runs, 2, "{id}");
        }
        runs += gc.runs;
        steps += gc.steps;
    }
    (runs, steps)
}

/// `(B occurrence, failure log)` of a cascade by trying B from 0 under the
/// planted A, the way `plant_multi` used to.
fn reference_cascade(gc: &GeneratedCase) -> Option<(u32, String)> {
    let case = &gc.case;
    let (a, b) = (gc.plant[0], gc.plant[1]);
    let run = |plan| case.scenario.run(case.failure_seed, plan).expect("run");
    let total_b = run(InjectionPlan::none()).site_occurrences[b.site.index()];
    (0..total_b + 16).find_map(|occ_b| {
        let r = run(InjectionPlan::multi(vec![
            Candidate::exact(a.site, a.occurrence, a.exc),
            Candidate::exact(b.site, occ_b, b.exc),
        ]));
        (r.injected_all.len() == 2 && case.oracle.check(&r)).then(|| (occ_b, r.log_text()))
    })
}

fn check_cascade_batch(seed: u64, size: SizeClass, count: usize) {
    let cfg = GenConfig {
        seed,
        size,
        multi_fault: true,
    };
    for index in 0..count {
        let gc = generate_one(&cfg, index).expect("generated cascade");
        let id = format!("{seed:#x} {size} {}", gc.case.id);
        assert_eq!(gc.plant.len(), 2, "{id}");
        let (occ_b, log) = reference_cascade(&gc).expect("reference resolves");
        assert_eq!(gc.plant[1].occurrence, occ_b, "{id}");
        assert_eq!(gc.failure_log, log, "{id}");
        let replay = (gc.case.scenario)
            .run(gc.case.failure_seed, gc.plan())
            .expect("replay");
        assert_eq!(replay.log_text(), log, "{id}");
        // The fault-free run and one probe.
        assert_eq!(gc.runs, 2, "{id}");
    }
}

/// `e2e`'s corpus at its master seed `0xA11D`, and the simulator runs and
/// steps its generation may make: 316 runs and 1 666 201 steps since the
/// fault-free run is the paused one and the gate's crossing is galloped to
/// over its copies (374 runs and 2 032 817 steps while a second world,
/// paused at hit 0, was moved along the bisection; 208 runs and 3 564 580
/// steps when each run started at t = 0, a branch then being a run of its
/// own; 5 105 881 steps while every probe ran to the end; 661 runs when the
/// planter walked up from occurrence 0). What walks every occurrence here
/// is the reference, so a debug build (tier 1) checks `e2e --smoke`'s
/// corpus instead: 80 runs and 360 236 steps (92 and 439 271; 51 and
/// 687 084; 1 256 777 steps; 141 runs).
const CORPUS: ([(SizeClass, usize); 3], usize, u64) = if cfg!(debug_assertions) {
    (sizes(6, 3, 1), 84, 378_000)
} else {
    (sizes(24, 12, 6), 332, 1_750_000)
};

const fn sizes(small: usize, medium: usize, large: usize) -> [(SizeClass, usize); 3] {
    [
        (SizeClass::Small, small),
        (SizeClass::Medium, medium),
        (SizeClass::Large, large),
    ]
}

fn check_corpus(seed: u64) -> (usize, u64) {
    let (batches, ..) = CORPUS;
    batches
        .into_iter()
        .map(|(size, count)| check_single_batch(seed, size, count))
        .fold((0, 0), |(runs, steps), (r, s)| (runs + r, steps + s))
}

#[test]
fn every_generated_case_resolves_as_it_did() {
    let (runs, steps) = check_corpus(0xA11D);
    assert!(runs <= CORPUS.1, "generation made {runs} simulator runs");
    assert!(steps <= CORPUS.2, "generation took {steps} simulator steps");
    // A master seed no planter change was developed on.
    check_corpus(0x0DD5_EED5);
}

#[test]
fn every_generated_cascade_starts_where_the_trace_says() {
    let [(small, n_small), (medium, n_medium), _] = CORPUS.0;
    check_cascade_batch(0xA11D, small, n_small);
    check_cascade_batch(0xA11D, medium, n_medium / 2);
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
