//! A run paused at the `k`-th execution of a site is the shared prefix of
//! every run armed there: a copy that goes on is the run it would have
//! been.
//!
//! `PausedRun` stops a run armed with `exact(site, k, exc)` between the
//! site's `traceSite` and its decision. The planter and ground-truth
//! resolution branch their runs off one such run instead of simulating the
//! prefix again, so a copy must be — `RunResult::same_run` — the fresh run:
//! injected and run to the end, injected and cut at a horizon, or passed
//! on to the end. Checked on the 22 tickets at their ground-truth site and
//! on `e2e --smoke`'s generated corpus at the planted site, each at
//! occurrence 0, the ground truth, the middle and the last.
//!
//! The planter's fault-free run is itself such a run, walked over the
//! site's hits: it keeps copies at hits 0, 1, 3 and 7 on its way to the
//! end, and that end must be the fault-free run, each copy the fresh run
//! armed at its hit however far the walker went on after it was taken.

use anduril::failures::all_cases;
use anduril::gen::{generate_one, GenConfig, SizeClass};
use anduril::ir::{ExceptionType, SiteId};
use anduril::sim::{Engine, InjectionPlan, PausedRun, Reached, RunResult, SimError};
use anduril::Scenario;

/// Ticks past the fault-free time of the hit a cut copy runs: the
/// planter's phase-gate probe horizon.
const SLACK: u64 = 40;

fn start<'p>(
    scenario: &'p Scenario,
    seed: u64,
    site: SiteId,
    occurrence: u32,
    exc: ExceptionType,
) -> Reached<'p> {
    let program = &scenario.program;
    let cfg = scenario.config.with_seed(seed);
    PausedRun::start(
        program,
        program.compiled(),
        &scenario.topology,
        &cfg,
        site,
        occurrence,
        exc,
    )
    .expect("start")
}

fn paused<'p>(reached: Reached<'p>, id: &str) -> PausedRun<'p> {
    match reached {
        Reached::Paused(p) => p,
        Reached::Ended(_) => panic!("{id}: the run ended before the occurrence"),
    }
}

fn ended(reached: Reached<'_>, id: &str) -> RunResult {
    match reached {
        Reached::Ended(r) => *r,
        Reached::Paused(p) => panic!("{id}: paused at {} past the last", p.occurrence()),
    }
}

/// Walks one paused run over the site's occurrences 0, `truth`, the middle
/// and the last, checking every copy against the fresh run it stands for.
fn check(id: &str, scenario: &Scenario, seed: u64, site: SiteId, exc: ExceptionType, truth: u32) {
    let normal = scenario.run(seed, InjectionPlan::none()).expect("normal");
    let times: Vec<u64> = (normal.trace.iter())
        .filter(|t| t.site == site)
        .map(|t| t.time)
        .collect();
    let total = times.len() as u32;
    assert!(total > 0, "{id}: the site never executes");
    let mut ks = vec![0, truth, total / 2, total - 1];
    ks.sort_unstable();
    ks.dedup();

    let mut at = paused(start(scenario, seed, site, ks[0], exc), id);
    for (i, &k) in ks.iter().enumerate() {
        let tag = format!("{id} occurrence {k} of {total}");
        assert_eq!(at.occurrence(), k, "{tag}");
        let plan = InjectionPlan::exact(site, k, exc);
        let steps = at.steps();

        let whole = at.clone().inject(u64::MAX).expect("whole copy");
        assert!(whole.injected.is_some(), "{tag}: nothing fired");
        assert!(
            whole.same_run(&fresh(scenario, seed, plan.clone(), u64::MAX)),
            "{tag}: whole"
        );

        let horizon = times[k as usize] + SLACK;
        let cut = at.clone().inject(horizon).expect("cut copy");
        assert!(
            cut.same_run(&fresh(scenario, seed, plan, horizon)),
            "{tag}: cut at {horizon}"
        );

        // The copies went on; the original did not move.
        assert_eq!(at.steps(), steps, "{tag}");
        if k == truth {
            let again = at.clone().inject(u64::MAX).expect("again");
            assert!(again.same_run(&whole), "{tag}: the original moved");
        }
        if i == 0 {
            // Passing every occurrence from the first is the fault-free run.
            let rest = ended(at.clone().pass_to(u32::MAX).expect("pass all"), &tag);
            assert!(rest.same_run(&normal), "{tag}: passed to the end");
        }

        at = match ks.get(i + 1) {
            Some(&next) => paused(at.pass_to(next).expect("pass"), &tag),
            None => {
                // Passing every occurrence is the fault-free run.
                let rest = ended(at.pass_to(u32::MAX).expect("pass all"), &tag);
                assert!(rest.same_run(&normal), "{tag}: passed to the end");
                break;
            }
        };
    }

    // Pausing past the last occurrence runs to the end and reports the
    // run's own count.
    let past = ended(start(scenario, seed, site, total, exc), id);
    assert_eq!(past.site_occurrences[site.index()], total, "{id}");
    assert!(past.same_run(&normal), "{id}: started past the last");

    walk(id, scenario, seed, site, exc, &normal, &times);
}

/// Walks one run over the site's hits the way the planter walks its
/// fault-free run, keeping copies at hits 0, 1, 3 and 7 (those the site
/// reaches), and checks the walker's end against `normal` and each copy,
/// injected whole and cut, against the fresh run it stands for.
fn walk(
    id: &str,
    scenario: &Scenario,
    seed: u64,
    site: SiteId,
    exc: ExceptionType,
    normal: &RunResult,
    times: &[u64],
) {
    let mut kept = Vec::new();
    let mut reached = start(scenario, seed, site, 0, exc);
    for next in [1, 3, 7, u32::MAX] {
        let Reached::Paused(at) = reached else { break };
        kept.push(at.clone());
        reached = at.pass_to(next).expect("walk on");
    }
    let end = ended(reached, id);
    assert!(end.same_run(normal), "{id}: the walker's end");
    let total = times.len();
    assert_eq!(
        kept.len(),
        [0, 1, 3, 7].iter().filter(|&&k| k < total).count(),
        "{id}"
    );

    for at in kept {
        let k = at.occurrence();
        let tag = format!("{id} copy at {k} of {total}");
        let plan = InjectionPlan::exact(site, k, exc);
        let horizon = times[k as usize] + SLACK;
        let cut = at.clone().inject(horizon).expect("cut copy");
        assert!(
            cut.same_run(&fresh(scenario, seed, plan.clone(), horizon)),
            "{tag}: cut at {horizon}"
        );
        let whole = at.inject(u64::MAX).expect("whole copy");
        assert!(
            whole.same_run(&fresh(scenario, seed, plan, u64::MAX)),
            "{tag}: whole"
        );
    }
}

/// The fresh run of `plan` under `horizon` (or the scenario's own, if that
/// is sooner).
fn fresh(scenario: &Scenario, seed: u64, plan: InjectionPlan, horizon: u64) -> RunResult {
    let mut s = scenario.clone();
    s.config.max_time = s.config.max_time.min(horizon);
    s.run(seed, plan).expect("fresh run")
}

#[test]
fn every_ticket_branches_off_its_paused_run() {
    for case in all_cases() {
        let gt = case.ground_truth().expect("ground truth");
        check(
            case.id,
            &case.scenario,
            gt.seed,
            gt.site,
            gt.exc,
            gt.occurrence,
        );
    }
}

#[test]
fn every_smoke_corpus_case_branches_off_its_paused_run() {
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
            let f = gc.plant[0];
            let id = format!("{size} {}", gc.case.id);
            let seed = gc.case.failure_seed;
            check(&id, &gc.case.scenario, seed, f.site, f.exc, f.occurrence);
        }
    }
}

/// Pausing is the register VM's: the tree-walk engine and a `throw new`
/// site are errors, and so is passing backwards or cutting before the
/// paused slice.
#[test]
fn what_cannot_pause_is_an_error_not_a_panic() {
    // The ticket whose ground truth lies furthest in: its slice starts well
    // after time 0.
    let (case, gt) = (all_cases().into_iter())
        .map(|case| {
            let gt = case.ground_truth().expect("ground truth");
            (case, gt)
        })
        .max_by_key(|(_, gt)| gt.occurrence)
        .expect("tickets");
    let program = &case.scenario.program;
    let mut cfg = case.scenario.config.with_seed(gt.seed);
    cfg.engine = Engine::TreeWalk;
    let tree_walk = PausedRun::start(
        program,
        program.compiled(),
        &case.scenario.topology,
        &cfg,
        gt.site,
        0,
        gt.exc,
    );
    assert!(matches!(tree_walk, Err(SimError::Internal(_))));

    let throw_new = program
        .sites
        .iter()
        .find(|s| s.kind == anduril::ir::SiteKind::ThrowNew);
    if let Some(s) = throw_new {
        let cfg = case.scenario.config.with_seed(gt.seed);
        let r = PausedRun::start(
            program,
            program.compiled(),
            &case.scenario.topology,
            &cfg,
            s.id,
            0,
            s.exceptions[0],
        );
        assert!(matches!(r, Err(SimError::Internal(_))));
    }

    let at = paused(
        start(&case.scenario, gt.seed, gt.site, gt.occurrence, gt.exc),
        case.id,
    );
    let back = at.clone().pass_to(gt.occurrence);
    assert!(matches!(back, Err(SimError::Internal(_))));
    assert!(matches!(at.inject(0), Err(SimError::Internal(_))));
}
